(* Evaluator hooks for a sequential machine that owns everything: one
   processor, every section owned, accessible and awaited, [mylb]/[myub]
   the section's own first/last index.  Lets the expression tests drive
   [Evalexpr] without an executor. *)

open Xdp_util
open Xdp_runtime.Evalexpr

let make ~shape_of ~elem ~cm =
  {
    mypid1 = 1;
    nprocs = 1;
    shape_of;
    elem;
    iown = (fun _ _ -> true);
    accessible = (fun _ _ -> true);
    await = (fun _ _ -> true);
    mylb = (fun _ box d -> Some (Triplet.first (Box.dim box d)));
    myub = (fun _ box d -> Some (Triplet.last (Box.dim box d)));
    charge = (fun _ -> ());
    cm;
    scratch = Scratch.create ();
  }
