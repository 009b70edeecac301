open Xdp.Ir
open Xdp_util

type result = {
  arrays : (string * Tensor.t) list;
  scalars : (string * Value.t) list;
}

let array r name =
  match List.assoc_opt name r.arrays with
  | Some t -> t
  | None -> invalid_arg ("Seq.array: no array " ^ name)

(* The program is translated once per [run] into OCaml closures over
   this run's tensors and scalar slots, then the closures run.  Every
   check stays where the statement executes: an error in a branch or
   loop that never runs never raises, and each raises with the text
   and in the order of a plain tree-walk — subscripts left to right,
   then the stored value; binary operands right before left; a slice's
   stride, then upper, then lower bound. *)

(* A scalar variable: its value, valid once [bound]. *)
type slot = { name : string; mutable v : Value.t; mutable bound : bool }

type env = {
  tensors : (string, Tensor.t) Hashtbl.t;
  slots : (string, slot) Hashtbl.t;
  kernels : Xdp.Kernels.registry;
}

let slot env name =
  match Hashtbl.find_opt env.slots name with
  | Some s -> s
  | None ->
      let s = { name; v = Value.VInt 0; bound = false } in
      Hashtbl.replace env.slots name s;
      s

let unbound s = invalid_arg ("unbound scalar variable " ^ s.name)
let read s = if s.bound then s.v else unbound s

let read_int s =
  if not s.bound then unbound s
  else match s.v with Value.VInt n -> n | v -> Value.to_int v

let write s v =
  s.v <- v;
  s.bound <- true

let undeclared a = invalid_arg ("Seq: undeclared array " ^ a)

(* Subtrees whose value is a [VFloat] whatever the scalars hold:
   [Value.binop] maps float op float to the float operation. *)
let rec float_typed = function
  | Float _ | Elem _ -> true
  | Bin ((Add | Sub | Mul | Div), a, b) -> float_typed a && float_typed b
  | _ -> false

let rec expr env e : unit -> Value.t =
  if float_typed e then begin
    let f = float_expr env e in
    fun () -> Value.VFloat (f ())
  end
  else
    match e with
    | Int n ->
        let v = Value.VInt n in
        fun () -> v
    | Bool b ->
        let v = Value.VBool b in
        fun () -> v
    | Var v ->
        let s = slot env v in
        fun () -> read s
    | Mypid | Nprocs -> fun () -> Value.VInt 1
    | Bin (And, a, b) ->
        let a = expr env a and b = expr env b in
        fun () -> if Value.to_bool (a ()) then b () else Value.VBool false
    | Bin (Or, a, b) ->
        let a = expr env a and b = expr env b in
        fun () -> if Value.to_bool (a ()) then Value.VBool true else b ()
    | Bin (op, a, b) ->
        let a = expr env a and b = expr env b in
        fun () ->
          let y = b () in
          Value.binop op (a ()) y
    | Un (op, a) ->
        let a = expr env a in
        fun () -> Value.unop op (a ())
    | Mylb (s, d) ->
        let s = section env s in
        fun () -> Value.VInt (Triplet.first (Box.dim (snd (s ())) d))
    | Myub (s, d) ->
        let s = section env s in
        fun () -> Value.VInt (Triplet.last (Box.dim (snd (s ())) d))
    | Iown s | Accessible s | Await s ->
        (* one address space: everything is owned and accessible *)
        let s = section env s in
        fun () ->
          ignore (s ());
          Value.VBool true
    | Float _ | Elem _ -> assert false (* float-typed *)

and float_expr env e : unit -> float =
  match e with
  | Float x -> fun () -> x
  | Elem (a, idxs) -> (
      let buf, fill = subscripts env idxs in
      match Hashtbl.find_opt env.tensors a with
      | None ->
          fun () ->
            fill ();
            undeclared a
      | Some t ->
          fun () ->
            fill ();
            Tensor.get_a t buf)
  | Bin (op, a, b) -> (
      let a = float_expr env a and b = float_expr env b in
      match op with
      | Add -> fun () -> let y = b () in a () +. y
      | Sub -> fun () -> let y = b () in a () -. y
      | Mul -> fun () -> let y = b () in a () *. y
      | Div -> fun () -> let y = b () in a () /. y
      | _ -> assert false (* not float-typed *))
  | _ -> assert false (* not float-typed *)

(* An element's subscripts: a buffer and the closure that fills it left
   to right.  The buffer belongs to one [Elem] or store, which cannot
   be re-entered while its subscripts are evaluated. *)
and subscripts env idxs =
  let subs = Array.of_list (List.map (int_expr env) idxs) in
  let buf = Array.make (Array.length subs) 0 in
  let fill =
    match subs with
    | [| s1 |] -> fun () -> buf.(0) <- s1 ()
    | [| s1; s2 |] ->
        fun () ->
          buf.(0) <- s1 ();
          buf.(1) <- s2 ()
    | _ ->
        fun () ->
          for d = 0 to Array.length subs - 1 do
            buf.(d) <- subs.(d) ()
          done
  in
  (buf, fill)

(* A subscript or bound: [Value.to_int] of the expression, with the
   loop-index shapes [v] and [v ± c] read straight from the slot. *)
and int_expr env e : unit -> int =
  match e with
  | Int n -> fun () -> n
  | Var v ->
      let s = slot env v in
      fun () -> read_int s
  | Bin (Add, Var v, Int c) ->
      let s = slot env v and vc = Value.VInt c in
      fun () -> (
        match s.v with
        | Value.VInt n when s.bound -> n + c
        | _ -> Value.to_int (Value.binop Add (read s) vc))
  | Bin (Sub, Var v, Int c) ->
      let s = slot env v and vc = Value.VInt c in
      fun () -> (
        match s.v with
        | Value.VInt n when s.bound -> n - c
        | _ -> Value.to_int (Value.binop Sub (read s) vc))
  | _ ->
      let f = expr env e in
      fun () -> Value.to_int (f ())

(* A section: its tensor and resolved box.  An undeclared array raises
   before any selector is evaluated, as does a rank mismatch. *)
and section env s : unit -> Tensor.t * Box.t =
  match Hashtbl.find_opt env.tensors s.arr with
  | None -> fun () -> undeclared s.arr
  | Some t ->
      let shape = Tensor.shape t in
      if List.length s.sel <> List.length shape then begin
        let msg =
          Printf.sprintf "section %s: rank mismatch"
            (Xdp.Pp.section_to_string s)
        in
        fun () -> invalid_arg msg
      end
      else begin
        let dims =
          List.map2
            (fun sel extent ->
              match sel with
              | All ->
                  let tr = Triplet.range 1 extent in
                  fun () -> tr
              | At e ->
                  let e = int_expr env e in
                  fun () -> Triplet.point (e ())
              | Slice (lo, hi, st) ->
                  let lo = int_expr env lo
                  and hi = int_expr env hi
                  and st = int_expr env st in
                  fun () ->
                    let stride = st () in
                    let hi = hi () in
                    Triplet.make ~lo:(lo ()) ~hi ~stride)
            s.sel shape
        in
        fun () -> (t, Box.make (List.map (fun d -> d ()) dims))
      end

let rec stmt env st : unit -> unit =
  match st with
  | Assign (Lvar v, e) ->
      let s = slot env v and e = expr env e in
      fun () -> write s (e ())
  | Assign (Lelem (a, idxs), e) -> (
      let buf, fill = subscripts env idxs in
      let v =
        if float_typed e then float_expr env e
        else
          let e = expr env e in
          fun () -> Value.to_float (e ())
      in
      match Hashtbl.find_opt env.tensors a with
      | None ->
          fun () ->
            fill ();
            ignore (v ());
            undeclared a
      | Some t ->
          fun () ->
            fill ();
            let x = v () in
            Tensor.set_a t buf x)
  | For { var; lo; hi; step; body; _ } ->
      let s = slot env var in
      let lo = int_expr env lo and hi = int_expr env hi in
      let step = int_expr env step in
      let body = stmts env body in
      fun () ->
        let lo = lo () in
        let hi = hi () in
        let step = step () in
        if step <= 0 then invalid_arg "Seq: non-positive loop step";
        (* the counter is private: assigning the variable in the body
           does not change the trip count *)
        let i = ref lo in
        while !i <= hi do
          write s (Value.VInt !i);
          body ();
          i := !i + step
        done
  | If (c, a, b) ->
      let c = expr env c and a = stmts env a and b = stmts env b in
      fun () -> if Value.to_bool (c ()) then a () else b ()
  | Apply { fn; args } -> (
      match Xdp.Kernels.find env.kernels fn with
      | None ->
          let msg = "Seq: unknown kernel " ^ fn in
          fun () -> invalid_arg msg
      | Some k ->
          let args = List.map (section env) args in
          fun () ->
            let secs = List.map (fun s -> s ()) args in
            let bufs = List.map (fun (t, b) -> Tensor.extract t b) secs in
            k.apply bufs;
            List.iter2 (fun (t, b) buf -> Tensor.blit t b buf) secs bufs)
  | Guard _ | Send_value _ | Send_owner _ | Send_owner_value _
  | Recv_value _ | Recv_owner _ | Recv_owner_value _ ->
      fun () -> invalid_arg "Seq: XDP construct in sequential program"

and stmts env ss =
  match List.map (stmt env) ss with
  | [] -> fun () -> ()
  | [ s ] -> s
  | ss ->
      let ss = Array.of_list ss in
      fun () ->
        for k = 0 to Array.length ss - 1 do
          ss.(k) ()
        done

let run ?(kernels = Xdp.Kernels.default) ?(init = fun _ _ -> 0.0)
    ?(scalars = []) (p : program) =
  let env =
    { tensors = Hashtbl.create 8; slots = Hashtbl.create 16; kernels }
  in
  List.iter
    (fun d ->
      let shape = Xdp_dist.Layout.shape d.layout in
      Hashtbl.replace env.tensors d.arr_name
        (Tensor.init shape (init d.arr_name)))
    p.decls;
  List.iter (fun (v, x) -> write (slot env v) x) scalars;
  stmts env p.body ();
  {
    arrays =
      List.map (fun d -> (d.arr_name, Hashtbl.find env.tensors d.arr_name))
        p.decls;
    scalars =
      Hashtbl.fold
        (fun name s acc -> if s.bound then (name, s.v) :: acc else acc)
        env.slots [];
  }
