(** The SPMD executor's IL expression evaluator, parameterized over
    the data and ownership oracle of the evaluating processor.

    {!Exec}'s interpreter evaluates expressions with these rules (the
    staged engine, {!Precompile}, replicates them; the sequential
    reference {!Seq} is written independently).  What a processor can
    see comes through its {!hooks}:

    - a reference to the {e value} of an unowned element raises
      {!Unowned_ref}; {!eval_guard} catches it and makes the whole
      compute rule false (paper §2.4), while ordinary evaluation
      propagates it as a hard error (values may only be used when
      owned, §2.1);
    - [await] on a transitional section raises {!Blocked_on}, which
      the SPMD executor turns into a blocked processor (sequentially
      everything is accessible, so it never escapes);
    - [mylb]/[myub] map "no element owned" to MAXINT/MININT as in
      Figure 1. *)

open Xdp.Ir
open Xdp_util

exception Unowned_ref of string
exception Blocked_on of string * Box.t

type env = (string, Value.t) Hashtbl.t

(** Reusable per-(depth, rank) index buffers: [Elem] subscripts are
    evaluated into these instead of allocating an [int list] per
    access.  One pool per {!hooks} value; create with
    {!Scratch.create}. *)
module Scratch : sig
  type t

  val create : unit -> t
end

type hooks = {
  mypid1 : int;  (** 1-based pid of the evaluating processor *)
  nprocs : int;
  shape_of : string -> int list;
  elem : string -> int array -> float;
      (** the index buffer is only valid for the duration of the call *)
  iown : string -> Box.t -> bool;
  accessible : string -> Box.t -> bool;
  await : string -> Box.t -> bool;
      (** false when unowned; raises [Blocked_on] when transitional *)
  mylb : string -> Box.t -> int -> int option;
  myub : string -> Box.t -> int -> int option;
  charge : float -> unit;  (** accumulate simulated cycles *)
  cm : Xdp_sim.Costmodel.t;
  scratch : Scratch.t;
}

val eval : hooks -> env -> expr -> Value.t

(** Evaluate a subscript expression to an integer index. *)
val eval_int : hooks -> env -> expr -> int

(** Resolve a section to its concrete index box under the current
    environment (All selectors take the declared extent). *)
val resolve_section : hooks -> env -> section -> Box.t

(** Compute-rule evaluation: [Unowned_ref] inside the rule makes it
    false; [Blocked_on] propagates (the caller blocks). *)
val eval_guard : hooks -> env -> expr -> bool
