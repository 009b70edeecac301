(** Sequential reference interpreter.

    Executes the {e original} (XDP-free) program on one address space
    with plain dense tensors — the semantics any SPMD translation must
    preserve.  Every compiled/optimized program in the test suite is
    verified by gathering its simulated distributed arrays and
    comparing against this interpreter's result.

    Each {!run} stages the program once: it is translated into OCaml
    closures over that run's tensors and scalar slots, which then run.
    Nothing is checked early — an error (unbound scalar, out-of-bounds
    or rank-mismatched index, undeclared array, unknown kernel,
    non-positive step, XDP statement) raises only when its statement
    executes, so one in an untaken branch or a zero-trip loop never
    does.  Arithmetic and promotion are {!Value}'s.  [Seq] is
    independent of the SPMD executor and its staged engine ({!Exec},
    {!Evalexpr}, {!Precompile}): it shares no code with them, so it
    stays an oracle for both.

    @raise Invalid_argument when an XDP transfer statement or guard
    executes (those belong to SPMD programs; the compute rules of a
    correct SPMD program are an artifact of distribution, not of the
    underlying algorithm). *)

open Xdp_util

type result = {
  arrays : (string * Tensor.t) list;  (** one per declaration, in order *)
  scalars : (string * Value.t) list;
      (** every scalar bound at the end of the run, in no fixed order *)
}

val run :
  ?kernels:Xdp.Kernels.registry ->
  ?init:(string -> int list -> float) ->
  ?scalars:(string * Value.t) list ->
  Xdp.Ir.program ->
  result

val array : result -> string -> Tensor.t
