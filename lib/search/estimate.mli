(** Shared communication-volume accounting for placement search.

    The placement estimator ({!Space.estimate}), the search loop
    ({!Anneal.search}) and the benchmarks all count endpoint messages
    and wire bytes through this one module, so the byte math exists in
    exactly one place and always matches what the simulator's message
    board charges: a matched value send costs
    [payload elements * elem_bytes] wire bytes, plus [header_bytes]
    only when undirected — directed sends are bound at compile time,
    so no name tag travels (the board charges them no header, and
    every message a placement elaborates to is directed).

    All totals are overflow-checked in the
    {!Xdp_dist.Redistribution.checked_add} style: counting past
    [max_int] raises [Invalid_argument] naming the quantity instead of
    silently wrapping — placements are scored at P in the thousands
    where naive byte products approach the 2^61 boundary. *)

(** The constants a static estimate depends on — a slice of
    {!Xdp_sim.Costmodel.t} (this library sits below the simulator, so
    callers that have a cost model convert it; everyone else uses
    {!default_params}, which mirrors [message_passing]). *)
type params = {
  elem_bytes : int;
  header_bytes : int;
  alpha : float;  (** per-message wire latency *)
  beta : float;  (** per-byte wire cost *)
  send_init : float;
  recv_init : float;
  time_flop : float;
  time_mem : float;
}

(** Mirrors [Costmodel.message_passing]. *)
val default_params : params

(** A communication total: endpoint messages, payload elements and
    wire bytes (payload + per-message headers). *)
type t = { msgs : int; payload_elems : int; wire_bytes : int }

val zero : t

(** Overflow-checked sum. *)
val add : t -> t -> t

(** [scale k t] — [k] repetitions of [t]; overflow-checked. *)
val scale : int -> t -> t

(** [messages p ~count ~elems] — [count] messages of [elems] payload
    elements each; [directed] (default [true]) controls whether the
    per-message header travels.  @raise Invalid_argument on negative
    inputs or overflow. *)
val messages : ?directed:bool -> params -> count:int -> elems:int -> t

(** Coarse alpha-beta transfer time of a total, serialized:
    [msgs * (send_init + recv_init + alpha) + wire_bytes * beta]. *)
val transfer_time : params -> t -> float
