(** The message stack under the SPMD executor: the rendezvous
    {!Xdp_sim.Board}, the reliable {!Xdp_net.Transport} when a fault
    plan is set, and the {!Xdp_nic.Fabric} when NIC programs are
    attached.  Which layers exist is decided once, in {!create}; under
    {!Xdp_net.Faultplan.none} the board is used directly, so the
    fault-free path is exactly the board's.  The fabric sits above the
    wire and everything it emits re-enters below it, so retransmits and
    duplicates never reach NIC state. *)

type t

type send =
  time:float ->
  src:int ->
  name:string ->
  kind:Xdp_sim.Board.kind ->
  payload:float array ->
  directed:int list option ->
  unit

type recv =
  time:float ->
  dst:int ->
  name:string ->
  kind:Xdp_sim.Board.kind ->
  token:int ->
  unit

val create :
  cost:Xdp_sim.Costmodel.t ->
  trace:Xdp_sim.Trace.t ->
  fault:Xdp_net.Faultplan.t ->
  net:Xdp_net.Transport.config ->
  nic:(int * Xdp_nic.Prog.t) list ->
  nprocs:int ->
  (t, string) result
(** [Error] is the fabric's attach-time diagnostic. *)

val post_send : t -> send
(** A directed value send whose destinations include NIC-attached
    processors is split: the plain destinations' copy goes on the wire,
    and each NIC-attached destination's copy is offered to its NIC. *)

val post_recv : t -> recv

val has_delivery : t -> bool
(** Allocation-free, for the scheduler's inner loop. *)

val peek_delivery : t -> Xdp_sim.Board.delivery option
val pop_delivery : t -> Xdp_sim.Board.delivery option

val failures : t -> Xdp_net.Transport.failure list
(** Messages abandoned past the retry budget; empty without a plan. *)

val board : t -> Xdp_sim.Board.t

val stats : t -> Xdp_sim.Trace.stats
(** The communication fields of a run's statistics (board, transport
    and NIC counters; peak in-flight bytes padded to [nprocs]).  The
    fields the executor owns are zero or empty. *)
