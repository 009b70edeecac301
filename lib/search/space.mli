(** The placement space of the DL-sharding workload family.

    A {e configuration} fixes the workload: a training step of a stack
    of [layers] elementwise layers over a [batch] x [dim] activation
    matrix on [procs] simulated processors (forward through every
    layer, a column-sum gradient per layer, a weight update).  A
    {e placement} fixes how that workload maps onto the machine —
    GSPMD-style sharding specs over a (pipeline x data-parallel) mesh:

    - the mesh factorization [procs = pp * dp] and a contiguous
      assignment of layers to the [pp] pipeline stages;
    - per layer, an activation spec: [Row] (shard the batch axis over
      the [dp] mesh axis), [Col] (shard the feature axis), or [Repl]
      (replicate on every data-parallel peer);
    - per layer, a weight spec: [Wshard] (feature axis sharded over
      [dp]) or [Wrepl] (replicated), and for the replicated-weight
      data-parallel gradient, the allreduce compute rule: a rooted
      [Tree] (reduce to the stage root, broadcast back) or symmetric
      [Allgather] (every peer receives every partial and folds
      locally).

    {!Dlstack.build} elaborates a placement to IL+XDP over existing
    {!Xdp_dist.Layout} distributions; {!estimate} prices it without
    building the program.  Both derive from the {!comm} descriptors
    below — one per movement of data — and the exactness suite in
    [test/test_search.ml] holds estimated messages and wire bytes
    {e equal} to the executed [Stats] of the elaborated program. *)

type act = Row | Col | Repl
type wgt = Wshard | Wrepl
type gsum = Tree | Allgather

type layer_spec = { stage : int; act : act; wgt : wgt; gsum : gsum }

type placement = { dp : int; pp : int; layers : layer_spec array }

type config = {
  procs : int;
  batch : int;  (** rows of the activation matrix; a multiple of [procs] *)
  dim : int;  (** feature columns, and the weight-vector length *)
  nlayers : int;
}

val act_of_string : string -> (act, string) result
val act_name : act -> string
val wgt_of_string : string -> (wgt, string) result
val wgt_name : wgt -> string
val gsum_of_string : string -> (gsum, string) result
val gsum_name : gsum -> string

(** Canonical compact rendering, e.g. ["dp4xpp2[r/W.t|0 c/S.t|1]"];
    equal placements (after {!normalize}) render equally, so this is
    both the anneal dedup key and the label suffix. *)
val key : placement -> string

(** Human-oriented multi-line description. *)
val describe : config -> placement -> string

(** Force the don't-care fields to canonical values ([gsum] is only
    meaningful on replicated-weight [Row]/[Repl] layers). *)
val normalize : placement -> placement

(** Structural + divisibility validation of a placement against a
    configuration (mesh factorization, monotone contiguous stage
    assignment, [dim mod dp] for feature-sharded specs). *)
val validate : config -> placement -> (unit, string) result

(** [Error _] when the workload itself is malformed (non-positive
    sizes, [batch] not a multiple of [procs]). *)
val validate_config : config -> (unit, string) result

(** The naive fully-replicated data-parallel placement every
    comparison is anchored to: [dp = procs], one stage, [Repl]
    activations, replicated weights. *)
val naive : config -> placement

(** The hand placement a practitioner would write: classic data
    parallelism ([dp = procs], [Row] activations, replicated weights,
    rooted-tree allreduce). *)
val hand : config -> placement

(** All mesh factorizations [dp * pp = procs] with [pp <= nlayers]
    (a pipeline stage with no layers does no work), largest [dp]
    first. *)
val meshes : config -> (int * int) list

(** [uniform cfg ~dp ~pp act wgt gsum] — every layer identical, stages
    balanced contiguously; [None] if invalid for this config. *)
val uniform :
  config -> dp:int -> pp:int -> act -> wgt -> gsum -> placement option

(** {2 Communication descriptors}

    Every movement of data in the elaborated program is one {!comm}:
    {!Dlstack.build} renders it and {!estimate} counts it, so the two
    read one description.  A {!side} is what one endpoint's array
    holds: per dimension, its own block or the whole extent, and
    whether the array carries a per-peer index (replicas, per-peer
    partials, receive buffers). *)

type side = {
  group : int option;
      (** the stage whose peers hold the array; [None]: the whole
          machine ([IN]/[OUT]) *)
  peers : int;  (** members holding a block or copy: [dp], or [procs] *)
  indexed : bool;  (** indexed by peer *)
  rows : bool;  (** holds only its own row block *)
  cols : bool;  (** holds only its own feature block *)
}

type pattern =
  | Matched
      (** each receiver's block comes from the peer(s) holding it: the
          same peer index, or the finer blocks nested in a coarser
          one, or (from replicas) round-robin *)
  | All_pairs  (** every sender to every receiver *)
  | Exchange  (** among one stage's peers, every [q <> me] *)
  | Rooted  (** reduce to the stage root, broadcast back *)

type comm = {
  pattern : pattern;
  src : side;
  dst : side;
  extent : int * int;  (** rows x features; a vector has one row *)
}

(** Per dimension, whose block a message carries: the finer of the
    sender's and the receiver's, i.e. their intersection. *)
type piece = Src_block | Dst_block | Whole

(** [boundary cfg p k], [k = 0 .. nlayers]: the activations feeding
    layer [k + 1], from the machine-wide [IN] at [k = 0], into the
    machine-wide [OUT] at [k = nlayers].  A transition is [Matched]
    when both sides lay out the data alike or the sender is
    replicated, [All_pairs] otherwise. *)
val boundary : config -> placement -> int -> comm

(** A [Matched] movement between the same processors moves no data:
    the consumer reads the producer's array in place. *)
val local : comm -> bool

(** The allgather of sharded weights that a non-[Col] forward reads
    whole. *)
val weights : config -> placement -> layer_spec -> comm option

(** The gradient allreduce: [Row] partials are summed ([Rooted] or
    [Exchange]), [Col] feature blocks concatenated for replicated
    weights; [None] where every peer already holds its totals. *)
val gradient : config -> placement -> layer_spec -> comm option

(** (rows, features) pieces of every message of a movement. *)
val pieces : comm -> piece * piece

(** {2 The estimator} *)

type summary = {
  comm : Estimate.t;  (** endpoint messages and wire bytes *)
  compute_elems : int;
      (** busiest processor's computed elements (forward + gradient),
          summed over pipeline stages — the redundant-compute price of
          replication *)
  est_makespan : float;  (** coarse alpha-beta + compute ranking metric *)
}

(** Price a placement statically in O(layers) — no IR, no simulator.
    Exact by construction: [comm.msgs] and [comm.wire_bytes] equal the
    executed [Stats.messages]/[Stats.bytes] of the elaborated program
    under the same cost constants.
    @raise Invalid_argument if {!validate} would reject. *)
val estimate : Estimate.params -> config -> placement -> summary
