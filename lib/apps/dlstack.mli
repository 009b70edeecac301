(** The DL-sharding workload family: a pipeline-parallel stack of
    elementwise layers with a data-parallel allreduce training step,
    elaborated from a GSPMD-style {!Xdp_search.Space.placement} to
    ordinary IL+XDP over {!Xdp_dist} layouts.

    The workload (config [B = batch], [D = dim], [L = nlayers]):

    {v
    X_0 = IN                          (machine-wide, batch-sharded)
    X_l[i,j] = X_{l-1}[i,j] * W_l[j] + 1        l = 1..L  (forward)
    G_l[j]   = sum_i X_l[i,j]                   (column-sum gradient)
    W_l[j]  += eta * G_l[j],  eta = 1/1024      (update)
    OUT      = X_L                    (machine-wide, batch-sharded)
    v}

    Inputs are small integers and weights start at 1.0, so every
    intermediate is integer-exact in floating point: [X_l = IN + l]
    bit-identically under {e any} placement, engine, cost model or
    summation order, and the updated weights are exact dyadics —
    which is what lets the differential suite demand bit-identity
    across the whole placement space.

    Every communication is a {!Xdp_search.Space.comm} descriptor —
    the activation boundaries ({!Xdp_search.Space.boundary}), the
    weight allgather and the gradient allreduce — rendered by one
    transfer emitter (matched or all-pairs), one peer-exchange
    emitter and the rooted tree; the estimator counts the same
    descriptors, and the exactness test pins estimated messages/bytes
    to executed [Stats].  All sends are directed; peers post sends
    before receives and receives before awaits, so elaborated
    programs are deadlock-free by construction. *)

open Xdp_search

(** Array naming: [IN]/[OUT] machine-wide; per layer [l] (1-based):
    activations [X<l>], staged-in copies [C<l>], weights [W<l>], and
    the allgather/gradient scratch arrays [WC<l>], [GP<l>], [GR<l>],
    [GT<l>], [GB<l>], [GA<l>], [GS<l>] — only the ones the layer's
    spec actually needs are declared.
    @raise Invalid_argument when {!Space.validate} rejects. *)
val build : Space.config -> Space.placement -> Xdp.Ir.program

(** [IN] is [(i + 2j) mod 7], weights start at 1.0, scratch at 0. *)
val init : string -> int list -> float

(** The analytic [OUT]: [IN + nlayers]. *)
val reference : Space.config -> Xdp_util.Tensor.t

(** Check a finished run: [OUT] and every layer's weights against the
    analytic values, bit-exactly.  [arrays] is the gathered-tensor
    getter (pass [Exec.array r]). *)
val check :
  Space.config ->
  Space.placement ->
  (string -> Xdp_util.Tensor.t) ->
  (unit, string) result
