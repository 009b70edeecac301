(** Dense row-major float tensors with Fortran-style 1-based indexing.

    Used for the sequential reference interpreter's global arrays, for
    message payload buffers, and for gathered verification results.
    (Per-processor {e local} storage is segment-chunked and lives in
    {!Xdp_symtab.Storage}, not here.) *)

type t

(** [create shape] allocates a zero tensor. Extents must be positive. *)
val create : int list -> t

(** [init shape f] builds a tensor with [f idx] at each index vector. *)
val init : int list -> (int list -> float) -> t

val shape : t -> int list
val rank : t -> int
val size : t -> int

(** Whole-array box [1:n1, ..., 1:nk]. *)
val full_box : t -> Box.t

(** [get t idx] / [set t idx v] access one element (1-based indices).
    @raise Invalid_argument when out of bounds. *)
val get : t -> int list -> float

val set : t -> int list -> float -> unit

(** {!get} over an [int array] index vector; allocation-free. *)
val get_a : t -> int array -> float

(** {!set} over an [int array] index vector; allocation-free, with
    {!set}'s diagnostics in {!set}'s order (bounds dimension by
    dimension, then the rank). *)
val set_a : t -> int array -> float -> unit

val fill : t -> float -> unit
val copy : t -> t

(** [extract t box] packs the elements of [box] (row-major box order)
    into a fresh flat buffer. Allocation-free per element: the walk is
    offset-based ({!Box.iter_offsets}), and contiguous innermost runs
    are lowered to [Array.blit]. *)
val extract : t -> Box.t -> float array

(** [blit t box buf] unpacks [buf] (row-major box order) into [box].
    Same fast path as {!extract}. *)
val blit : t -> Box.t -> float array -> unit

(** [fill_box t box v] sets every element of [box] to [v]; contiguous
    innermost runs are lowered to [Array.fill]. *)
val fill_box : t -> Box.t -> float -> unit

(** [map_box t box f] replaces each element [x] of [box] by [f idx x]. *)
val map_box : t -> Box.t -> (int list -> float -> float) -> unit

(** [equal ?eps a b] — same shape and elementwise within [eps]
    (default [1e-9]). *)
val equal : ?eps:float -> t -> t -> bool

(** Largest absolute elementwise difference. *)
val max_diff : t -> t -> float

val pp : Format.formatter -> t -> unit
