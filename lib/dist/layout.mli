(** Array layouts: global shape + per-dimension distribution + grid.

    A layout answers the static ownership questions the XDP compiler
    needs (who owns an index, what does processor [p] own) and is the
    initial condition loaded into each processor's run-time symbol
    table.  After run-time ownership transfers, the symbol table — not
    the layout — is the source of truth (§3.1). *)

open Xdp_util

type t

(** [make ~shape ~dist ~grid] builds a layout.  The number of
    distributed (non-[Star]) dimensions must equal the grid rank; the
    k-th distributed dimension is mapped to the k-th grid axis.
    @raise Invalid_argument on rank mismatch or bad extents. *)
val make : shape:int list -> dist:Dist.t list -> grid:Grid.t -> t

val shape : t -> int list
val rank : t -> int
val dist : t -> Dist.t list
val grid : t -> Grid.t
val nprocs : t -> int

(** The full index box [1:n1, ..., 1:nk]. *)
val full_box : t -> Box.t

(** [owner t idx] — the unique 0-based pid owning global index vector
    [idx]. *)
val owner : t -> int list -> int

val owns : t -> int -> int list -> bool

(** [owned_triplets t pid d] — global indices owned by [pid] along
    (1-based) dimension [d], as disjoint ascending triplets. *)
val owned_triplets : t -> int -> int -> Triplet.t list

(** [owned_boxes t pid] — the entire region owned by [pid] as a list
    of disjoint boxes (the Cartesian products of per-dimension owned
    triplets).  Empty if the processor owns nothing. *)
val owned_boxes : t -> int -> Box.t list

(** Number of owned indices along dimension [d] ([local_extent]), and
    total owned elements ([local_size]). *)
val local_extent : t -> int -> int -> int

val local_size : t -> int -> int

(** [mylb t pid box d] / [myub t pid box d] — the paper's intrinsics:
    smallest / largest index in dimension [d] among elements of [box]
    owned by [pid]; [None] if it owns no element of [box]. *)
val mylb : t -> int -> Box.t -> int -> int option

val myub : t -> int -> Box.t -> int -> int option

(** [owner_box t pid box] — the sub-box of [box] owned by [pid], as
    disjoint boxes. *)
val owned_inter : t -> int -> Box.t -> Box.t list

val equal : t -> t -> bool

(** Pretty-prints as e.g. ["( *, BLOCK) over 2x2"]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** [ownership_map t] — an ASCII map of a rank-2 layout: one character
    per element, ['0'..'9','A'..] identifying the owning processor
    (used to regenerate Figure 3). @raise Invalid_argument if rank <> 2. *)
val ownership_map : t -> string
