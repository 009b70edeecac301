(** An eDSL for constructing IL+XDP programs in OCaml.

    Mirrors the paper's concrete syntax closely enough that the worked
    examples transcribe line by line, e.g. §2.2's

    {v
    iown(B[i]) : { B[i] -> }
    v}

    becomes

    {[ iown (sec "B" [ at i ]) @: [ send (sec "B" [ at i ]) ] ]} *)

open Ir

(** {1 Expressions} *)

val i : int -> expr
val f : float -> expr
val b : bool -> expr
val var : string -> expr
val mypid : expr
val nprocs : expr
val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val ( %: ) : expr -> expr -> expr
val ( =: ) : expr -> expr -> expr
val ( <>: ) : expr -> expr -> expr
val ( <: ) : expr -> expr -> expr
val ( <=: ) : expr -> expr -> expr
val ( >: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr
val ( &&: ) : expr -> expr -> expr
val ( ||: ) : expr -> expr -> expr
val emin : expr -> expr -> expr
val emax : expr -> expr -> expr
val neg : expr -> expr
val enot : expr -> expr

(** [elem "A" [i; j]] — the value reference A[i,j]. *)
val elem : string -> expr list -> expr

(** {1 Sections} *)

val all : dim_sel
val at : expr -> dim_sel
val slice : expr -> expr -> dim_sel
val slice3 : expr -> expr -> expr -> dim_sel
val sec : string -> dim_sel list -> section

(** The selectors naming exactly a box: [at] a single index, [slice]
    (or strided [slice3]) a range — [sec "A" (sel_of_box b)]. *)
val sel_of_box : Xdp_util.Box.t -> dim_sel list

(** [esec "A" [i]] — section of a single element. *)
val esec : string -> expr list -> section

val iown : section -> expr

val accessible : section -> expr
val await : section -> expr
val mylb : section -> int -> expr
val myub : section -> int -> expr

(** {1 Statements} *)

(** [guard @: body] — a compute rule. *)
val ( @: ) : expr -> stmt list -> stmt

val assign : lhs -> expr -> stmt

(** [set "A" [i] e] — A[i] = e. *)
val set : string -> expr list -> expr -> stmt

(** [setv "x" e] — scalar assignment. *)
val setv : string -> expr -> stmt

(** [loop "i" lo hi body] — do i = lo, hi. *)
val loop : string -> expr -> expr -> stmt list -> stmt

val loop_step : string -> expr -> expr -> expr -> stmt list -> stmt
val if_ : expr -> stmt list -> stmt list -> stmt

(** The transfer statements (paper Figure 1): [send] is [E ->],
    [send_to] is [E -> S], [send_owner] is [E =>], [send_owner_value]
    is [E -=>], [recv] is [E <- X], [recv_owner] is [U <=], and
    [recv_owner_value] is [U <=-]. *)

val send : section -> stmt
val send_to : section -> expr list -> stmt
val send_owner : section -> stmt
val send_owner_value : section -> stmt
val recv : into:section -> from:section -> stmt
val recv_owner : section -> stmt
val recv_owner_value : section -> stmt

val apply : string -> section list -> stmt

(** {1 Programs} *)

val decl :
  name:string ->
  shape:int list ->
  dist:Xdp_dist.Dist.t list ->
  grid:Xdp_dist.Grid.t ->
  ?seg_shape:int list ->
  ?universal:bool ->
  unit ->
  array_decl
(** [seg_shape] defaults to the whole local partition as one segment
    per dimension (i.e. the local extent of processor 0 — a safe
    coarse default; pass an explicit shape to enable pipelining). *)

val program : name:string -> decls:array_decl list -> stmt list -> program
