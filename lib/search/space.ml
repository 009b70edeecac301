type act = Row | Col | Repl
type wgt = Wshard | Wrepl
type gsum = Tree | Allgather
type layer_spec = { stage : int; act : act; wgt : wgt; gsum : gsum }
type placement = { dp : int; pp : int; layers : layer_spec array }
type config = { procs : int; batch : int; dim : int; nlayers : int }

let act_name = function Row -> "row" | Col -> "col" | Repl -> "repl"

let act_of_string = function
  | "row" -> Ok Row
  | "col" -> Ok Col
  | "repl" | "replicate" -> Ok Repl
  | s ->
      Error
        (Printf.sprintf
           "unknown activation spec '%s' (accepted: row, col, repl)" s)

let wgt_name = function Wshard -> "shard" | Wrepl -> "repl"

let wgt_of_string = function
  | "shard" -> Ok Wshard
  | "repl" | "replicate" -> Ok Wrepl
  | s ->
      Error
        (Printf.sprintf "unknown weight spec '%s' (accepted: shard, repl)" s)

let gsum_name = function Tree -> "tree" | Allgather -> "allgather"

let gsum_of_string = function
  | "tree" -> Ok Tree
  | "allgather" -> Ok Allgather
  | s ->
      Error
        (Printf.sprintf
           "unknown gradient rule '%s' (accepted: tree, allgather)" s)

let act_char = function Row -> 'r' | Col -> 'c' | Repl -> 'R'
let wgt_char = function Wshard -> 's' | Wrepl -> 'w'
let gsum_char = function Tree -> 't' | Allgather -> 'g'

let key p =
  let b = Buffer.create 64 in
  Printf.bprintf b "dp%d.pp%d:" p.dp p.pp;
  Array.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%c%c%c%d" (act_char l.act) (wgt_char l.wgt)
        (gsum_char l.gsum) l.stage)
    p.layers;
  Buffer.contents b

let describe cfg p =
  let b = Buffer.create 256 in
  Printf.bprintf b "mesh %d x %d (pipeline x data-parallel), %d layers:\n"
    p.pp p.dp cfg.nlayers;
  Array.iteri
    (fun i l ->
      Printf.bprintf b "  layer %d: stage %d, act %-4s wgt %-5s%s\n" (i + 1)
        l.stage (act_name l.act) (wgt_name l.wgt)
        (if l.act = Row && l.wgt = Wrepl then " grad " ^ gsum_name l.gsum
         else ""))
    p.layers;
  Buffer.contents b

(* gsum only matters on replicated-weight data-parallel Row layers;
   pin it elsewhere so equal placements get equal keys. *)
let normalize p =
  {
    p with
    layers =
      Array.map
        (fun l ->
          if l.act = Row && l.wgt = Wrepl then l else { l with gsum = Tree })
        p.layers;
  }

let validate_config cfg =
  if cfg.procs < 1 then Error "procs must be >= 1"
  else if cfg.batch < 1 then Error "batch must be >= 1"
  else if cfg.dim < 1 then Error "dim must be >= 1"
  else if cfg.nlayers < 1 then Error "layers must be >= 1"
  else if cfg.batch mod cfg.procs <> 0 then
    Error
      (Printf.sprintf "batch %d must be a multiple of procs %d" cfg.batch
         cfg.procs)
  else Ok ()

let validate cfg p =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match validate_config cfg with
  | Error _ as e -> e
  | Ok () ->
      if p.dp < 1 || p.pp < 1 then err "mesh factors must be >= 1"
      else if p.dp * p.pp <> cfg.procs then
        err "mesh %d x %d does not factor procs %d" p.pp p.dp cfg.procs
      else if Array.length p.layers <> cfg.nlayers then
        err "placement has %d layer specs for %d layers"
          (Array.length p.layers) cfg.nlayers
      else if cfg.batch mod p.dp <> 0 then
        err "batch %d not a multiple of dp %d" cfg.batch p.dp
      else
        let bad = ref None in
        Array.iteri
          (fun i l ->
            if !bad = None then
              if l.stage < 0 || l.stage >= p.pp then
                bad :=
                  Some
                    (Printf.sprintf "layer %d: stage %d outside mesh of %d"
                       (i + 1) l.stage p.pp)
              else if i > 0 && l.stage < p.layers.(i - 1).stage then
                bad :=
                  Some
                    (Printf.sprintf
                       "layer %d: stage %d before layer %d's stage %d"
                       (i + 1) l.stage i
                       p.layers.(i - 1).stage)
              else if
                (l.act = Col || l.wgt = Wshard) && cfg.dim mod p.dp <> 0
              then
                bad :=
                  Some
                    (Printf.sprintf
                       "layer %d: %s needs dim %d divisible by dp %d" (i + 1)
                       (if l.act = Col then "act col" else "wgt shard")
                       cfg.dim p.dp))
          p.layers;
        (match !bad with Some m -> Error m | None -> Ok ())

let uniform_layers ~nlayers ~pp act wgt gsum =
  Array.init nlayers (fun i ->
      { stage = i * pp / nlayers; act; wgt; gsum })

let naive cfg =
  {
    dp = cfg.procs;
    pp = 1;
    layers = uniform_layers ~nlayers:cfg.nlayers ~pp:1 Repl Wrepl Tree;
  }

let hand cfg =
  {
    dp = cfg.procs;
    pp = 1;
    layers = uniform_layers ~nlayers:cfg.nlayers ~pp:1 Row Wrepl Tree;
  }

let meshes cfg =
  let ms = ref [] in
  for dp = 1 to cfg.procs do
    if cfg.procs mod dp = 0 then begin
      let pp = cfg.procs / dp in
      if pp <= cfg.nlayers then ms := (dp, pp) :: !ms
    end
  done;
  (* built ascending in dp, so the accumulator is largest-dp first *)
  !ms

let uniform cfg ~dp ~pp act wgt gsum =
  let p =
    normalize
      { dp; pp; layers = uniform_layers ~nlayers:cfg.nlayers ~pp act wgt gsum }
  in
  match validate cfg p with Ok () -> Some p | Error _ -> None

(* ------------------------------------------------------------------ *)
(* Communication descriptors: the one description of every movement
   Dlstack.build emits and [estimate] counts. *)

type side = {
  group : int option;
  peers : int;
  indexed : bool;
  rows : bool;
  cols : bool;
}

type pattern = Matched | All_pairs | Exchange | Rooted
type comm = { pattern : pattern; src : side; dst : side; extent : int * int }
type piece = Src_block | Dst_block | Whole

let act_side p (l : layer_spec) =
  {
    group = Some l.stage;
    peers = p.dp;
    indexed = l.act = Repl;
    rows = l.act = Row;
    cols = l.act = Col;
  }

(* IN and OUT: row blocks over the whole machine *)
let machine_side cfg =
  {
    group = None;
    peers = cfg.procs;
    indexed = false;
    rows = true;
    cols = false;
  }

let transfer cfg src dst =
  let matched =
    src.indexed
    || (src.indexed = dst.indexed && src.rows = dst.rows && src.cols = dst.cols)
  in
  {
    pattern = (if matched then Matched else All_pairs);
    src;
    dst;
    extent = (cfg.batch, cfg.dim);
  }

let boundary cfg p k =
  let side k =
    if k = 0 || k > Array.length p.layers then machine_side cfg
    else act_side p p.layers.(k - 1)
  in
  transfer cfg (side k) (side (k + 1))

(* the first processor of a side's group is [base + 1] *)
let base s = match s.group with None -> 0 | Some st -> st * s.peers

let local c =
  c.pattern = Matched && c.src.peers = c.dst.peers && base c.src = base c.dst

(* A feature vector on layer [l]'s stage: one copy per peer
   ([indexed]) or one shared, each peer's feature block or all. *)
let vec_side p (l : layer_spec) ~indexed ~cols =
  { group = Some l.stage; peers = p.dp; indexed; rows = false; cols }

let vector_comm cfg pattern src dst =
  { pattern; src; dst; extent = (1, cfg.dim) }

(* The receiver needs features beyond the block the sender holds. *)
let lacks ~held ~needed = held && not needed

(* The forward reads its own feature block (Col) or every feature. *)
let weights cfg p l =
  let held = l.wgt = Wshard and needed = l.act = Col in
  if lacks ~held ~needed then
    Some
      (vector_comm cfg Exchange
         (vec_side p l ~indexed:false ~cols:held)
         (vec_side p l ~indexed:true ~cols:needed))
  else None

(* Column sums of a Row layer are partial (its rows only) until every
   peer's are summed; a Col layer's are totals on its own features, a
   Repl layer's on all.  With one peer every partial is total. *)
let gradient cfg p l =
  let partial = l.act = Row in
  let held = l.act = Col and needed = l.wgt = Wshard in
  if p.dp = 1 || not (partial || lacks ~held ~needed) then None
  else
    let rooted = partial && l.wgt = Wrepl && l.gsum = Tree in
    Some
      (vector_comm cfg
         (if rooted then Rooted else Exchange)
         (vec_side p l ~indexed:true ~cols:held)
         (vec_side p l ~indexed:true ~cols:needed))

(* Per dimension, a message carries the finer of the two blocks: the
   intersection of what the sender holds and the receiver needs. *)
let pick c sb db =
  if sb && ((not db) || c.src.peers >= c.dst.peers) then Src_block
  else if db then Dst_block
  else Whole

let pieces c = (pick c c.src.rows c.dst.rows, pick c c.src.cols c.dst.cols)

let extent c n = function
  | Src_block -> n / c.src.peers
  | Dst_block -> n / c.dst.peers
  | Whole -> n

let count c =
  let s = c.src.peers and d = c.dst.peers and r, k = c.extent in
  let msgs =
    match c.pattern with
    | Matched -> if s > d then s else d
    | All_pairs -> s * d
    | Exchange -> s * (s - 1)
    | Rooted -> 2 * (s - 1)
  in
  let pr, pc = pieces c in
  (msgs, extent c r pr * extent c k pc)

(* [f] over every movement that moves data, in program order *)
let fold_comms f acc cfg p =
  let acc = ref acc in
  let add c = acc := f !acc c in
  let activations src dst =
    let b = transfer cfg src dst in
    if not (local b) then add b
  in
  let last =
    Array.fold_left
      (fun src l ->
        let dst = act_side p l in
        activations src dst;
        Option.iter add (weights cfg p l);
        Option.iter add (gradient cfg p l);
        dst)
      (machine_side cfg) p.layers
  in
  activations last (machine_side cfg);
  !acc

(* ------------------------------------------------------------------ *)
(* The estimator: Dlstack.build emits exactly the messages of [fold_comms]
   (including data-parallel self-messages, which the board delivers
   like any other), so the totals match executed Stats exactly — the
   exactness property in test_search.ml pins this. *)

type summary = {
  comm : Estimate.t;
  compute_elems : int;
  est_makespan : float;
}

(* Busiest processor's computed elements: within a stage every peer
   does the same amount, and the pipeline serializes stages. *)
let compute_elems cfg p =
  let b = cfg.batch and d = cfg.dim in
  Array.fold_left
    (fun acc l ->
      let fwd =
        match l.act with
        | Row -> b / p.dp * d
        | Col -> b * (d / p.dp)
        | Repl -> b * d
      in
      let upd = match l.wgt with Wshard -> d / p.dp | Wrepl -> d in
      (* forward multiply-add, gradient fold, weight update *)
      acc + (2 * fwd) + upd)
    0 p.layers

let estimate params cfg p =
  (match validate cfg p with
  | Ok () -> ()
  | Error e -> invalid_arg ("Space.estimate: " ^ e));
  let comm =
    fold_comms
      (fun acc c ->
        let count, elems = count c in
        Estimate.add acc (Estimate.messages params ~count ~elems))
      Estimate.zero cfg p
  in
  let ce = compute_elems cfg p in
  let est_makespan =
    (float_of_int ce
    *. ((2.0 *. params.Estimate.time_flop)
       +. (3.0 *. params.Estimate.time_mem)))
    +. (Estimate.transfer_time params comm /. float_of_int p.dp)
  in
  { comm; compute_elems = ce; est_makespan }
