(* Differential testing: random sequential programs are lowered and
   optimized, executed on the simulated SPMD machine at every pipeline
   stage, and compared bit-for-bit against the sequential reference
   interpreter.  This is the broadest semantics-preservation net in the
   suite: it covers lowering, local-communication elimination,
   localization, guard hoisting and binding jointly over random
   distributions, shifts, scalars and processor counts. *)

open Xdp.Ir
open Xdp.Build
module Exec = Xdp_runtime.Exec
module G = QCheck.Gen

type cfg = {
  nprocs : int;
  n : int;
  dist_x : Xdp_dist.Dist.t;
  dist_y : Xdp_dist.Dist.t;
  halved : bool;
      (** BLOCK arrays store each block as two segments, so localized
          loops cross a segment boundary inside the block *)
  stmts : spec list;
  spmd : local list;
      (** explicit per-processor statements appended to the optimized
          program; only the engine-parity property runs them *)
}

and spec =
  | Map of string * string * int * binop * float
      (** dst[i] = src[i+shift] op c over the legal range *)
  | Accum of string * binop * float  (** dst[i] = dst[i] op c *)
  | Scalar_mix of string * int
      (** s = src[k]; dst[i] = dst[i] + s *)

(* SPMD loop nests over the executing processor's own elements, the
   shapes the staged engine runs as strip kernels or must refuse to. *)
and local =
  | Sweep2 of {
      dst : string;
      src : string;
      di : int;
      dj : int;
      op : binop;
      negate : bool;
      rows : bool;  (** the inner loop runs down a column *)
      step : int;
    }
      (** over the own block of the rank-2 arrays, reads kept inside it:
          dst[i,j] = op(±src[i+di,j+dj], dst[i,j] * c) *)
  | Recur of string * float  (** x[i] = x[i-1] * c: loop-carried *)
  | Fold of string * string * float
      (** dst[k] = dst[k] * c + src[i] over src's own elements, k the
          first own element of dst: a store that does not move *)
  | Overrun of string * string * int
      (** dst[i] = src[i+d] * 2 for i up to one past the own range:
          a store (or read) of an unowned element.  Processor 1 only:
          when several processors abort, which one a fused turn reaches
          first need not be the one the interpreter reaches first *)
  | Overlap of { owner : bool; touch : bool }
      (** communication/computation overlap on a fresh rank-1 array H
          (two elements per processor, one per segment): each processor
          hands the value (or, with [owner], the ownership) of its
          last element to its successor and posts the matching
          receive, then runs a fused sweep over U and V while the
          receive is in flight, then awaits and uses the received
          element.  With [touch] the region also queries the receive
          target and updates another element of H, so its footprint
          meets the in-flight receive and it must fall back *)

let arrays = [ "X"; "Y" ]
let arrays2 = [ "U"; "V" ]

let gen_spec =
  G.(
    oneof
      [
        map2
          (fun (dst, src) (shift, (op, c)) -> Map (dst, src, shift, op, c))
          (pair (oneofl arrays) (oneofl arrays))
          (pair (int_range (-1) 1)
             (pair (oneofl [ Add; Sub; Mul ]) (float_range 0.5 2.5)));
        map2 (fun dst (op, c) -> Accum (dst, op, c)) (oneofl arrays)
          (pair (oneofl [ Add; Mul ]) (float_range 0.5 2.5));
        map2 (fun src k -> Scalar_mix (src, k)) (oneofl arrays)
          (int_range 1 4);
      ])

let gen_local =
  G.(
    frequency
      [
        ( 4,
          let* dst, src = pair (oneofl arrays2) (oneofl arrays2) in
          let* di, dj = pair (int_range (-1) 1) (int_range (-1) 1) in
          let* op = oneofl [ Add; Sub; Mul; Div; Min; Max ] in
          let* negate, rows = pair bool bool in
          let* step = int_range 1 2 in
          return (Sweep2 { dst; src; di; dj; op; negate; rows; step }) );
        ( 1,
          map2 (fun x c -> Recur (x, c)) (oneofl arrays) (float_range 0.5 1.5)
        );
        ( 1,
          map2
            (fun (dst, src) c -> Fold (dst, src, c))
            (pair (oneofl arrays) (oneofl arrays))
            (float_range 0.5 1.5) );
        ( 1,
          map2
            (fun (dst, src) d -> Overrun (dst, src, d))
            (pair (oneofl arrays) (oneofl arrays))
            (int_range 0 1) );
        (2, map2 (fun owner touch -> Overlap { owner; touch }) bool bool);
      ])

let gen_cfg =
  G.(
    let* nprocs = int_range 1 4 in
    let* mult = int_range 1 3 in
    let* dist_x = oneofl Xdp_dist.Dist.[ Block; Cyclic ] in
    let* dist_y = oneofl Xdp_dist.Dist.[ Block; Cyclic ] in
    let* halved = bool in
    let* stmts = list_size (int_range 1 3) gen_spec in
    let* spmd = list_size (int_range 0 3) gen_local in
    return
      { nprocs; n = 4 * nprocs * mult; dist_x; dist_y; halved; stmts; spmd })

let other dst = if dst = "X" then "Y" else "X"

let build_program cfg =
  let grid = Xdp_dist.Grid.linear cfg.nprocs in
  let decl1 name dist =
    let seg_shape =
      match dist with
      | Xdp_dist.Dist.Block when cfg.halved -> Some [ cfg.n / cfg.nprocs / 2 ]
      | _ -> None
    in
    decl ~name ~shape:[ cfg.n ] ~dist:[ dist ] ~grid ?seg_shape ()
  in
  let decls = [ decl1 "X" cfg.dist_x; decl1 "Y" cfg.dist_y ] in
  let iv = var "i" in
  let fresh = ref 0 in
  let body =
    List.concat_map
      (fun spec ->
        match spec with
        | Map (dst, src, shift, op, c) ->
            let src = if src = dst && shift = 0 then other dst else src in
            let lo = max 1 (1 - shift) and hi = min cfg.n (cfg.n - shift) in
            [
              loop "i" (i lo) (i hi)
                [
                  set dst [ iv ]
                    (Bin (op, elem src [ iv +: i shift ], f c));
                ];
            ]
        | Accum (dst, op, c) ->
            [
              loop "i" (i 1) (i cfg.n)
                [ set dst [ iv ] (Bin (op, elem dst [ iv ], f c)) ];
            ]
        | Scalar_mix (src, k) ->
            incr fresh;
            let s = Printf.sprintf "s%d" !fresh in
            let dst = other src in
            [
              setv s (elem src [ i k ]);
              loop "i" (i 1) (i cfg.n)
                [ set dst [ iv ] (elem dst [ iv ] +: var s) ];
            ])
      cfg.stmts
  in
  program ~name:"differential" ~decls body

(* The rank-2 arrays of the SPMD statements: 12 x 12, BLOCK x BLOCK
   over a processor grid whose shape the configuration picks. *)
let m2 = 12

let spmd_stmts cfg =
  let pr, pc =
    match cfg.nprocs with
    | 4 -> (2, 2)
    | p -> if cfg.n mod 8 = 0 then (1, p) else (p, 1)
  in
  let grid = Xdp_dist.Grid.make [ pr; pc ] in
  let iv = var "i" and jv = var "j" in
  let nh = ref 0 in
  let own a d = (mylb (sec a [ all; all ]) d, myub (sec a [ all; all ]) d) in
  let own1 a = (mylb (sec a [ all ]) 1, myub (sec a [ all ]) 1) in
  let shifted e d = if d = 0 then e else e +: i d in
  (* the distance between a processor's own elements of X or Y *)
  let stride1 a =
    match if a = "X" then cfg.dist_x else cfg.dist_y with
    | Xdp_dist.Dist.Cyclic -> cfg.nprocs
    | _ -> 1
  in
  let body =
    List.concat_map
      (function
        | Sweep2 { dst; src; di; dj; op; negate; rows; step } ->
            (* clip the range so src[i+di, j+dj] stays in the own block *)
            let range lo hi d =
              (lo +: i (max 0 (-d)), hi -: i (max 0 d))
            in
            let (rlo, rhi), (clo, chi) = (own dst 1, own dst 2) in
            let ilo, ihi = range rlo rhi di and jlo, jhi = range clo chi dj in
            let read = elem src [ shifted iv di; shifted jv dj ] in
            let rhs =
              Bin
                ( op,
                  (if negate then neg read else read),
                  elem dst [ iv; jv ] *: var "c" )
            in
            let store = set dst [ iv; jv ] rhs in
            if rows then
              [
                loop "j" jlo jhi [ loop_step "i" ilo ihi (i step) [ store ] ];
              ]
            else
              [
                loop "i" ilo ihi [ loop_step "j" jlo jhi (i step) [ store ] ];
              ]
        | Recur (x, c) ->
            let lo, hi = own1 x and st = stride1 x in
            [
              loop_step "i" (lo +: i st) hi (i st)
                [ set x [ iv ] (elem x [ iv -: i st ] *: f c) ];
            ]
        | Fold (dst, src, c) ->
            (* the first own element of dst, as plain mypid arithmetic *)
            let k =
              if stride1 dst = 1 then
                ((mypid -: i 1) *: i (cfg.n / cfg.nprocs)) +: i 1
              else mypid
            in
            let lo, hi = own1 src and st = stride1 src in
            [
              loop_step "i" lo hi (i st)
                [ set dst [ k ] ((elem dst [ k ] *: f c) +: elem src [ iv ]) ];
            ]
        | Overrun (dst, src, d) ->
            let lo, hi = own1 dst and st = stride1 dst in
            [
              (mypid =: i 1)
              @: [
                   loop_step "i" lo (hi +: i st) (i st)
                     [ set dst [ iv ] (elem src [ shifted iv d ] *: f 2.0) ];
                 ];
            ]
        | Overlap { owner; touch } ->
            incr nh;
            let h = Printf.sprintf "H%d" !nh in
            let hat e = esec h [ e ] in
            (* processor q owns h[2q-1] and h[2q]; [pred] is h[2q'] of
               its predecessor q' *)
            let last = i 2 *: mypid in
            let first = last -: i 1 in
            let pred =
              i 2 *: (((mypid +: i (cfg.nprocs - 2)) %: i cfg.nprocs) +: i 1)
            in
            let (rlo, rhi), (clo, chi) = (own "U" 1, own "U" 2) in
            let sweep =
              loop "i" rlo rhi
                [
                  loop "j" clo chi
                    [
                      set "U" [ iv; jv ]
                        ((elem "U" [ iv; jv ] *: var "c")
                        +: elem "V" [ iv; jv ]);
                    ];
                ]
            in
            let target, other, query =
              if owner then (pred, first, iown) else (first, last, accessible)
            in
            let region =
              if touch then
                [
                  sweep;
                  query (hat target)
                  @: [ set h [ other ] (elem h [ other ] *: var "c") ];
                ]
              else [ sweep ]
            in
            let post =
              if owner then
                [ send_owner_value (hat last); recv_owner_value (hat pred) ]
              else
                [ send (hat last); recv ~into:(hat first) ~from:(hat pred) ]
            in
            post @ region
            @ [
                await (hat target)
                @: [ set h [ target ] (elem h [ target ] +: f 1.0) ];
              ])
      cfg.spmd
  in
  let decls =
    List.map
      (fun name ->
        decl ~name ~shape:[ m2; m2 ]
          ~dist:Xdp_dist.Dist.[ Block; Block ]
          ~grid ())
      arrays2
    @ List.init !nh (fun k ->
          decl
            ~name:(Printf.sprintf "H%d" (k + 1))
            ~shape:[ 2 * cfg.nprocs ]
            ~dist:Xdp_dist.Dist.[ Block ]
            ~grid:(Xdp_dist.Grid.linear cfg.nprocs)
            ~seg_shape:[ 1 ] ())
  in
  (decls, if body = [] then [] else setv "c" (f 0.75) :: body)

(* The arrays the SPMD statements declare (compared by engine parity). *)
let spmd_arrays cfg =
  List.map (fun (d : array_decl) -> d.arr_name) (fst (spmd_stmts cfg))

(* The program the engine-parity property runs: the optimized program
   with the SPMD statements appended. *)
let with_spmd cfg (p : program) =
  let decls, body = spmd_stmts cfg in
  { p with decls = p.decls @ decls; body = p.body @ body }

let init name idx =
  match (name, idx) with
  | "X", [ i ] -> float_of_int i
  | "Y", [ i ] -> 0.5 +. float_of_int (3 * i)
  | "U", [ i; j ] -> float_of_int ((i * m2) + j) /. 7.0
  | "V", [ i; j ] -> 1.0 -. float_of_int ((j * m2) + i)
  | _, [ i ] -> 10.0 +. float_of_int i
  | _ -> 0.0

let print_cfg cfg =
  let decls, spmd = spmd_stmts cfg in
  Printf.sprintf "P=%d n=%d X:%s Y:%s%s\n%s%s" cfg.nprocs cfg.n
    (Xdp_dist.Dist.to_string cfg.dist_x)
    (Xdp_dist.Dist.to_string cfg.dist_y)
    (if cfg.halved then " halved" else "")
    (Xdp.Pp.program_to_string (build_program cfg))
    (if spmd = [] then ""
     else
       "// appended for engine parity:\n"
       ^ Xdp.Pp.program_to_string (program ~name:"spmd" ~decls spmd))

let stages =
  [
    ("lowered", fun p ~nprocs -> Xdp.Lower.run ~nprocs p);
    ("elim", fun p ~nprocs -> Xdp.Elim_comm.run (Xdp.Lower.run ~nprocs p));
    ( "localized",
      fun p ~nprocs ->
        Xdp.Localize.run (Xdp.Elim_comm.run (Xdp.Lower.run ~nprocs p)) );
    ( "full",
      fun p ~nprocs ->
        Xdp.Bind.run
          (Xdp.Hoist_guard.run
             (Xdp.Localize.run
                (Xdp.Elim_comm.run (Xdp.Lower.run ~nprocs p)))) );
    ("compile-driver", fun p ~nprocs -> (Xdp.Compile.optimize ~nprocs p).compiled);
  ]

let check_cfg cfg =
  let p = build_program cfg in
  let reference = Xdp_runtime.Seq.run ~init p in
  List.for_all
    (fun (label, compile) ->
      let compiled = compile p ~nprocs:cfg.nprocs in
      let r = Exec.run ~init ~nprocs:cfg.nprocs compiled in
      List.for_all
        (fun arr ->
          let ok =
            Xdp_util.Tensor.equal ~eps:1e-9
              (Exec.array r arr)
              (Xdp_runtime.Seq.array reference arr)
          in
          if not ok then
            QCheck.Test.fail_reportf "stage %s: array %s differs\n%s" label
              arr (print_cfg cfg);
          ok)
        arrays)
    stages

let prop_differential =
  QCheck.Test.make ~name:"all pipeline stages match the reference" ~count:60
    (QCheck.make ~print:print_cfg gen_cfg)
    check_cfg

(* Same property under an unreliable network: the fully optimized
   program, run through the reliable transport with a fault plan
   derived from the configuration, must still match the sequential
   reference bit for bit.  Plans stay in the eventual-delivery class
   (small deliver_after), so termination is guaranteed. *)
let fault_of_cfg cfg =
  let g = Xdp_util.Prng.stream 0x0DD5 [ Hashtbl.hash cfg ] in
  Xdp_net.Faultplan.make
    ~seed:(Xdp_util.Prng.int g 1_000_000)
    ~drop:(Xdp_util.Prng.float_in g 0.0 0.4)
    ~dup:(Xdp_util.Prng.float_in g 0.0 0.25)
    ~jitter:(Xdp_util.Prng.float_in g 0.0 0.5)
    ~deliver_after:(Xdp_util.Prng.int_in g 0 4)
    ()

let check_cfg_faulty cfg =
  let p = build_program cfg in
  let reference = Xdp_runtime.Seq.run ~init p in
  let compiled = (Xdp.Compile.optimize ~nprocs:cfg.nprocs p).compiled in
  let fault = fault_of_cfg cfg in
  let r = Exec.run ~init ~nprocs:cfg.nprocs ~fault compiled in
  List.for_all
    (fun arr ->
      let ok =
        Xdp_util.Tensor.equal ~eps:1e-9
          (Exec.array r arr)
          (Xdp_runtime.Seq.array reference arr)
      in
      if not ok then
        QCheck.Test.fail_reportf "faulty run (%s): array %s differs\n%s"
          (Xdp_net.Faultplan.describe fault)
          arr (print_cfg cfg);
      ok)
    arrays

let prop_differential_faulty =
  QCheck.Test.make
    ~name:"compiled stage matches the reference under fault plans" ~count:40
    (QCheck.make ~print:print_cfg gen_cfg)
    check_cfg_faulty

(* Engine parity: the staged engine (Precompile closures) must be
   observably identical to the tree-walking interpreter — same arrays
   bit for bit, the same stats record field for field (guard_evals,
   statements, per-processor busy/finish clocks, ...) and the same
   trace, every event in order, across cost models and including
   faulty runs.  The staged engine runs twice: with superinstruction
   fusion and without it (what XDP_NO_FUSE selects), so a fused region
   that ran in one turn while a receive was in flight must leave
   exactly the trace the statement-at-a-time schedule leaves.  This is
   the headline property of the staged engine. *)

(* Delivery events with their clocks at 1e-6 precision: the printed
   trace rounds clocks to 0.1, so under jittered fault plans deliveries
   are also compared through this finer rendering. *)
let digest_deliveries (tr : Xdp_sim.Trace.t) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Xdp_sim.Trace.event) ->
      match e with
      | Xdp_sim.Trace.Delivered { time; src; dst; name; kind; bytes } ->
          Buffer.add_string buf
            (Printf.sprintf "%.6f|%d|%d|%s|%s|%d\n" time src dst name kind
               bytes)
      | _ -> ())
    (Xdp_sim.Trace.events tr);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let cost_models =
  [
    ("message-passing", Xdp_sim.Costmodel.message_passing);
    ("shared-address", Xdp_sim.Costmodel.shared_address);
    ("idealized", Xdp_sim.Costmodel.idealized);
  ]

(* A misuse diagnostic reduced to its processor and text ("P2 at t=...
   in prog: msg" becomes "P2: msg"): under jittered fault plans the
   two engines' clocks may differ in the last bits. *)
let without_clock msg =
  match (String.index_opt msg ' ', String.index_opt msg ':') with
  | Some a, Some b when a < b ->
      String.sub msg 0 a ^ String.sub msg b (String.length msg - b)
  | _ -> msg

let staged ~fuse ~cost p =
  Xdp_runtime.Precompile.compile ~fuse ~cost ~kernels:Xdp.Kernels.default
    ~scalars:[] p

let check_engine_pair cfg ~label ?fault ~cost ~cost_name () =
  let p = build_program cfg in
  let compiled =
    with_spmd cfg (Xdp.Compile.optimize ~nprocs:cfg.nprocs p).compiled
  in
  let go ?staged engine =
    match
      Exec.run ~engine ?staged ~cost ?fault ~init ~nprocs:cfg.nprocs
        ~trace:true compiled
    with
    | r -> Ok r
    | exception Exec.Xdp_misuse m -> Error m
  in
  let events (r : Exec.result) = Xdp_sim.Trace.events r.trace in
  let check_leg leg reference outcome =
    let fail msg =
      QCheck.Test.fail_reportf "engines differ (%s, %s, %s): %s\n%s" label
        cost_name leg msg (print_cfg cfg)
    in
    match (reference, outcome) with
    | Error a, Error b ->
        let a, b =
          if fault = None then (a, b) else (without_clock a, without_clock b)
        in
        if a <> b then fail (Printf.sprintf "misuse %S vs %S" a b)
    | Ok _, Error m | Error m, Ok _ ->
        fail (Printf.sprintf "only one engine raised misuse %S" m)
    | Ok ri, Ok rc -> (
        List.iter
          (fun arr ->
            if
              not
                (Xdp_util.Tensor.equal ~eps:0.0 (Exec.array ri arr)
                   (Exec.array rc arr))
            then fail (Printf.sprintf "array %s" arr))
          (arrays @ if cfg.spmd = [] then [] else spmd_arrays cfg);
        (* the whole stats record and trace: counts exactly, clocks bit
           for bit on fault-free runs (dyadic per-op costs make batched
           charging exact); fault jitter introduces non-dyadic clock
           bases, so there compare clocks to a tolerance (makespan),
           to 1e-6 (deliveries) or to the trace's printed precision
           (every other event), and the rest exactly *)
        match fault with
        | None ->
            if ri.stats <> rc.stats then fail "stats records";
            if events ri <> events rc then fail "trace events"
        | Some _ ->
            let s1 = ri.stats and s2 = rc.stats in
            if
              abs_float
                (s1.Xdp_sim.Trace.makespan -. s2.Xdp_sim.Trace.makespan)
              > 1e-6 *. Float.max 1.0 s1.Xdp_sim.Trace.makespan
            then
              fail
                (Printf.sprintf "makespan %f vs %f" s1.Xdp_sim.Trace.makespan
                   s2.Xdp_sim.Trace.makespan);
            let counters (s : Xdp_sim.Trace.stats) =
              { s with makespan = 0.0; busy = [||]; finish = [||] }
            in
            if counters s1 <> counters s2 then fail "stats counters";
            let render r =
              List.map (Format.asprintf "%a" Xdp_sim.Trace.pp_event) (events r)
            in
            if render ri <> render rc then fail "trace events";
            if digest_deliveries ri.trace <> digest_deliveries rc.trace then
              fail "delivery trace digests")
  in
  let reference = go `Interp in
  check_leg "fused" reference
    (go ~staged:(staged ~fuse:true ~cost compiled) `Compiled);
  check_leg "unfused" reference
    (go ~staged:(staged ~fuse:false ~cost compiled) `Compiled);
  true

let check_cfg_engines cfg =
  List.for_all
    (fun (cost_name, cost) ->
      check_engine_pair cfg ~label:"fault-free" ~cost ~cost_name ())
    cost_models
  && check_engine_pair cfg ~label:"faulty"
       ~fault:(fault_of_cfg cfg)
       ~cost:Xdp_sim.Costmodel.message_passing ~cost_name:"message-passing"
       ()

let prop_engines =
  QCheck.Test.make
    ~name:"staged engine is bit-identical to the interpreter" ~count:40
    (QCheck.make ~print:print_cfg gen_cfg)
    check_cfg_engines

(* Fatal fault plans: a crash-stopped processor or a permanently dead
   link pushes some transfer past the transport's retry budget, so the
   run aborts with Link_failed (or deadlocks, or — when the program
   never touches the dead path — completes).  The staged engine must
   abort *identically* to the interpreter: same exception constructor
   with the same diagnostic (which names the pending links and
   sections, i.e. the same statement was in flight when the run died).
   This pins the fused runner's abort points: a superinstruction that
   crossed an abortable boundary would either finish statements the
   interpreter never reached or die naming different pending state.
   Plans carry no jitter, so completed runs must match bit for bit,
   stats record included. *)

let fatal_fault_of_cfg cfg ~makespan =
  let g = Xdp_util.Prng.stream 0x0DD5 [ Hashtbl.hash cfg; 0xFA7A ] in
  if Xdp_util.Prng.bool g || cfg.nprocs = 1 then
    (* crash-stop: one NIC goes dark mid-run *)
    let pid = Xdp_util.Prng.int_in g 0 (cfg.nprocs - 1) in
    let t = Xdp_util.Prng.float_in g 0.1 0.9 *. makespan in
    Xdp_net.Faultplan.make ~crashes:[ (pid, t) ] ()
  else
    (* one link drops every packet forever, past eventual delivery *)
    let src = Xdp_util.Prng.int_in g 0 (cfg.nprocs - 1) in
    let dst = (src + Xdp_util.Prng.int_in g 1 (cfg.nprocs - 1)) mod cfg.nprocs in
    Xdp_net.Faultplan.make
      ~links:
        [ ((src, dst), { Xdp_net.Faultplan.reliable with drop = 1.0 }) ]
      ~deliver_after:1_000_000 ()

let run_outcome engine p cfg fault =
  match Exec.run ~engine ~fault ~init ~nprocs:cfg.nprocs p with
  | r -> `Done (List.map (fun a -> Exec.array r a) arrays, r.Exec.stats)
  | exception Xdp_net.Transport.Link_failed m -> `Link_failed m
  | exception Exec.Deadlock m -> `Deadlock m

let check_cfg_fatal cfg =
  let p = build_program cfg in
  let compiled = (Xdp.Compile.optimize ~nprocs:cfg.nprocs p).compiled in
  let clean = Exec.run ~init ~nprocs:cfg.nprocs compiled in
  let fault =
    fatal_fault_of_cfg cfg ~makespan:clean.Exec.stats.Xdp_sim.Trace.makespan
  in
  let fail msg =
    QCheck.Test.fail_reportf "fatal-fault outcomes differ (%s): %s\n%s"
      (Xdp_net.Faultplan.describe fault)
      msg (print_cfg cfg)
  in
  (match
     ( run_outcome `Interp compiled cfg fault,
       run_outcome `Compiled compiled cfg fault )
   with
  | `Link_failed a, `Link_failed b ->
      if a <> b then fail (Printf.sprintf "Link_failed %S vs %S" a b)
  | `Deadlock a, `Deadlock b ->
      if a <> b then fail (Printf.sprintf "Deadlock %S vs %S" a b)
  | `Done (ta, sa), `Done (tb, sb) ->
      if not (List.for_all2 (Xdp_util.Tensor.equal ~eps:0.0) ta tb) then
        fail "completed with different tensors";
      if sa <> sb then fail "completed with different stats records"
  | a, b ->
      let label = function
        | `Done _ -> "completed"
        | `Link_failed m -> Printf.sprintf "Link_failed %S" m
        | `Deadlock m -> Printf.sprintf "Deadlock %S" m
      in
      fail (Printf.sprintf "%s vs %s" (label a) (label b)));
  true

let prop_fatal_faults =
  QCheck.Test.make
    ~name:"engines abort identically under crash-stop and dead links"
    ~count:40
    (QCheck.make ~print:print_cfg gen_cfg)
    check_cfg_fatal

(* ---- redistribution planner (DESIGN.md §10): the collective
   lowering must be observationally pure performance.  For random
   machine sizes, slab depths and budgets, the planned redistflow
   all-to-all must leave the array bit-identical to the naive lowering
   and to the analytic reference — on both engines, across cost
   models, and under eventual-delivery fault plans — and whenever the
   planner reports a feasible in-budget schedule, the *measured* peak
   in-flight bytes must actually stay within that budget. *)

module Redistflow = Xdp_apps.Redistflow
module Plan_redist = Xdp.Plan_redist
module Collective = Xdp_dist.Collective

type rcfg = { r_nprocs : int; r_n : int; r_m : int; r_div : int }

let print_rcfg c =
  Printf.sprintf "redistflow P=%d n=%d m=%d budget_div=%d" c.r_nprocs c.r_n
    c.r_m c.r_div

let gen_rcfg =
  G.(
    let* p = int_range 2 8 in
    (* powers of two exercise the Exchange shape; the rest fall back
       to Ring / Gather_scatter *)
    let* mult = int_range 1 3 in
    let* m = int_range 1 2 in
    let* div = oneofl [ 0; 2; 4 ] in
    return { r_nprocs = p; r_n = p * mult; r_m = m; r_div = div })

let rcfg_budget c =
  if c.r_div = 0 then 0
  else
    let mp = Xdp_sim.Costmodel.message_passing in
    let moves =
      Xdp_dist.Redistribution.plan
        ~src:(Redistflow.layout_before ~n:c.r_n ~m:c.r_m ~nprocs:c.r_nprocs)
        ~dst:(Redistflow.layout_after ~n:c.r_n ~m:c.r_m ~nprocs:c.r_nprocs)
    in
    max 1
      (Collective.naive_peak ~nprocs:c.r_nprocs
         ~elem_bytes:mp.Xdp_sim.Costmodel.elem_bytes
         ~header_bytes:mp.Xdp_sim.Costmodel.header_bytes moves
      / c.r_div)

let check_rcfg c =
  let budget = rcfg_budget c in
  let reference = Redistflow.reference ~n:c.r_n ~m:c.r_m () in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> QCheck.Test.fail_reportf "%s: %s" (print_rcfg c) msg)
      fmt
  in
  let build strategy =
    Redistflow.build_info ~n:c.r_n ~nprocs:c.r_nprocs ~m:c.r_m ~strategy ()
  in
  let naive_prog, _ = build `Naive in
  let planned_prog, info =
    build (`Collectives { Plan_redist.peak_budget = budget })
  in
  let info = Option.get info in
  let check_identical label (r : Exec.result) =
    if
      not
        (Xdp_util.Tensor.equal ~eps:0.0 (Exec.array r "A") reference)
    then fail "%s: tensor differs from reference" label
  in
  (* both engines, two cost models, naive and planned *)
  List.iter
    (fun (engine, elabel) ->
      List.iter
        (fun (cost, clabel) ->
          check_identical
            (Printf.sprintf "naive %s %s" elabel clabel)
            (Exec.run ~engine ~cost ~init:Redistflow.init ~nprocs:c.r_nprocs
               naive_prog);
          let r =
            Exec.run ~engine ~cost ~init:Redistflow.init
              ~redist_stages:info.Plan_redist.stages ~nprocs:c.r_nprocs
              planned_prog
          in
          check_identical (Printf.sprintf "planned %s %s" elabel clabel) r;
          (* the budget invariant is judged under the cost model the
             planner's default params mirror *)
          if
            clabel = "mp" && info.Plan_redist.feasible && budget > 0
            && Xdp_sim.Trace.max_peak_inflight r.Exec.stats > budget
          then
            fail "planned %s: measured peak %dB exceeds budget %dB" elabel
              (Xdp_sim.Trace.max_peak_inflight r.Exec.stats)
              budget;
          if r.Exec.stats.Xdp_sim.Trace.redist_stages <> info.Plan_redist.stages
          then fail "planned %s: stats lost the stage count" elabel)
        [
          (Xdp_sim.Costmodel.message_passing, "mp");
          (Xdp_sim.Costmodel.idealized, "ideal");
        ])
    [ (`Interp, "interp"); (`Compiled, "compiled") ];
  (* and under an eventual-delivery fault plan *)
  let fault =
    let g = Xdp_util.Prng.stream 0x2ED1 [ c.r_nprocs; c.r_n; c.r_m; c.r_div ] in
    Xdp_net.Faultplan.make
      ~seed:(Xdp_util.Prng.int g 1_000_000)
      ~drop:(Xdp_util.Prng.float_in g 0.0 0.3)
      ~dup:(Xdp_util.Prng.float_in g 0.0 0.2)
      ~jitter:(Xdp_util.Prng.float_in g 0.0 0.4)
      ~deliver_after:(Xdp_util.Prng.int_in g 0 3)
      ()
  in
  check_identical "planned faulty"
    (Exec.run ~fault ~init:Redistflow.init
       ~redist_stages:info.Plan_redist.stages ~nprocs:c.r_nprocs planned_prog);
  true

let prop_redist_planner =
  QCheck.Test.make
    ~name:"planned redistribution is bit-identical and within budget"
    ~count:25
    (QCheck.make ~print:print_rcfg gen_rcfg)
    check_rcfg

(* A couple of fixed regression seeds that exercise every spec form. *)
let test_fixed_cases () =
  List.iter
    (fun cfg -> Alcotest.(check bool) "matches" true (check_cfg cfg))
    [
      {
        nprocs = 3;
        n = 12;
        dist_x = Xdp_dist.Dist.Block;
        dist_y = Xdp_dist.Dist.Cyclic;
        halved = false;
        stmts =
          [
            Map ("X", "Y", 1, Add, 1.5);
            Scalar_mix ("X", 4);
            Accum ("Y", Mul, 2.0);
          ];
        spmd = [];
      };
      {
        nprocs = 4;
        n = 16;
        dist_x = Xdp_dist.Dist.Cyclic;
        dist_y = Xdp_dist.Dist.Cyclic;
        halved = false;
        stmts = [ Map ("Y", "X", -1, Mul, 0.5); Map ("X", "Y", 0, Sub, 1.0) ];
        spmd = [];
      };
      {
        nprocs = 1;
        n = 4;
        dist_x = Xdp_dist.Dist.Block;
        dist_y = Xdp_dist.Dist.Block;
        halved = false;
        stmts = [ Scalar_mix ("Y", 2) ];
        spmd = [];
      };
    ]

(* Fixed engine-parity cases for the strip kernels: every column loop
   of the SPMD sweeps gets a strip form, and the runs that take them,
   refuse them (loop-carried reads, segment edges, misuse) or abort
   must match the interpreter exactly. *)
let test_fixed_strips () =
  let sweep ?(negate = false) ?(rows = false) ?(step = 1) dst src di dj op =
    Sweep2 { dst; src; di; dj; op; negate; rows; step }
  in
  let base =
    {
      nprocs = 4;
      n = 16;
      dist_x = Xdp_dist.Dist.Block;
      dist_y = Xdp_dist.Dist.Block;
      halved = true;
      stmts = [ Map ("X", "Y", -1, Add, 1.5); Scalar_mix ("Y", 3) ];
      spmd = [];
    }
  in
  List.iter
    (fun cfg ->
      let p =
        with_spmd cfg
          (Xdp.Compile.optimize ~nprocs:cfg.nprocs (build_program cfg))
            .compiled
      in
      let fs =
        Xdp_runtime.Precompile.fusion_stats
          (staged ~fuse:true ~cost:Xdp_sim.Costmodel.message_passing p)
      in
      let sweeps =
        List.length
          (List.filter (function Sweep2 _ -> true | _ -> false) cfg.spmd)
      in
      Alcotest.(check bool)
        "every sweep has a strip form" true
        (fs.Xdp_runtime.Precompile.fs_strip_loops >= sweeps);
      Alcotest.(check bool) "engines agree" true (check_cfg_engines cfg))
    [
      {
        base with
        halved = false;
        spmd =
          [
            sweep "U" "V" 1 0 Add;
            sweep ~negate:true "V" "U" 0 (-1) Div;
            sweep ~rows:true ~step:2 "U" "V" (-1) 1 Min;
            sweep "V" "U" 0 0 Max;
            Recur ("X", 1.25);
            Fold ("Y", "X", 0.5);
            Fold ("X", "X", 1.5);
          ];
      };
      {
        base with
        nprocs = 3;
        n = 24;
        spmd =
          [
            sweep ~negate:true ~rows:true "U" "U" (-1) 0 Sub;
            sweep ~negate:true "V" "V" 0 (-1) Mul;
            sweep ~rows:true "V" "V" 1 1 Add;
          ];
      };
      {
        base with
        spmd = [ sweep ~step:2 "U" "V" 0 1 Mul; Overrun ("X", "Y", 0) ];
      };
      { base with halved = false; spmd = [ Overrun ("Y", "X", 1) ] };
    ]

(* Fixed overlap cases: while a value or ownership receive into H is
   in flight, a fused region over U and V alone must still run in one
   turn (no fallback), and a region that also touches H must fall back
   to statement-at-a-time turns; either way all three executions agree
   (engine parity, above).  The main program is a local update, so the
   overlap shapes are the only receives of the run. *)
let test_fixed_overlap () =
  List.iter
    (fun (owner, touch, nprocs) ->
      let cfg =
        {
          nprocs;
          n = 4 * nprocs;
          dist_x = Xdp_dist.Dist.Block;
          dist_y = Xdp_dist.Dist.Cyclic;
          halved = false;
          stmts = [ Accum ("X", Add, 1.0) ];
          spmd = [ Overlap { owner; touch } ];
        }
      in
      let p =
        with_spmd cfg
          (Xdp.Compile.optimize ~nprocs (build_program cfg)).compiled
      in
      let cost = Xdp_sim.Costmodel.message_passing in
      let r =
        Exec.run ~engine:`Compiled ~staged:(staged ~fuse:true ~cost p) ~cost
          ~init ~nprocs p
      in
      let what =
        Printf.sprintf "%s receive, region %s H, P=%d"
          (if owner then "ownership" else "value")
          (if touch then "touching" else "disjoint from")
          nprocs
      in
      let f = r.Exec.fusion in
      if touch then
        Alcotest.(check bool) (what ^ ": falls back") true
          (f.Exec.fallback_regions > 0)
      else begin
        Alcotest.(check int) (what ^ ": no fallback") 0 f.Exec.fallback_regions;
        Alcotest.(check bool) (what ^ ": fuses") true (f.Exec.fused_turns > 0)
      end;
      Alcotest.(check bool) (what ^ ": engines agree") true
        (check_cfg_engines cfg))
    [
      (false, false, 4);
      (false, true, 4);
      (true, false, 4);
      (true, true, 4);
      (false, false, 2);
      (true, true, 3);
    ]

let () =
  Alcotest.run "differential"
    [
      ( "pipeline vs reference",
        [
          Alcotest.test_case "fixed strip cases" `Quick test_fixed_strips;
          Alcotest.test_case "fixed overlap cases" `Quick test_fixed_overlap;
          Alcotest.test_case "fixed cases" `Quick test_fixed_cases;
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_differential_faulty;
          QCheck_alcotest.to_alcotest prop_engines;
          QCheck_alcotest.to_alcotest prop_fatal_faults;
        ] );
      ( "redistribution planner",
        [ QCheck_alcotest.to_alcotest prop_redist_planner ] );
    ]
