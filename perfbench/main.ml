(* The repository benchmark: one closed-loop client in one process.

   Three workloads stress different layers (README.md beside this file
   says why each was chosen and what each layer metric should move):

   - [stencil]: one operation at a time, jacobi2d halo sweeps and
     pipelined fft3d — the staged engine's fusion and specialized loops
     do the work; the message board sees few messages.
   - [alltoall]: one operation at a time, P^2 redistributions and a
     replicated dlstack step at P = 64..128 — scheduler, board and
     per-processor staged state dominate time and memory.
   - [campaign]: one [Service.run] over a generated manifest of many
     short jobs across every app, cost model, fault plan, NIC arity and
     placement, on [workers] Domains — per-job overhead dominates.

   BENCHMARK.json gates [stencil] and [campaign]; [alltoall] is run by
   hand, because its memory-bound timings follow the neighbours'
   memory traffic on a shared host too closely to guard a bound.

   A run sets the workload up several times (reporting the median as
   [setup_s]), then repeats the workload's round of operations until
   [--seconds] have passed.  Every operation is verified against the
   sequential reference, and every repeat of one spec must reproduce
   its simulated figures exactly.  [--trace 1] records spans around
   the layer calls and reports per-layer figures instead of the
   end-to-end ones.  The last line of standard output is the result
   object. *)

module M = Xdp_batch.Manifest
module W = Xdp_batch.Workload
module J = Xdp_util.Jsonw
module Trace = Xdp_sim.Trace

let now = Spans.now

(* ---------- arguments and environment ---------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let workers = ref (Domain.recommended_domain_count ())
let rev = ref "unknown"
let out_dir = ref "perfbench/out"

let args =
  [
    ("--workload", Arg.Set_string workload, " stencil | alltoall | campaign");
    ("--seed", Arg.Set_int seed, " workload seed (draws, order, fault seeds)");
    ("--seconds", Arg.Set_float seconds, " how long the timed part runs");
    ("--trace", Arg.Set_int trace, " 1 = per-layer traced run");
    ("--workers", Arg.Set_int workers, " campaign Domain workers (default nproc)");
    ("--rev", Arg.Set_string rev, " source revision recorded in env");
    ("--out", Arg.Set_string out_dir, " directory for the full result file");
  ]

let read_lines path =
  try
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  with Sys_error _ -> []

(* The kB figure of a "Key:   123 kB" line of a /proc file. *)
let proc_kb path key =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix:(key ^ ":") l then
        Scanf.sscanf_opt
          (String.sub l (String.length key + 1)
             (String.length l - String.length key - 1))
          " %d" Fun.id
      else None)
    (read_lines path)
  |> Option.value ~default:0

let env () =
  J.Obj
    [
      ("cores", J.Int (Domain.recommended_domain_count ()));
      ("ram_mb", J.Int (proc_kb "/proc/meminfo" "MemTotal" / 1024));
      ("ocaml", J.Str Sys.ocaml_version);
      ("rev", J.Str !rev);
      ("workload", J.Str !workload);
      ("seed", J.Int !seed);
      ("workers", J.Int (if !workload = "campaign" then !workers else 1));
      ("seconds", J.Float !seconds);
      ("trace", J.Bool (!trace = 1));
    ]

(* ---------- small statistics ---------- *)

let sorted l = List.sort compare l

(* nearest-rank quantile of a non-empty sorted array *)
let quantile a q =
  let n = Array.length a in
  a.(Int.max 0 (Int.min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let median l = quantile (Array.of_list (sorted l)) 0.5
let least = List.fold_left Float.min infinity
let sumf = List.fold_left ( +. ) 0.0
let sumi f = List.fold_left (fun a x -> a + f x) 0

let geomean = function
  | [] -> 0.0
  | l -> exp (sumf (List.map log l) /. float (List.length l))

(* ---------- workloads ---------- *)

let d = M.default_spec

(* [stencil] and [alltoall] run a fixed set of specs; a round is one
   pass over [round] (indices into [specs]) in a seeded order. *)
let stencil_specs =
  [|
    { d with app = "jacobi2d"; stage = "halo"; n = 256; procs = 4; sweeps = 6 };
    { d with app = "fft3d"; stage = "pipelined"; n = 16; procs = 8 };
  |]

(* 3 jacobi2d : 5 fft3d keeps the latency median inside the fft3d
   cluster and the 90th percentile inside the jacobi2d one, so neither
   sits on the boundary between the two. *)
let stencil_round = [| 0; 0; 0; 1; 1; 1; 1; 1 |]

let alltoall_specs =
  [|
    { d with app = "redist"; redist = "naive"; n = 128; procs = 64 };
    {
      d with
      app = "redist";
      redist = "collectives";
      n = 256;
      procs = 128;
      redist_budget = 2540;
    };
    {
      d with
      app = "dlstack";
      placement = "naive";
      n = 128;
      procs = 64;
      dim = 64;
      layers = 6;
    };
  |]

let alltoall_round = [| 0; 1; 2 |]

let costs = [| "message_passing"; "shared_address"; "idealized"; "nic_compute" |]

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The campaign manifest.  Its shape is fixed — every app and stage,
   the four cost models in turn, fault plans, NIC arities, the three
   dlstack placements — so the work per round does not depend on the
   seed; the seed draws the fault seeds and the job order.  (Drawing
   the cost models too moved the campaign's geometric-mean makespan by
   about 5 % from seed to seed.) *)
let campaign_specs rng =
  let faulty ~drop (s : M.spec) count =
    List.init count (fun _ ->
        ( `Fixed,
          {
            s with
            drop;
            dup = 0.05;
            jitter = 0.2;
            fault_seed = 1 + Random.State.int rng 1_000_000;
          } ))
  in
  let each app stages (s : M.spec) =
    List.map (fun stage -> (`Rotate, { s with app; stage })) stages
  in
  let templates =
    List.concat
      [
        each "vecadd" [ "naive"; "elim"; "localized"; "bound" ] { d with n = 64 };
        [ (`Rotate, { d with app = "vecadd"; stage = "bound"; n = 64; misaligned = true }) ];
        each "fft3d" [ "baseline"; "localized"; "fused"; "pipelined" ] { d with n = 8 };
        faulty ~drop:0.0 { d with app = "fft3d"; stage = "pipelined"; n = 8 } 24;
        each "jacobi" [ "naive"; "elim"; "auto-halo"; "halo" ] { d with n = 32; sweeps = 2 };
        faulty ~drop:0.1 { d with app = "jacobi"; stage = "halo"; n = 32; sweeps = 2; timeout = Some 5000.0 } 8;
        each "jacobi2d" [ "halo" ] { d with n = 16; sweeps = 2 };
        each "jacobi2d" [ "halo" ] { d with n = 24; sweeps = 2 };
        each "reduce" [ "naive"; "partial" ] { d with n = 32; procs = 8 };
        List.map
          (fun nic_arity ->
            ( `Fixed,
              { d with app = "reduce"; stage = "nic"; n = 32; procs = 8;
                       cost = "nic_compute"; nic_arity } ))
          [ 2; 3; 4 ];
        each "farm" [ "static"; "dynamic" ] { d with n = 24 };
        List.map
          (fun (redist, redist_budget) ->
            (`Rotate, { d with app = "redist"; n = 16; procs = 8; redist; redist_budget }))
          [ ("naive", 0); ("collectives", 0); ("collectives", 600) ];
        List.map
          (fun placement ->
            (`Rotate, { d with app = "dlstack"; n = 32; procs = 4; dim = 8; layers = 3; placement }))
          [ "naive"; "hand"; "search" ];
        [ (`Rotate, { d with app = "dlstack"; n = 32; procs = 4; dim = 8; layers = 3;
                             shard = "row"; wshard = "shard" }) ];
        (* repeats of one program: the staging cache's hits.  The
           counts put the median job's latency inside the jacobi halo
           cluster, not on the gap below it. *)
        List.concat_map
          (fun (s, count) -> List.init count (fun _ -> (`Fixed, s)))
          [
            ({ d with app = "jacobi"; stage = "halo"; n = 64; sweeps = 4 }, 16);
            ({ d with app = "jacobi2d"; stage = "halo"; n = 32; sweeps = 3 }, 16);
            ({ d with app = "vecadd"; stage = "bound"; n = 256 }, 4);
            ({ d with app = "farm"; stage = "dynamic"; n = 24 }, 8);
          ];
      ]
  in
  let specs =
    List.mapi
      (fun i (mode, (s : M.spec)) ->
        match mode with
        | `Fixed -> s
        | `Rotate -> { s with cost = costs.(i mod Array.length costs) })
      templates
  in
  Array.to_list (shuffle rng (Array.of_list specs))

(* A workload after set-up: its validated specs with their references
   (and, for the campaign, the job list handed to the service). *)
type plan = {
  specs : (M.spec * Ops.expect) array;
  round : int array;
  jobs : M.job array;
}

let setup name =
  let rng = Random.State.make [| !seed |] in
  let refs = Hashtbl.create 64 in
  let prepare specs =
    Array.map
      (fun s ->
        let s = Ops.ok_or_fail (W.check_spec s) in
        match Hashtbl.find_opt refs s with
        | Some want -> (s, want)
        | None ->
            let want = Ops.reference s in
            Hashtbl.add refs s want;
            (s, want))
      specs
  in
  match name with
  | "stencil" ->
      { specs = prepare stencil_specs; round = stencil_round; jobs = [||] }
  | "alltoall" ->
      { specs = prepare alltoall_specs; round = alltoall_round; jobs = [||] }
  | "campaign" ->
      let specs = prepare (Array.of_list (campaign_specs rng)) in
      {
        specs;
        round = Array.init (Array.length specs) Fun.id;
        jobs = M.jobs_of_specs (Array.to_list (Array.map fst specs));
      }
  | w -> failwith ("unknown workload '" ^ w ^ "' (stencil, alltoall, campaign)")

(* ---------- measured state of a run ---------- *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : int;  (** repeats whose simulated figures differ *)
  mutable latencies_ms : float list;
  by_app : (string, float list) Hashtbl.t;  (** latencies per app/stage *)
  mutable round_walls : float list;
      (** untraced rounds: operation rounds, or service runs *)
  mutable traced_walls : float list;
  best : float array;  (** least untraced latency of each spec, ms *)
  best_traced : float array;  (** the same over traced rounds *)
  mutable overhead_s : float;  (** traced minus untraced wall *)
  mutable acc_units : int;  (** rounds or replays [acc] summed over *)
  outcomes : Ops.outcome option array;  (** first outcome per spec *)
  acc : Ops.acc;
  spans : Spans.t;
  mutable busy_ms : float;  (** Σ per-job wall in the timed rounds *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_compile_s : float;
  mutable peak_rss_mb : float;
  mutable top_heap_mb : float;
}

let latency r ?(traced = false) i (s : M.spec) ms =
  let best = if traced then r.best_traced else r.best in
  best.(i) <- Float.min best.(i) ms;
  r.latencies_ms <- ms :: r.latencies_ms;
  let key = Printf.sprintf "%s/%s/p%d" s.app s.stage s.procs in
  Hashtbl.replace r.by_app key
    (ms :: Option.value ~default:[] (Hashtbl.find_opt r.by_app key))

let fail r what msg =
  r.failed <- r.failed + 1;
  Printf.eprintf "perfbench: %s failed: %s\n%!" what msg

(* Record the first outcome of a spec; later ones must repeat it. *)
let note r i (o : Ops.outcome) =
  match r.outcomes.(i) with
  | None -> r.outcomes.(i) <- Some o
  | Some first ->
      if Ops.fingerprint first.stats first.fusion
         <> Ops.fingerprint o.stats o.fusion
      then begin
        r.mismatches <- r.mismatches + 1;
        Printf.eprintf "perfbench: spec %d did not repeat its figures\n%!" i
      end

let mem_snapshot r =
  r.peak_rss_mb <- float (proc_kb "/proc/self/status" "VmHWM") /. 1024.0;
  r.top_heap_mb <-
    float ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

(* [stencil] / [alltoall]: rounds of single operations.  A traced run
   alternates traced and untraced rounds so both see the same machine
   state; their rounds at each operation's least latency give the
   tracing overhead. *)
let run_rounds r (p : plan) =
  let rng = Random.State.make [| !seed; 1 |] in
  let untraced = Spans.create ~enabled:false in
  let deadline = now () +. !seconds in
  let rounds = ref 0 in
  while
    !rounds = 0
    || now () < deadline
    || (!trace = 1 && !rounds mod 2 = 1)
  do
    let traced = !trace = 1 && !rounds mod 2 = 1 in
    let spans = if traced then r.spans else untraced in
    let wall = ref 0.0 in
    Array.iteri
      (fun k i ->
        let s, want = p.specs.(i) in
        let op = (!rounds * Array.length p.round) + k in
        r.attempted <- r.attempted + 1;
        (* untimed: every operation starts from the same heap state,
           not from the garbage of whichever operation ran before *)
        Gc.full_major ();
        let t = now () in
        (match
           Ops.attempt (fun () ->
               Ops.run ~spans ~acc:r.acc ~op ~check:true s want)
         with
        | Ok o when o.verified -> note r i o
        | Ok _ -> fail r (M.label_of_spec s) "result differs from the reference"
        | Error e -> fail r (M.label_of_spec s) e);
        let dt = now () -. t in
        wall := !wall +. dt;
        latency r ~traced i s (dt *. 1000.0))
      (shuffle rng p.round);
    if traced then r.traced_walls <- !wall :: r.traced_walls
    else r.round_walls <- !wall :: r.round_walls;
    incr rounds
  done;
  r.acc_units <- !rounds;
  if !trace = 1 then
    r.overhead_s <-
      Array.fold_left
        (fun acc i -> acc +. ((r.best_traced.(i) -. r.best.(i)) /. 1000.0))
        0.0 p.round;
  mem_snapshot r;
  (* busy time of the single client: every operation it ran *)
  r.busy_ms <- sumf r.latencies_ms

(* The fields of a service record the benchmark checks. *)
type record = {
  ok : bool;
  wall_ms : float;
  digest : string;
  figures : string;
}

let field k = function J.Obj kv -> List.assoc_opt k kv | _ -> None

let num = function
  | Some (J.Int i) -> float i
  | Some (J.Float f) | Some (J.Fixed (f, _)) -> f
  | _ -> nan

let str = function Some (J.Str s) -> s | _ -> ""

(* The record's simulated figures, rendered as the record renders them
   so a replayed outcome can be compared with it. *)
let record_figures ~makespan ~ints =
  String.concat "/" (Printf.sprintf "%.12g" makespan :: List.map string_of_int ints)

let figure_keys =
  [ "messages"; "bytes"; "statements"; "retransmits"; "dup_suppressed";
    "net_overhead_bytes"; "nic_msgs_saved"; "peak_inflight_bytes" ]

let outcome_figures (o : Ops.outcome) =
  let st = o.stats in
  record_figures ~makespan:st.makespan
    ~ints:
      [ st.messages; st.bytes; st.statements; st.retransmits; st.dup_suppressed;
        st.net_overhead_bytes; st.nic_msgs_saved; Trace.max_peak_inflight st;
        o.fusion.fused_statements ]

let parse_record line =
  let v = Xdp_batch.Json.parse line in
  let stats = field "stats" v and fusion = field "fusion" v in
  let int_of k o = int_of_float (num (Option.bind o (field k))) in
  ( int_of_float (num (field "id" v)),
    {
      ok = field "ok" v = Some (J.Bool true);
      wall_ms = num (field "wall_ms" v);
      digest = str (field "result_digest" v);
      figures =
        record_figures
          ~makespan:(num (Option.bind stats (field "makespan")))
          ~ints:
            (List.map (fun k -> int_of k stats) figure_keys
            @ [ int_of "fused_statements" fusion ]);
    } )

(* Replay every job once on this domain, through a staging cache as
   the service uses one, checking each against its reference. *)
let replay r (p : plan) ~spans =
  let cache = Xdp_batch.Cache.create () in
  Array.mapi
    (fun i (s, want) ->
      match
        Ops.attempt (fun () ->
            Ops.run ~spans ~acc:r.acc ~op:i ~cache ~digest:true s want)
      with
      | Ok o when o.verified -> Some o
      | Ok _ ->
          fail r (M.label_of_spec s) "replay differs from the reference";
          None
      | Error e ->
          fail r (M.label_of_spec s) ("replay: " ^ e);
          None)
    p.specs

(* [campaign]: rounds of one [Service.run] each; then a replay of every
   job verifies the results, and each record of every round must carry
   the replay's result digest and simulated figures. *)
let run_campaign r (p : plan) =
  let njobs = Array.length p.jobs in
  (* the first record of each job, and how many records it had; later
     records must repeat the first, the replay checks the first *)
  let first = Array.make njobs None and records = Array.make njobs 0 in
  let deadline = now () +. !seconds in
  while r.round_walls = [] || now () < deadline do
    let lines = ref [] in
    (* untimed, as before each single operation *)
    Gc.full_major ();
    let t0 = now () in
    let sum =
      Xdp_batch.Service.run ~workers:!workers ~engine:`Compiled ~timings:true
        ~write:(fun l -> lines := l :: !lines)
        p.jobs
    in
    r.round_walls <- (now () -. t0) :: r.round_walls;
    r.cache_hits <- r.cache_hits + sum.cache_hits;
    r.cache_misses <- r.cache_misses + sum.cache_misses;
    r.cache_compile_s <- r.cache_compile_s +. sum.compile_seconds;
    List.iter
      (fun line ->
        let id, rc = parse_record line in
        let label = p.jobs.(id).label in
        r.attempted <- r.attempted + 1;
        records.(id) <- records.(id) + 1;
        latency r id (fst p.specs.(id)) rc.wall_ms;
        r.busy_ms <- r.busy_ms +. rc.wall_ms;
        match first.(id) with
        | _ when not rc.ok -> fail r label "service record not ok"
        | None -> first.(id) <- Some rc
        | Some f ->
            if f.digest <> rc.digest || f.figures <> rc.figures then begin
              r.mismatches <- r.mismatches + 1;
              Printf.eprintf "perfbench: %s did not repeat its record\n%!" label
            end)
      !lines
  done;
  mem_snapshot r;
  (* verify: every job replayed once against its reference, and its
     service records against the replay *)
  let untraced = Spans.create ~enabled:false in
  let timed_replay spans =
    let t0 = now () in
    let o = replay r p ~spans in
    (o, now () -. t0)
  in
  let replayed, untraced_wall = timed_replay untraced in
  r.acc_units <- 1;
  Array.iteri
    (fun id o ->
      let label = p.jobs.(id).label in
      match (o, first.(id)) with
      | None, _ -> r.failed <- r.failed + records.(id)
      | Some _, None -> ()
      | Some o, Some rc ->
          note r id o;
          if o.digest <> Some rc.digest then
            fail r label "service result digest differs from the replay"
          else if outcome_figures o <> rc.figures then begin
            r.mismatches <- r.mismatches + 1;
            Printf.eprintf "perfbench: %s: record differs from the replay\n%!"
              label
          end)
    replayed;
  if !trace = 1 then begin
    (* alternate traced and untraced replays; their least walls give
       the tracing overhead *)
    let untraced_walls = ref [ untraced_wall ] in
    for k = 1 to 3 do
      let spans = if k mod 2 = 1 then r.spans else untraced in
      let _, wall = timed_replay spans in
      if k mod 2 = 1 then r.traced_walls <- wall :: r.traced_walls
      else untraced_walls := wall :: !untraced_walls
    done;
    r.overhead_s <- least r.traced_walls -. least !untraced_walls;
    r.acc_units <- 4
  end

(* ---------- metrics ---------- *)

(* Simulated figures of one round: every op of [round] once. *)
let round_outcomes r (p : plan) =
  List.filter_map (fun i -> r.outcomes.(i)) (Array.to_list p.round)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The shared machine's speed changes in phases longer than a round,
   by up to half, so the timing metrics come from each operation's
   least latency (its time with the least interference), not from
   medians over samples that mix fast and slow phases. *)
let round_best r (p : plan) =
  List.map (fun i -> r.best.(i)) (Array.to_list p.round)

(* One round at the best observed speed: a sequential round's wall is
   the sum of its operations' least latencies; a service run overlaps
   its jobs, so its least wall is taken whole. *)
let round_wall r (p : plan) =
  if p.jobs = [||] then sumf (round_best r p) /. 1000.0 else least r.round_walls

let metric name unit v = (name, v, unit)

let end_to_end r p ~setup_s =
  let os = round_outcomes r p in
  let stats = List.map (fun (o : Ops.outcome) -> o.stats) os in
  let verified = r.attempted - r.failed in
  let wall = round_wall r p in
  [
    metric "setup_s" "s" setup_s;
    metric "wall_s" "s" wall;
    metric "ops_per_s" "1/s"
      (ratio (float (Array.length p.round)) wall
       *. ratio (float verified) (float r.attempted));
    metric "op_ms.p50" "ms" (median (round_best r p));
    metric "peak_rss_mb" "MB" r.peak_rss_mb;
    metric "verified_ratio" "ratio" (ratio (float verified) (float r.attempted));
    metric "sim_makespan" "cycles"
      (geomean (List.map (fun (s : Trace.stats) -> s.makespan) stats));
    metric "sim_wire_bytes" "B"
      (float (sumi (fun (s : Trace.stats) -> s.bytes + s.net_overhead_bytes) stats));
  ]

let per_layer r p =
  let os = round_outcomes r p in
  let stats = List.map (fun (o : Ops.outcome) -> o.stats) os in
  let traced_rounds = float (Int.max 1 (List.length r.traced_walls)) in
  let self = Spans.self_times r.spans in
  let self_s name =
    Option.value ~default:0.0 (Hashtbl.find_opt self name) /. traced_rounds
  in
  let search_s = self_s "search" in
  let exec_s = self_s "exec" in
  let stmts = float (sumi (fun (s : Trace.stats) -> s.statements) stats) in
  let msgs = sumi (fun (s : Trace.stats) -> s.messages) stats in
  let retx = sumi (fun (s : Trace.stats) -> s.retransmits) stats in
  let dups = sumi (fun (s : Trace.stats) -> s.dup_suppressed) stats in
  (* [acc] counters are summed over every op run *)
  let units = float (Int.max 1 r.acc_units) in
  let cache_lookups = r.cache_hits + r.cache_misses in
  let service_rounds = float (Int.max 1 (List.length r.round_walls)) in
  let workers = if p.jobs = [||] then 1 else !workers in
  (* the client's timed wall: every round it ran (the campaign's
     replays are verification, not timed work) *)
  let timed_wall =
    if p.jobs = [||] then sumf r.round_walls +. sumf r.traced_walls
    else sumf r.round_walls
  in
  [
    metric "build.s" "s" (self_s "build" -. (r.acc.search_in_build /. traced_rounds));
    metric "search.s" "s" search_s;
    metric "search.candidates_per_s" "1/s"
      (ratio (float r.acc.candidates /. traced_rounds) search_s);
    metric "precompile.s" "s" (self_s "precompile");
    metric "precompile.fusable_ratio" "ratio"
      (ratio (float r.acc.fusable) (float r.acc.compiled));
    metric "exec.s" "s" exec_s;
    metric "exec.stmts_per_s" "1/s" (ratio stmts exec_s);
    metric "exec.fused_stmt_ratio" "ratio"
      (ratio
         (float (sumi (fun (o : Ops.outcome) -> o.fusion.fused_statements) os))
         stmts);
    metric "exec.minor_words_per_stmt" "words"
      (ratio r.acc.minor_words (stmts *. units));
    metric "exec.major_gcs" "count" (float r.acc.major_gcs /. units);
    metric "exec.top_heap_mb" "MB" r.top_heap_mb;
    metric "verify.s" "s" (self_s "verify");
    metric "board.messages" "count" (float msgs);
    metric "board.peak_inflight_bytes" "B"
      (float (List.fold_left (fun a s -> Int.max a (Trace.max_peak_inflight s)) 0 stats));
    metric "board.idle_fraction" "ratio"
      (ratio (sumf (List.map Trace.idle_fraction stats)) (float (List.length stats)));
    metric "transport.retransmits" "count" (float retx);
    metric "transport.useful_ratio" "ratio"
      (ratio (float msgs) (float (msgs + retx + dups)));
    metric "nic.msgs_saved" "count"
      (float (sumi (fun (s : Trace.stats) -> s.nic_msgs_saved) stats));
    metric "cache.hit_ratio" "ratio"
      (ratio (float r.cache_hits) (float cache_lookups));
    metric "cache.compile_s" "s" (r.cache_compile_s /. service_rounds);
    metric "pool.busy_ratio" "ratio"
      (ratio (r.busy_ms /. 1000.0) (float workers *. timed_wall));
    metric "trace.overhead_s" "s" r.overhead_s;
    metric "trace.spans" "count" (float (Spans.count r.spans) /. traced_rounds);
  ]

(* ---------- output ---------- *)

let write_file path v =
  (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
  try
    let oc = open_out path in
    J.to_channel ~indent:1 oc v;
    output_char oc '\n';
    close_out oc
  with Sys_error e -> Printf.eprintf "perfbench: cannot write %s: %s\n%!" path e

let () =
  Arg.parse (Arg.align args)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if !workers < 1 then failwith "--workers must be >= 1";
  (* set up at least five times and for at least a second, so a cheap
     set-up's median rests on enough samples, each from a collected
     heap; the last plan is the one measured *)
  let setups, plan =
    let t_start = now () in
    let rec go k acc =
      Gc.full_major ();
      let t0 = now () in
      let p = setup !workload in
      let acc = (now () -. t0) :: acc in
      if k >= 5 && now () -. t_start >= 1.0 then (acc, p) else go (k + 1) acc
    in
    go 1 []
  in
  let setup_s = median setups in
  let r =
    {
      attempted = 0;
      failed = 0;
      mismatches = 0;
      latencies_ms = [];
      by_app = Hashtbl.create 16;
      round_walls = [];
      traced_walls = [];
      best = Array.make (Array.length plan.specs) infinity;
      best_traced = Array.make (Array.length plan.specs) infinity;
      overhead_s = 0.0;
      acc_units = 0;
      outcomes = Array.make (Array.length plan.specs) None;
      acc = Ops.new_acc ();
      spans = Spans.create ~enabled:(!trace = 1);
      busy_ms = 0.0;
      cache_hits = 0;
      cache_misses = 0;
      cache_compile_s = 0.0;
      peak_rss_mb = 0.0;
      top_heap_mb = 0.0;
    }
  in
  if plan.jobs = [||] then run_rounds r plan else run_campaign r plan;
  let metrics =
    if !trace = 1 then per_layer r plan else end_to_end r plan ~setup_s
  in
  let lat = Array.of_list (sorted r.latencies_ms) in
  let n = Array.length lat in
  (* percentiles over every sample, each only with at least ten
     samples beyond it *)
  let tail =
    List.filter_map
      (fun q ->
        if float n *. (1.0 -. q) >= 10.0 then
          Some (Printf.sprintf "op_ms.all.p%g" (q *. 100.0), quantile lat q)
        else None)
      [ 0.5; 0.9; 0.99 ]
  in
  let env = env () in
  let metrics_json =
    J.Obj
      (List.map
         (fun (name, v, unit) ->
           (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
         metrics)
  in
  let correct = r.failed = 0 && r.mismatches = 0 in
  let result =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int r.attempted);
        ("failed", J.Int r.failed);
        ("metrics", metrics_json);
      ]
  in
  write_file
    (Filename.concat !out_dir
       (Printf.sprintf "%s-seed%d-trace%d.json" !workload !seed !trace))
    (J.Obj
       ([
          ("env", env);
          ("result", result);
          ("op_ms.samples", J.Int n);
          ("op_ms.all", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) tail));
          ( "op_ms.p50_by_app",
            J.Obj
              (List.sort compare
                 (Hashtbl.fold
                    (fun k l acc ->
                      (k, J.Obj [ ("p50", J.Float (median l));
                                  ("samples", J.Int (List.length l)) ])
                      :: acc)
                    r.by_app [])) );
          ("setup_s.samples", J.Arr (List.map (fun x -> J.Float x) setups));
          ("round_walls_s", J.Arr (List.map (fun x -> J.Float x) r.round_walls));
          ("least_ms", J.Arr (Array.to_list (Array.map (fun x -> J.Float x) r.best)));
        ]
       @ if !trace = 1 then [ ("spans", Spans.to_json r.spans) ] else []));
  Printf.printf "env %s\n" (J.to_string ~indent:0 env);
  List.iter (fun (name, v, unit) -> Printf.printf "%-28s %14.6g %s\n" name v unit) metrics;
  Printf.printf "%-28s %14d samples\n" "op_ms" n;
  List.iter (fun (k, v) -> Printf.printf "%-28s %14.6g ms\n" k v) tail;
  print_endline (J.to_string ~indent:0 result)
