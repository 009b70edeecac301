(* Unreliable-network subsystem tests.

   The headline property of the reliable transport (DESIGN.md "Beyond
   Figure 1"): for ANY fault plan with eventual delivery, a run
   produces final tensors bit-identical to the fault-free run, with
   ownership_defects = (0, 0) and zero unmatched sends/receives.  The
   differential harness below checks that over 300+ randomized
   (application x fault-plan x seed) cases drawn deterministically
   through Prng, so failures reproduce by seed.

   Also covered: permanently dead links surface as a diagnosable
   Transport.Link_failed naming (src, dst, section) instead of a
   silent hang; fault schedules are deterministic (same seed, same
   trace); and the heap-based Board agrees with Board_reference under
   duplicated sends and reordered (jittered) post times. *)

module Exec = Xdp_runtime.Exec
module Faultplan = Xdp_net.Faultplan
module Transport = Xdp_net.Transport
module Prng = Xdp_util.Prng

(* ------------------------------------------------------------------ *)
(* Application zoo: deterministic programs only.  farm/dynamic is
   deliberately absent: its undirected sends race idle receivers, so
   message timing legitimately changes which processor computes what
   and the tensors need not be bit-identical under faults. *)

type app = {
  label : string;
  prog : Xdp.Ir.program;
  init : string -> int list -> float;
  arrays : string list;
  nprocs : int;
  nic : (int * Xdp_nic.Prog.t) list;
      (* attached NIC programs; the headline idempotence property
         extends to them: fabric state must be invisible to faults *)
}

let apps =
  [
    {
      label = "vecadd/naive/misaligned";
      prog =
        Xdp_apps.Vecadd.build ~n:16 ~nprocs:4 ~dist_b:Xdp_dist.Dist.Cyclic
          ~stage:Xdp_apps.Vecadd.Naive ();
      init = Xdp_apps.Vecadd.init;
      arrays = [ "A" ];
      nprocs = 4;
      nic = [];
    };
    {
      label = "vecadd/bound/misaligned";
      prog =
        Xdp_apps.Vecadd.build ~n:16 ~nprocs:4 ~dist_b:Xdp_dist.Dist.Cyclic
          ~stage:Xdp_apps.Vecadd.Bound ();
      init = Xdp_apps.Vecadd.init;
      arrays = [ "A" ];
      nprocs = 4;
      nic = [];
    };
    {
      label = "fft3d/baseline";
      prog =
        Xdp_apps.Fft3d.build ~n:4 ~nprocs:4 ~stage:Xdp_apps.Fft3d.Baseline ();
      init = Xdp_apps.Fft3d.init;
      arrays = [ "A" ];
      nprocs = 4;
      nic = [];
    };
    {
      label = "fft3d/pipelined";
      prog =
        Xdp_apps.Fft3d.build ~n:4 ~nprocs:4 ~seg_rows:2
          ~stage:Xdp_apps.Fft3d.Pipelined ();
      init = Xdp_apps.Fft3d.init;
      arrays = [ "A" ];
      nprocs = 4;
      nic = [];
    };
    {
      label = "jacobi/auto-halo";
      prog =
        Xdp_apps.Jacobi.build ~n:24 ~nprocs:4 ~sweeps:2
          ~stage:Xdp_apps.Jacobi.Auto_halo ();
      init = Xdp_apps.Jacobi.init;
      arrays = [ "A" ];
      nprocs = 4;
      nic = [];
    };
    {
      label = "jacobi2d/halo";
      prog =
        Xdp_apps.Jacobi2d.build ~n:8 ~pr:2 ~pc:2 ~sweeps:2
          ~stage:Xdp_apps.Jacobi2d.Halo ();
      init = Xdp_apps.Jacobi2d.init;
      arrays = [ "A" ];
      nprocs = 4;
      nic = [];
    };
    {
      label = "reduce/naive";
      prog = Xdp_apps.Reduce.build ~n:16 ~nprocs:4 ~stage:Xdp_apps.Reduce.Naive ();
      init = Xdp_apps.Reduce.init;
      arrays = [ "OUT" ];
      nprocs = 4;
      nic = [];
    };
    {
      label = "reduce/partial";
      prog =
        Xdp_apps.Reduce.build ~n:16 ~nprocs:4 ~stage:Xdp_apps.Reduce.Partial ();
      init = Xdp_apps.Reduce.init;
      arrays = [ "OUT" ];
      nprocs = 4;
      nic = [];
    };
    {
      label = "reduce/nic";
      prog =
        Xdp_apps.Reduce.build ~n:16 ~nprocs:4
          ~stage:(Xdp_apps.Reduce.Nic 2) ();
      init = Xdp_apps.Reduce.init;
      arrays = [ "OUT" ];
      nprocs = 4;
      nic = Xdp_apps.Reduce.nic_spec ~nprocs:4 ~arity:2;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Deterministic fault-plan generator.  Only eventual-delivery plans:
   deliver_after stays small and the transport keeps its generous
   default retry budget, so every case is guaranteed to finish. *)

let plan_of_seed ~nprocs seed =
  let g = Prng.stream 0xFA17 [ seed ] in
  let drop = Prng.float_in g 0.0 0.5 in
  let dup = Prng.float_in g 0.0 0.3 in
  let jitter = Prng.float_in g 0.0 0.5 in
  let slowdown = Prng.float_in g 1.0 3.0 in
  let deliver_after = Prng.int_in g 0 5 in
  (* every third plan singles out one link as much worse than the rest *)
  let links =
    if seed mod 3 = 0 && nprocs > 1 then
      let src = Prng.int g nprocs in
      let dst = (src + 1 + Prng.int g (nprocs - 1)) mod nprocs in
      [
        ( (src, dst),
          { Faultplan.reliable with drop = 0.9; dup = 0.5; jitter = 1.0 } );
      ]
    else []
  in
  (* every fifth plan combines heavy duplication with heavy jitter:
     duplicated packets arriving out of order is the sharpest test of
     receiver-side dedup (and of NIC-state idempotence) *)
  let drop, dup, jitter =
    if seed mod 5 = 0 then (drop /. 2.0, 0.5 +. (dup /. 2.0), 1.0 +. jitter)
    else (drop, dup, jitter)
  in
  (* every fourth plan stalls a processor's NIC for a window *)
  let stalls =
    if seed mod 4 = 0 && nprocs > 0 then
      let pid = Prng.int g nprocs in
      let t0 = Prng.float_in g 0.0 20_000.0 in
      [ (pid, t0, t0 +. Prng.float_in g 1_000.0 30_000.0) ]
    else []
  in
  Faultplan.make ~seed ~drop ~dup ~jitter ~slowdown ~links ~stalls
    ~deliver_after ()

let seeds_per_app = 40 (* 9 apps x 40 = 360 cases, >= the 300 floor *)

let check_case app clean seed =
  let fault = plan_of_seed ~nprocs:app.nprocs seed in
  let r = Exec.run ~init:app.init ~nprocs:app.nprocs ~fault ~nic:app.nic app.prog in
  List.iter
    (fun a ->
      if not (Xdp_util.Tensor.equal (Exec.array r a) (Exec.array clean a))
      then
        Alcotest.failf "%s seed=%d (%s): array %s differs from fault-free run"
          app.label seed (Faultplan.describe fault) a)
    app.arrays;
  let own = Exec.ownership_defects r app.prog in
  if own <> (0, 0) then
    Alcotest.failf "%s seed=%d: ownership defects (%d,%d)" app.label seed
      (fst own) (snd own);
  if r.stats.unmatched_sends <> 0 || r.stats.unmatched_recvs <> 0 then
    Alcotest.failf "%s seed=%d: unmatched sends=%d recvs=%d" app.label seed
      r.stats.unmatched_sends r.stats.unmatched_recvs

let test_differential_sweep () =
  let cases = ref 0 in
  List.iter
    (fun app ->
      let clean = Exec.run ~init:app.init ~nprocs:app.nprocs ~nic:app.nic app.prog in
      for seed = 1 to seeds_per_app do
        check_case app clean seed;
        incr cases
      done)
    apps;
  Alcotest.(check bool)
    (Printf.sprintf "ran %d cases (>= 300)" !cases)
    true (!cases >= 300)

(* A faulty run should actually exercise the transport: sanity-check
   that a plan with heavy drop records retransmits and overhead. *)
let test_faults_do_something () =
  let app = List.hd apps in
  let fault = Faultplan.make ~seed:5 ~drop:0.4 ~dup:0.2 ~jitter:0.3 () in
  let r = Exec.run ~init:app.init ~nprocs:app.nprocs ~fault app.prog in
  Alcotest.(check bool) "packets were dropped" true (r.stats.packets_dropped > 0);
  Alcotest.(check bool) "retransmits happened" true (r.stats.retransmits > 0);
  Alcotest.(check bool) "acks happened" true (r.stats.acks > 0);
  Alcotest.(check bool) "overhead charged" true (r.stats.net_overhead_bytes > 0)

(* ------------------------------------------------------------------ *)
(* Dead links: bounded retries surface Link_failed naming the link and
   section, plus the set of waiting processors. *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let net_small_retries = { Transport.default_config with max_retries = 3 }

let test_dead_link_diagnosed () =
  let app = List.hd apps in
  (* one link permanently dead; everything else is perfect *)
  let fault =
    Faultplan.make ~seed:7
      ~links:[ ((1, 2), { Faultplan.reliable with drop = 1.0 }) ]
      ~deliver_after:max_int ()
  in
  match
    Exec.run ~init:app.init ~nprocs:app.nprocs ~fault ~net:net_small_retries
      app.prog
  with
  | (_ : Exec.result) -> Alcotest.fail "dead link went unnoticed"
  | exception Transport.Link_failed msg ->
      (* processors print 1-based: link (1,2) is P2 -> P3 *)
      Alcotest.(check bool) "names the link" true (contains msg "P2 -> P3");
      Alcotest.(check bool) "names a section" true (contains msg "B[");
      Alcotest.(check bool) "counts attempts" true (contains msg "lost after");
      Alcotest.(check bool) "reports waiters" true (contains msg "waiting")

let test_all_links_dead () =
  let app = List.hd apps in
  let fault = Faultplan.make ~seed:3 ~drop:1.0 ~deliver_after:max_int () in
  match
    Exec.run ~init:app.init ~nprocs:app.nprocs ~fault ~net:net_small_retries
      app.prog
  with
  | (_ : Exec.result) -> Alcotest.fail "100% drop went unnoticed"
  | exception Transport.Link_failed msg ->
      Alcotest.(check bool) "mentions retries" true
        (contains msg "max retries")

(* A crash-stop processor also kills its links. *)
let test_crash_stop () =
  let app = List.hd apps in
  let fault = Faultplan.make ~seed:11 ~crashes:[ (2, 0.0) ] ~deliver_after:0 () in
  match
    Exec.run ~init:app.init ~nprocs:app.nprocs ~fault ~net:net_small_retries
      app.prog
  with
  | (_ : Exec.result) -> Alcotest.fail "crashed processor went unnoticed"
  | exception Transport.Link_failed _ -> ()

(* The whole Link_failed text for a two-processor exchange over a dead
   P1 -> P2 link, with and without a waiter on the lost receive.  The
   stuck-run check runs only once the wire has settled, so a lost
   message nobody awaits fails the run through the same diagnostic,
   with an empty waiting set. *)
let lost_exchange ~awaited =
  let open Xdp.Build in
  let grid = Xdp_dist.Grid.linear 2 in
  let into = sec "X" [ at (i 2) ] in
  program
    ~name:(if awaited then "lost" else "unawaited")
    ~decls:[ decl ~name:"X" ~shape:[ 2 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid () ]
    [
      (mypid =: i 1) @: [ send (sec "X" [ at (i 1) ]) ];
      (mypid =: i 2)
      @: (recv ~into ~from:(sec "X" [ at (i 1) ])
         :: (if awaited then [ await into @: [ setv "x" (i 1) ] ] else []));
    ]

let check_lost_text ~awaited expected =
  let fault =
    Faultplan.make ~seed:7
      ~links:[ ((0, 1), { Faultplan.reliable with drop = 1.0 }) ]
      ~deliver_after:max_int ()
  in
  List.iter
    (fun engine ->
      match
        Exec.run ~engine ~nprocs:2 ~fault ~net:net_small_retries
          (lost_exchange ~awaited)
      with
      | (_ : Exec.result) -> Alcotest.fail "lost message went unnoticed"
      | exception Transport.Link_failed msg ->
          Alcotest.(check string) "link failure text" expected msg)
    [ `Interp; `Compiled ]

let test_lost_text () =
  check_lost_text ~awaited:true
    "lost: blocked on messages dropped past max retries:\n\
    \  P1 -> P2 X[1] lost after 4 attempts\n\
     waiting:\n\
     P2 waits on X[2]"

let test_lost_unawaited_text () =
  check_lost_text ~awaited:false
    "unawaited: blocked on messages dropped past max retries:\n\
    \  P1 -> P2 X[1] lost after 4 attempts\n\
     waiting:\n"

(* Fault-free programs with genuinely missing partners still deadlock
   with the "nothing in flight" diagnosis, not a link failure. *)
let test_plain_deadlock_distinguished () =
  let open Xdp.Build in
  let grid = Xdp_dist.Grid.linear 2 in
  let decls =
    [ decl ~name:"X" ~shape:[ 2 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid () ]
  in
  let p =
    program ~name:"stuck" ~decls
      [
        (* a receive nobody ever sends to, then a use that blocks on it *)
        (mypid =: i 1)
        @: [
             recv ~into:(sec "X" [ at (i 1) ]) ~from:(sec "X" [ at (i 2) ]);
             await (sec "X" [ at (i 1) ]) @: [ setv "x" (i 1) ];
           ];
      ]
  in
  let fault = Faultplan.make ~seed:1 ~drop:0.1 () in
  match Exec.run ~nprocs:2 ~fault p with
  | (_ : Exec.result) -> Alcotest.fail "expected deadlock"
  | exception Exec.Deadlock msg ->
      Alcotest.(check bool) "nothing in flight" true
        (contains msg "nothing in flight");
      Alcotest.(check bool) "waiting set" true (contains msg "waits on")

(* ------------------------------------------------------------------ *)
(* Determinism: same seed, same plan => identical stats and trace. *)

let digest_events evs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e -> Buffer.add_string buf (Format.asprintf "%a@." Xdp_sim.Trace.pp_event e))
    evs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let run_traced app fault =
  Exec.run ~init:app.init ~nprocs:app.nprocs ~fault ~nic:app.nic ~trace:true app.prog

let test_determinism () =
  List.iter
    (fun app ->
      let fault = plan_of_seed ~nprocs:app.nprocs 17 in
      let r1 = run_traced app fault and r2 = run_traced app fault in
      Alcotest.(check string)
        (app.label ^ ": trace digest")
        (digest_events (Xdp_sim.Trace.events r1.trace))
        (digest_events (Xdp_sim.Trace.events r2.trace));
      Alcotest.(check (float 0.0))
        (app.label ^ ": makespan") r1.stats.makespan r2.stats.makespan;
      Alcotest.(check int)
        (app.label ^ ": retransmits") r1.stats.retransmits r2.stats.retransmits;
      Alcotest.(check int)
        (app.label ^ ": drops") r1.stats.packets_dropped
        r2.stats.packets_dropped)
    apps

(* Different seeds should (almost always) give different schedules —
   guard against the keyed streams collapsing to one stream. *)
let test_seed_sensitivity () =
  let app = List.hd apps in
  let r_of seed =
    let fault = Faultplan.make ~seed ~drop:0.3 ~jitter:0.4 () in
    (Exec.run ~init:app.init ~nprocs:app.nprocs ~fault app.prog).stats
  in
  let a = r_of 1 and b = r_of 2 in
  Alcotest.(check bool) "schedules differ" true
    (a.makespan <> b.makespan || a.packets_dropped <> b.packets_dropped
   || a.retransmits <> b.retransmits)

(* ------------------------------------------------------------------ *)
(* Faultplan unit properties. *)

let test_plan_purity () =
  let plan = Faultplan.make ~seed:9 ~drop:0.5 ~dup:0.5 ~jitter:1.0 () in
  for msg = 0 to 63 do
    let d1 = Faultplan.drops_packet plan ~src:0 ~dst:1 ~msg ~attempt:0 ~ack:false
    and d2 = Faultplan.drops_packet plan ~src:0 ~dst:1 ~msg ~attempt:0 ~ack:false in
    Alcotest.(check bool) "drop decision pure" d1 d2;
    let j1 = Faultplan.jitter_delay plan ~src:0 ~dst:1 ~msg ~attempt:0 ~scale:100.0
    and j2 = Faultplan.jitter_delay plan ~src:0 ~dst:1 ~msg ~attempt:0 ~scale:100.0 in
    Alcotest.(check (float 0.0)) "jitter pure" j1 j2
  done

let test_deliver_after_bound () =
  let plan = Faultplan.make ~seed:4 ~drop:1.0 ~deliver_after:3 () in
  for msg = 0 to 31 do
    Alcotest.(check bool) "attempt >= bound always delivered" false
      (Faultplan.drops_packet plan ~src:2 ~dst:0 ~msg ~attempt:3 ~ack:false);
    Alcotest.(check bool) "attempt below bound dropped (p=1)" true
      (Faultplan.drops_packet plan ~src:2 ~dst:0 ~msg ~attempt:2 ~ack:false)
  done

let test_plan_validation () =
  let rejects label mk =
    Alcotest.(check bool) label true
      (match mk () with
      | (_ : Faultplan.t) -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "drop > 1" (fun () -> Faultplan.make ~drop:1.5 ());
  rejects "drop < 0" (fun () -> Faultplan.make ~drop:(-0.1) ());
  rejects "slowdown < 1" (fun () -> Faultplan.make ~slowdown:0.5 ())

let test_stall_release () =
  let plan = Faultplan.make ~stalls:[ (1, 100.0, 200.0) ] () in
  Alcotest.(check (float 0.0)) "before window" 50.0
    (Faultplan.stall_release plan ~pid:1 50.0);
  Alcotest.(check (float 0.0)) "inside window" 200.0
    (Faultplan.stall_release plan ~pid:1 150.0);
  Alcotest.(check (float 0.0)) "other pid" 150.0
    (Faultplan.stall_release plan ~pid:0 150.0)

(* ------------------------------------------------------------------ *)
(* Board vs Board_reference under duplicated sends and reordered
   (non-monotonic, jittered) post times.  Both implementations must
   produce the same delivery stream for the same op sequence. *)

module B = Xdp_sim.Board
module BR = Xdp_sim.Board_reference

type op =
  | Send of float * int * string * B.kind * float array * int list option
  | Recv of float * int * string * B.kind * int

let kind_of g =
  Prng.choose g [ B.Value; B.Owner; B.Owner_value ]

let gen_ops seed =
  let g = Prng.stream 0xB0A2D [ seed ] in
  let nprocs = 4 in
  let names = [ "A[0]"; "A[1]"; "B[0]"; "halo"; "acc" ] in
  (* per-name kind, so sequences are mismatch-free by construction *)
  let kinds = List.map (fun n -> (n, kind_of g)) names in
  let n_ops = Prng.int_in g 10 40 in
  List.init n_ops (fun k ->
      let name = Prng.choose g names in
      let kind = List.assoc name kinds in
      (* jittered, non-monotonic post times force reordered arrivals *)
      let time = Prng.float_in g 0.0 5_000.0 in
      if Prng.bool g then
        let src = Prng.int g nprocs in
        let payload =
          if kind = B.Owner then [||]
          else Array.init (Prng.int_in g 1 4) (fun i -> float_of_int (k + i))
        in
        let directed =
          if Prng.bool g then
            Some [ Prng.int g nprocs ]
          else None
        in
        Send (time, src, name, kind, payload, directed)
      else Recv (time, Prng.int g nprocs, name, kind, k))

(* duplicate a suffix of ops to stress repeated (name, kind) traffic *)
let with_dups seed ops =
  let g = Prng.stream 0xD0B [ seed ] in
  List.concat_map
    (fun op -> if Prng.float g < 0.3 then [ op; op ] else [ op ])
    ops

let apply_board ops =
  let b = B.create Xdp_sim.Costmodel.message_passing in
  List.iter
    (function
      | Send (time, src, name, kind, payload, directed) ->
          B.post_send b ~time ~src ~name ~kind ~payload ~directed
      | Recv (time, dst, name, kind, token) ->
          B.post_recv b ~time ~dst ~name ~kind ~token)
    ops;
  let rec drain acc =
    match B.pop_delivery b with Some d -> drain (d :: acc) | None -> List.rev acc
  in
  (drain [], B.pending_sends b, B.pending_recvs b)

let apply_reference ops =
  let b = BR.create Xdp_sim.Costmodel.message_passing in
  List.iter
    (function
      | Send (time, src, name, kind, payload, directed) ->
          BR.post_send b ~time ~src ~name ~kind ~payload ~directed
      | Recv (time, dst, name, kind, token) ->
          BR.post_recv b ~time ~dst ~name ~kind ~token)
    ops;
  let rec drain acc =
    match BR.pop_delivery b with
    | Some d -> drain (d :: acc)
    | None -> List.rev acc
  in
  (drain [], BR.pending_sends b, BR.pending_recvs b)

let pp_delivery (d : B.delivery) =
  Printf.sprintf "%.1f/%.1f #%d P%d->P%d %s tok=%d [%s]" d.arrival d.depart
    d.seq d.src d.dst d.name d.token
    (String.concat ";" (Array.to_list (Array.map string_of_float d.payload)))

let test_board_differential () =
  for seed = 1 to 50 do
    let ops = with_dups seed (gen_ops seed) in
    let dh, psh, prh = apply_board ops in
    let dr, psr, prr = apply_reference ops in
    let render ds = String.concat "\n" (List.map pp_delivery ds) in
    Alcotest.(check string)
      (Printf.sprintf "seed %d deliveries" seed)
      (render dr) (render dh);
    Alcotest.(check int)
      (Printf.sprintf "seed %d pending sends" seed)
      (List.length psr) (List.length psh);
    Alcotest.(check int)
      (Printf.sprintf "seed %d pending recvs" seed)
      (List.length prr) (List.length prh)
  done

(* The worst combination at the board layer: EVERY op posted twice
   (dup) on already non-monotonic, jittered post times — heap and
   reference must still agree delivery-for-delivery. *)
let test_board_combined_dup_jitter () =
  for seed = 51 to 70 do
    let ops = List.concat_map (fun op -> [ op; op ]) (gen_ops seed) in
    let dh, psh, prh = apply_board ops in
    let dr, psr, prr = apply_reference ops in
    let render ds = String.concat "\n" (List.map pp_delivery ds) in
    Alcotest.(check string)
      (Printf.sprintf "seed %d all-dup deliveries" seed)
      (render dr) (render dh);
    Alcotest.(check int)
      (Printf.sprintf "seed %d all-dup pending sends" seed)
      (List.length psr) (List.length psh);
    Alcotest.(check int)
      (Printf.sprintf "seed %d all-dup pending recvs" seed)
      (List.length prr) (List.length prh)
  done

let test_board_mismatch_agree () =
  (* same mismatched pair must raise Mismatch in both implementations *)
  let mismatch post_send post_recv create =
    let b = create Xdp_sim.Costmodel.message_passing in
    post_send b;
    match post_recv b with
    | () -> false
    | exception B.Mismatch _ -> true
    | exception BR.Mismatch _ -> true
  in
  let heap =
    mismatch
      (fun b ->
        B.post_send b ~time:0.0 ~src:0 ~name:"X" ~kind:B.Value
          ~payload:[| 1.0 |] ~directed:None)
      (fun b -> B.post_recv b ~time:1.0 ~dst:1 ~name:"X" ~kind:B.Owner ~token:0)
      B.create
  and reference =
    mismatch
      (fun b ->
        BR.post_send b ~time:0.0 ~src:0 ~name:"X" ~kind:B.Value
          ~payload:[| 1.0 |] ~directed:None)
      (fun b ->
        BR.post_recv b ~time:1.0 ~dst:1 ~name:"X" ~kind:B.Owner ~token:0)
      BR.create
  in
  Alcotest.(check bool) "heap board raises" true heap;
  Alcotest.(check bool) "reference board raises" true reference

let () =
  Alcotest.run "net"
    [
      ( "differential",
        [
          Alcotest.test_case "360 randomized app x plan x seed cases" `Slow
            test_differential_sweep;
          Alcotest.test_case "faults exercise the transport" `Quick
            test_faults_do_something;
        ] );
      ( "dead links",
        [
          Alcotest.test_case "dead link names (src,dst,section)" `Quick
            test_dead_link_diagnosed;
          Alcotest.test_case "100% drop everywhere" `Quick test_all_links_dead;
          Alcotest.test_case "crash-stop processor" `Quick test_crash_stop;
          Alcotest.test_case "lost message text, awaited" `Quick
            test_lost_text;
          Alcotest.test_case "lost message text, nobody waits" `Quick
            test_lost_unawaited_text;
          Alcotest.test_case "plain deadlock still distinguished" `Quick
            test_plain_deadlock_distinguished;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same plan, same trace" `Quick test_determinism;
          Alcotest.test_case "different seeds differ" `Quick
            test_seed_sensitivity;
        ] );
      ( "faultplan",
        [
          Alcotest.test_case "fate decisions are pure" `Quick test_plan_purity;
          Alcotest.test_case "deliver_after bounds loss" `Quick
            test_deliver_after_bound;
          Alcotest.test_case "parameter validation" `Quick test_plan_validation;
          Alcotest.test_case "stall windows" `Quick test_stall_release;
        ] );
      ( "board under network stress",
        [
          Alcotest.test_case "heap vs reference, dup/reordered ops" `Quick
            test_board_differential;
          Alcotest.test_case "combined dup+jitter, every op doubled" `Quick
            test_board_combined_dup_jitter;
          Alcotest.test_case "mismatch detection agrees" `Quick
            test_board_mismatch_agree;
        ] );
    ]
