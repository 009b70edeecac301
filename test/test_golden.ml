(* Golden tests against the paper's listings: the §2.2 vector-add
   translations (EX22) and the §4 3-D FFT pipeline (EX4).  Our passes
   must regenerate the code the paper prints (modulo loop-variable
   names and explicit parentheses). *)

let check_golden name expected actual =
  if String.trim expected <> String.trim actual then
    Alcotest.failf "%s:\n--- expected ---\n%s\n--- got ---\n%s" name expected
      actual

(* §2.2, first listing: the straightforward owner-computes translation. *)
let test_ex22_naive () =
  let p =
    Xdp_apps.Vecadd.build ~n:8 ~nprocs:4 ~stage:Xdp_apps.Vecadd.Naive ()
  in
  check_golden "§2.2 naive"
    {|do i = 1, 8
  iown(B[i]) : { B[i] -> }
  iown(A[i]) : {
    __T1[mypid] <- B[i]
    await(__T1[mypid]) : { A[i] = (A[i] + __T1[mypid]) }
  }
enddo|}
    (Xdp.Pp.stmts_to_string p.body)

(* §2.2, optimized: transfers eliminated, loop bounds adjusted so each
   reference is local, ownership test eliminated. *)
let test_ex22_optimized () =
  let p =
    Xdp_apps.Vecadd.build ~n:8 ~nprocs:4 ~stage:Xdp_apps.Vecadd.Localized ()
  in
  check_golden "§2.2 optimized"
    {|do i = (((mypid - 1) * 2) + 1), (mypid * 2)
  A[i] = (A[i] + B[i])
enddo|}
    (Xdp.Pp.stmts_to_string p.body)

(* §4, first listing: baseline FFT with guarded loops and the
   redistribution via ownership transfer. *)
let test_ex4_baseline () =
  let p =
    Xdp_apps.Fft3d.build ~n:4 ~nprocs:4 ~stage:Xdp_apps.Fft3d.Baseline ()
  in
  check_golden "§4 baseline"
    {|do k = 1, 4
  iown(A[*,*,k]) : {
    do i = 1, 4
      fft1D(A[i,*,k])
    enddo
  }
enddo
do k = 1, 4
  iown(A[*,*,k]) : {
    do j = 1, 4
      fft1D(A[*,j,k])
    enddo
  }
enddo
do p = 1, 4
  iown(A[*,*,p]) : {
    do j = 1, 4
      A[*,j,p] -=>
    enddo
    do j = p, p
      do q = 1, 4
        A[*,j,q] <=-
      enddo
    enddo
  }
enddo
do j = 1, 4
  await(A[*,j,*]) : {
    do i = 1, 4
      fft1D(A[i,j,*])
    enddo
  }
enddo|}
    (Xdp.Pp.stmts_to_string p.body)

(* §4, second listing: after compute-rule elimination and collapse. *)
let test_ex4_localized () =
  let p =
    Xdp_apps.Fft3d.build ~n:4 ~nprocs:4 ~stage:Xdp_apps.Fft3d.Localized ()
  in
  check_golden "§4 localized"
    {|do i = 1, 4
  fft1D(A[i,*,mypid])
enddo
do j = 1, 4
  fft1D(A[*,j,mypid])
enddo
do j = 1, 4
  A[*,j,mypid] -=>
enddo
do q = 1, 4
  A[*,mypid,q] <=-
enddo
await(A[*,mypid,*]) : {
  do i = 1, 4
    fft1D(A[i,mypid,*])
  enddo
}|}
    (Xdp.Pp.stmts_to_string p.body)

(* §4, third listing: loop fusion pipelines the ownership sends and
   the await is sunk into the final loop. *)
let test_ex4_pipelined () =
  let p =
    Xdp_apps.Fft3d.build ~n:4 ~nprocs:4 ~stage:Xdp_apps.Fft3d.Pipelined ()
  in
  check_golden "§4 pipelined"
    {|do i = 1, 4
  fft1D(A[i,*,mypid])
enddo
do j = 1, 4
  fft1D(A[*,j,mypid])
  A[*,j,mypid] -=>
enddo
do q = 1, 4
  A[*,mypid,q] <=-
enddo
do i = 1, 4
  await(A[i,mypid,*]) : { fft1D(A[i,mypid,*]) }
enddo|}
    (Xdp.Pp.stmts_to_string p.body)

(* The ownership-migration alternative of §2.2: moving each A[i] to
   B[i]'s owner instead of sending values.  Built with the eDSL and
   checked against the paper's fragment. *)
let test_ex22_ownership_variant_renders () =
  let open Xdp.Build in
  let iv = var "i" in
  let body =
    [
      loop "i" (i 1) (i 8)
        [
          iown (sec "A" [ at iv ]) @: [ send_owner_value (sec "A" [ at iv ]) ];
          iown (sec "B" [ at iv ]) @: [ recv_owner_value (sec "A" [ at iv ]) ];
          await (sec "A" [ at iv ])
          @: [ set "A" [ iv ] (elem "A" [ iv ] +: elem "B" [ iv ]) ];
        ];
    ]
  in
  check_golden "§2.2 ownership variant"
    {|do i = 1, 8
  iown(A[i]) : { A[i] -=> }
  iown(B[i]) : { A[i] <=- }
  await(A[i]) : { A[i] = (A[i] + B[i]) }
enddo|}
    (Xdp.Pp.stmts_to_string body)

(* ... and it actually runs correctly when B is misaligned, moving
   ownership of A to B's layout. *)
let test_ex22_ownership_variant_executes () =
  let open Xdp.Build in
  let nprocs = 4 and n = 8 in
  let grid = Xdp_dist.Grid.linear nprocs in
  let decls =
    [
      decl ~name:"A" ~shape:[ n ] ~dist:[ Xdp_dist.Dist.Block ] ~grid
        ~seg_shape:[ 1 ] ();
      decl ~name:"B" ~shape:[ n ] ~dist:[ Xdp_dist.Dist.Cyclic ] ~grid
        ~seg_shape:[ 1 ] ();
    ]
  in
  let iv = var "i" in
  let p =
    program ~name:"own-variant" ~decls
      [
        loop "i" (i 1) (i n)
          [
            (* self-transfers when owners coincide are legal XDP *)
            iown (sec "A" [ at iv ]) @: [ send_owner_value (sec "A" [ at iv ]) ];
            iown (sec "B" [ at iv ]) @: [ recv_owner_value (sec "A" [ at iv ]) ];
            await (sec "A" [ at iv ])
            @: [ set "A" [ iv ] (elem "A" [ iv ] +: elem "B" [ iv ]) ];
          ];
      ]
  in
  let r = Xdp_runtime.Exec.run ~init:Xdp_apps.Vecadd.init ~nprocs p in
  Alcotest.(check bool) "result correct" true
    (Xdp_util.Tensor.equal
       (Xdp_runtime.Exec.array r "A")
       (Xdp_apps.Vecadd.expected ~n));
  Alcotest.(check int) "every element's ownership moved" n
    r.stats.ownership_transfers;
  (* afterwards A's ownership sits with B's owners *)
  let bl =
    Xdp_dist.Layout.make ~shape:[ n ] ~dist:[ Xdp_dist.Dist.Cyclic ]
      ~grid:(Xdp_dist.Grid.linear nprocs)
  in
  for idx = 1 to n do
    let want = Xdp_dist.Layout.owner bl [ idx ] in
    Alcotest.(check bool)
      (Printf.sprintf "A[%d] now with B's owner" idx)
      true
      (Xdp_symtab.Symtab.iown r.symtabs.(want) "A"
         (Xdp_util.Box.point [ idx ]))
  done

(* ---- determinism regression: simulator observables vs the seed ----

   The golden numbers below were captured from the seed implementation
   (sorted-list board, list-index marshalling) before the heap/queue
   board and offset-based extract/blit landed. The rewrite must be
   observationally identical: same makespan, message/byte counts, and
   the same delivery sequence — order, timestamps, endpoints, sizes —
   digest over the full trace. Equal-arrival ties must still break by
   global sequence number, or these digests change. *)

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

let check_run_golden name ~makespan ~messages ~bytes ~own ~digest
    (r : Xdp_runtime.Exec.result) =
  Alcotest.(check (float 1e-6)) (name ^ ": makespan") makespan r.stats.makespan;
  Alcotest.(check int) (name ^ ": messages") messages r.stats.messages;
  Alcotest.(check int) (name ^ ": bytes") bytes r.stats.bytes;
  Alcotest.(check int) (name ^ ": ownership transfers") own
    r.stats.ownership_transfers;
  Alcotest.(check int) (name ^ ": unmatched sends") 0 r.stats.unmatched_sends;
  Alcotest.(check int) (name ^ ": unmatched recvs") 0 r.stats.unmatched_recvs;
  Alcotest.(check string) (name ^ ": delivery trace digest") digest
    (digest_deliveries r.trace)

let test_determinism_fft3d_baseline () =
  let p =
    Xdp_apps.Fft3d.build ~n:8 ~nprocs:4 ~stage:Xdp_apps.Fft3d.Baseline ()
  in
  check_run_golden "fft3d baseline n=8 P=4" ~makespan:12092.0 ~messages:32
    ~bytes:4608 ~own:32 ~digest:"d3f3271aefffa368cc7fe5340ce9c909"
    (Xdp_runtime.Exec.run ~init:Xdp_apps.Fft3d.init ~nprocs:4 ~trace:true p)

let test_determinism_fft3d_pipelined () =
  let p =
    Xdp_apps.Fft3d.build ~n:8 ~nprocs:4 ~seg_rows:2
      ~stage:Xdp_apps.Fft3d.Pipelined ()
  in
  check_run_golden "fft3d pipelined n=8 P=4 seg_rows=2" ~makespan:26746.0
    ~messages:128 ~bytes:6144 ~own:128
    ~digest:"34aaae6d61bdc0170d026525e3000572"
    (Xdp_runtime.Exec.run ~init:Xdp_apps.Fft3d.init ~nprocs:4 ~trace:true p)

(* Engine parity on the pinned goldens: both the reference interpreter
   and the staged engine must hit the numbers above {e explicitly} —
   independent of what XDP_ENGINE made the default — so a regression
   in either engine (or a drift between them) is caught even when the
   CI matrix leg for the other engine is skipped. *)
let test_engine_parity_goldens () =
  List.iter
    (fun engine ->
      let p =
        Xdp_apps.Fft3d.build ~n:8 ~nprocs:4 ~stage:Xdp_apps.Fft3d.Baseline ()
      in
      check_run_golden "fft3d baseline (both engines)" ~makespan:12092.0
        ~messages:32 ~bytes:4608 ~own:32
        ~digest:"d3f3271aefffa368cc7fe5340ce9c909"
        (Xdp_runtime.Exec.run ~engine ~init:Xdp_apps.Fft3d.init ~nprocs:4
           ~trace:true p);
      let farm =
        Xdp_apps.Farm.build ~ntasks:24 ~nprocs:4
          ~variant:Xdp_apps.Farm.Dynamic ()
      in
      check_run_golden "farm dynamic (both engines)" ~makespan:7818.5
        ~messages:28 ~bytes:672 ~own:0
        ~digest:"4da667f68045df714fdf8dc947fd8a2a"
        (Xdp_runtime.Exec.run ~engine
           ~init:(Xdp_apps.Farm.init ~skew:(Xdp_apps.Farm.Random 7) ~ntasks:24)
           ~nprocs:4 ~trace:true farm))
    [ `Interp; `Compiled ]

(* ---- fusion-statistics golden: the superinstruction pass's region
   analysis is pinned by digest ([fusion_digest] hashes the fusion_stats
   record: statement counts, run-length histogram, specialized/batched
   loops, inlined kernel sites, blockers).  Compiled with
   [~fuse:true] explicitly, so the pin holds regardless of what
   XDP_NO_FUSE made the session default.  A drift here means the
   analysis started classifying abortable boundaries differently —
   exactly the kind of silent change the differential suite might
   survive by accident (both engines agreeing on a *wrong* region). *)
let fusion_digest (s : Xdp_runtime.Precompile.fusion_stats) =
  let b = Buffer.create 128 in
  Printf.bprintf b
    "stmts=%d fusable=%d units=%d loops=%d batched=%d kernels=%d hist="
    s.fs_statements s.fs_fusable s.fs_fused_units s.fs_spec_loops
    s.fs_batched_loops s.fs_inlined_kernels;
  List.iter (fun (l, n) -> Printf.bprintf b "%d:%d," l n) s.fs_run_hist;
  Printf.bprintf b " blockers=";
  List.iter (fun (r, n) -> Printf.bprintf b "%s:%d," r n) s.fs_blockers;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_fusion_digests () =
  let digest prog =
    let fs =
      Xdp_runtime.Precompile.fusion_stats
        (Xdp_runtime.Precompile.compile ~fuse:true
           ~cost:Xdp_sim.Costmodel.message_passing ~kernels:Xdp.Kernels.default
           ~scalars:[] prog)
    in
    (fusion_digest fs, fs)
  in
  let d_fft, fs_fft =
    digest
      (Xdp_apps.Fft3d.build ~n:8 ~nprocs:4 ~seg_rows:2
         ~stage:Xdp_apps.Fft3d.Pipelined ())
  in
  Alcotest.(check string) "fft3d pipelined: fusion digest"
    "d81e4678032879ccd4acd55329f86b05" d_fft;
  Alcotest.(check int) "fft3d pipelined: inlined kernel sites" 3
    fs_fft.Xdp_runtime.Precompile.fs_inlined_kernels;
  let d_jac, fs_jac =
    digest
      (Xdp_apps.Jacobi2d.build ~n:8 ~pr:2 ~pc:2 ~sweeps:1
         ~stage:Xdp_apps.Jacobi2d.Halo ())
  in
  Alcotest.(check string) "jacobi2d halo: fusion digest"
    "9de284aa6343c7f216ca0966421214a4" d_jac;
  Alcotest.(check int) "jacobi2d halo: batched loops" 6
    fs_jac.Xdp_runtime.Precompile.fs_batched_loops;
  (* every batched loop — the interior and copy-back column loops and
     the four edge loops — has affine subscripts, so each also gets a
     strip form (counted outside the digest) *)
  Alcotest.(check int) "jacobi2d halo: strip loops" 6
    fs_jac.Xdp_runtime.Precompile.fs_strip_loops;
  Alcotest.(check int) "fft3d pipelined: strip loops" 0
    fs_fft.Xdp_runtime.Precompile.fs_strip_loops

(* ---- fault-injection golden: the unreliable network is part of the
   deterministic surface too.  Same plan seed, same drops, same
   retransmit schedule, same digest over the full network trace
   (deliveries + drops + retransmits + acks + dedups).  Captured from
   the first implementation of lib/net. *)

let digest_net_events (tr : Xdp_sim.Trace.t) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Xdp_sim.Trace.event) ->
      let add = Buffer.add_string buf in
      match e with
      | Xdp_sim.Trace.Delivered { time; src; dst; name; kind; bytes } ->
          add
            (Printf.sprintf "D|%.6f|%d|%d|%s|%s|%d\n" time src dst name kind
               bytes)
      | Xdp_sim.Trace.Dropped { time; src; dst; name; attempt; what } ->
          add
            (Printf.sprintf "X|%.6f|%d|%d|%s|%d|%s\n" time src dst name
               attempt what)
      | Xdp_sim.Trace.Retransmit { time; src; dst; name; attempt } ->
          add (Printf.sprintf "R|%.6f|%d|%d|%s|%d\n" time src dst name attempt)
      | Xdp_sim.Trace.Ack { time; src; dst; name } ->
          add (Printf.sprintf "A|%.6f|%d|%d|%s\n" time src dst name)
      | Xdp_sim.Trace.Duped { time; src; dst; name } ->
          add (Printf.sprintf "U|%.6f|%d|%d|%s\n" time src dst name)
      | _ -> ())
    (Xdp_sim.Trace.events tr);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_determinism_fft3d_faulty () =
  let p =
    Xdp_apps.Fft3d.build ~n:8 ~nprocs:4 ~seg_rows:2
      ~stage:Xdp_apps.Fft3d.Pipelined ()
  in
  let fault =
    Xdp_net.Faultplan.make ~seed:42 ~drop:0.15 ~dup:0.05 ~jitter:0.3 ()
  in
  let r =
    Xdp_runtime.Exec.run ~init:Xdp_apps.Fft3d.init ~nprocs:4 ~trace:true
      ~fault p
  in
  let name = "fft3d pipelined n=8 P=4 drop=0.15" in
  Alcotest.(check (float 1e-5)) (name ^ ": makespan") 71438.024377
    r.stats.makespan;
  Alcotest.(check int) (name ^ ": messages") 128 r.stats.messages;
  Alcotest.(check int) (name ^ ": retransmits") 47 r.stats.retransmits;
  Alcotest.(check int) (name ^ ": acks") 157 r.stats.acks;
  Alcotest.(check int) (name ^ ": dups suppressed") 29 r.stats.dup_suppressed;
  Alcotest.(check int) (name ^ ": packets dropped") 49 r.stats.packets_dropped;
  Alcotest.(check int) (name ^ ": link failures") 0 r.stats.link_failures;
  Alcotest.(check string)
    (name ^ ": network trace digest")
    "1e26f4c0870c0c15885169d0b11dc36f"
    (digest_net_events r.trace);
  (* and the tensors still match the fault-free run *)
  let clean = Xdp_runtime.Exec.run ~init:Xdp_apps.Fft3d.init ~nprocs:4 p in
  Alcotest.(check bool) (name ^ ": tensors identical") true
    (Xdp_util.Tensor.equal
       (Xdp_runtime.Exec.array r "A")
       (Xdp_runtime.Exec.array clean "A"))

let test_determinism_farm_dynamic () =
  let p =
    Xdp_apps.Farm.build ~ntasks:24 ~nprocs:4 ~variant:Xdp_apps.Farm.Dynamic ()
  in
  check_run_golden "farm dynamic ntasks=24 P=4" ~makespan:7818.5 ~messages:28
    ~bytes:672 ~own:0 ~digest:"4da667f68045df714fdf8dc947fd8a2a"
    (Xdp_runtime.Exec.run
       ~init:(Xdp_apps.Farm.init ~skew:(Xdp_apps.Farm.Random 7) ~ntasks:24)
       ~nprocs:4 ~trace:true p)

(* ---- collective redistribution schedule golden: the planner's
   chosen schedule for the 8-proc redistflow all-to-all under a
   600-byte budget is pinned by a digest over Collective.describe
   (stable text: shape/window header plus every stage's move list).
   A drift means the search or the staging changed — which silently
   re-times every planned redistribution. *)
let test_redist_schedule_digest () =
  let moves =
    Xdp_dist.Redistribution.plan
      ~src:(Xdp_apps.Redistflow.layout_before ~n:16 ~m:2 ~nprocs:8)
      ~dst:(Xdp_apps.Redistflow.layout_after ~n:16 ~m:2 ~nprocs:8)
  in
  let sched, info =
    Xdp.Plan_redist.plan ~params:Xdp.Plan_redist.default_params ~nprocs:8
      ~budget:400 moves
  in
  Alcotest.(check string) "schedule digest" "04603e110ebe5db3c87d2abc22854f95"
    (Digest.to_hex (Digest.string (Xdp_dist.Collective.describe sched)));
  Alcotest.(check string) "shape" "ring"
    (Xdp_dist.Collective.shape_name info.Xdp.Plan_redist.shape);
  Alcotest.(check int) "window" 1 info.Xdp.Plan_redist.window;
  Alcotest.(check int) "stages" 7 info.Xdp.Plan_redist.stages;
  Alcotest.(check int) "moves" 56 info.Xdp.Plan_redist.moves;
  Alcotest.(check bool) "feasible" true info.Xdp.Plan_redist.feasible;
  Alcotest.(check bool) "est within budget" true
    (info.Xdp.Plan_redist.est_peak <= 400);
  Alcotest.(check bool) "naive over budget" true
    (info.Xdp.Plan_redist.naive_peak > 400)

(* ---- sequential reference golden: [Seq] is the oracle every SPMD
   result is checked against, so its own output is pinned bit for bit.
   The digest hashes every array (name, shape, each element in
   row-major order printed with [%h]) and every final scalar (sorted by
   name; ints, bools and floats rendered exactly).  Captured from the
   tree-walking interpreter before the reference was staged. *)

let seq_digest (r : Xdp_runtime.Seq.result) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, t) ->
      Printf.bprintf b "%s[%s]:" name
        (String.concat "," (List.map string_of_int (Xdp_util.Tensor.shape t)));
      Xdp_util.Box.iter
        (fun idx -> Printf.bprintf b "%h," (Xdp_util.Tensor.get t idx))
        (Xdp_util.Tensor.full_box t);
      Buffer.add_char b '\n')
    r.arrays;
  List.iter
    (fun (name, v) ->
      match v with
      | Xdp_runtime.Value.VInt n -> Printf.bprintf b "%s=i%d\n" name n
      | Xdp_runtime.Value.VFloat x -> Printf.bprintf b "%s=f%h\n" name x
      | Xdp_runtime.Value.VBool x -> Printf.bprintf b "%s=b%b\n" name x)
    (List.sort (fun (a, _) (b, _) -> compare a b) r.scalars);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_seq_digests () =
  let check name expected ~init prog =
    Alcotest.(check string) (name ^ ": sequential digest") expected
      (seq_digest (Xdp_runtime.Seq.run ~init prog))
  in
  check "jacobi2d n=32 x3" "9eac59b512ad572715bb25f9d926fe17"
    ~init:Xdp_apps.Jacobi2d.init
    (Xdp_apps.Jacobi2d.build ~n:32 ~pr:1 ~pc:1 ~sweeps:3
       ~stage:Xdp_apps.Jacobi2d.Sequential ());
  check "jacobi n=64 x4" "f2b3a08b9535022d9e1269e7c9e92c0c"
    ~init:Xdp_apps.Jacobi.init
    (Xdp_apps.Jacobi.build ~n:64 ~nprocs:4 ~sweeps:4
       ~stage:Xdp_apps.Jacobi.Sequential ());
  check "fft3d n=8" "0bfbe57c32d0dea0ea7d9c981756c308"
    ~init:Xdp_apps.Fft3d.init
    (Xdp_apps.Fft3d.sequential ~n:8 ~nprocs:4);
  check "vecadd n=16" "c6b819e2251a749ed93c2d10f1f55dc8"
    ~init:Xdp_apps.Vecadd.init
    (Xdp_apps.Vecadd.build ~n:16 ~nprocs:4 ~stage:Xdp_apps.Vecadd.Sequential
       ());
  check "reduce n=12" "2de272c5e0fc22e72b7b0843f2241d55"
    ~init:Xdp_apps.Reduce.init
    (Xdp_apps.Reduce.build ~n:12 ~nprocs:4 ~stage:Xdp_apps.Reduce.Sequential
       ())

(* ---- dlstack elaboration golden: the IL every placement elaborates
   to, hashed over [Pp.program_to_string], and the annealed winner at
   two configurations.  The elaborator and the estimator both read
   one description of each communication; a drift here means the
   programs themselves changed, not just their description. *)

module Space = Xdp_search.Space

let dlstack_il_digest cfg pls =
  let b = Buffer.create 4096 in
  List.iter
    (fun pl ->
      Printf.bprintf b "%s %s\n" (Space.key pl)
        (Digest.to_hex
           (Digest.string
              (Xdp.Pp.program_to_string (Xdp_apps.Dlstack.build cfg pl)))))
    pls;
  (List.length pls, Digest.to_hex (Digest.string (Buffer.contents b)))

let uniform_placements cfg =
  List.concat_map
    (fun (dp, pp) ->
      List.concat_map
        (fun act ->
          List.concat_map
            (fun wgt ->
              List.filter_map
                (fun gsum -> Space.uniform cfg ~dp ~pp act wgt gsum)
                [ Space.Tree; Space.Allgather ])
            [ Space.Wshard; Space.Wrepl ])
        [ Space.Row; Space.Col; Space.Repl ])
    (Space.meshes cfg)

(* test_search's mixed-activation pipelines: every transfer kind *)
let mixed_placements () =
  List.concat_map
    (fun (a1, a2, a3) ->
      List.map
        (fun stages ->
          let acts = [| a1; a2; a3 |] in
          Space.normalize
            {
              Space.dp = 2;
              pp = 2;
              layers =
                Array.init 3 (fun k ->
                    {
                      Space.stage = stages.(k);
                      act = acts.(k);
                      wgt = Space.Wrepl;
                      gsum = Space.Tree;
                    });
            })
        [ [| 0; 0; 1 |]; [| 0; 1; 1 |] ])
    [
      (Space.Row, Space.Col, Space.Repl);
      (Space.Col, Space.Repl, Space.Row);
      (Space.Repl, Space.Row, Space.Col);
      (Space.Col, Space.Row, Space.Repl);
    ]

(* the naive and hand anchors under every --shard/--wshard override,
   resolved the way xdpc and the batch service resolve them *)
let override_placements () =
  List.concat_map
    (fun placement ->
      List.concat_map
        (fun shard ->
          List.filter_map
            (fun wshard ->
              let spec =
                {
                  Xdp_batch.Manifest.default_spec with
                  app = "dlstack";
                  n = 32;
                  procs = 4;
                  dim = 8;
                  layers = 3;
                  placement;
                  shard;
                  wshard;
                }
              in
              Result.to_option (Xdp_batch.Workload.dlstack_placement spec))
            [ ""; "shard"; "repl" ])
        [ ""; "row"; "col"; "repl" ])
    [ "naive"; "hand" ]

let test_dlstack_il_digests () =
  let check name cfg pls (count, digest) =
    Alcotest.(check (pair int string))
      (name ^ ": programs, IL digest") (count, digest)
      (dlstack_il_digest cfg pls)
  in
  let small = { Space.procs = 4; batch = 8; dim = 4; nlayers = 3 } in
  let wide = { Space.procs = 8; batch = 16; dim = 8; nlayers = 3 } in
  let campaign = { Space.procs = 4; batch = 32; dim = 8; nlayers = 3 } in
  check "uniform P4 B8 D4 L3" small (uniform_placements small)
    (24, "dff5395c40e1eb6eb0fd4ca903b167e3");
  check "uniform P8 B16 D8 L3" wide (uniform_placements wide)
    (24, "a2e0cdbc9393902db2e1d6de36863d82");
  check "mixed pipelines P4 B8 D4 L3" small (mixed_placements ())
    (8, "f99de6d146fc9f280c1c4dee59f9f0dc");
  check "anchor overrides P4 B32 D8 L3" campaign (override_placements ())
    (24, "d7556bd31f9ad0e031db1e973f58655f")

let test_dlstack_search_winners () =
  let check cfg expected =
    let r =
      Xdp_search.Anneal.search ~params:Xdp_search.Estimate.default_params cfg
        Xdp_search.Anneal.default_options
    in
    let s = r.Xdp_search.Anneal.best_summary in
    let c = s.Space.comm in
    Alcotest.(check string)
      (Printf.sprintf "winner at P%d B%d D%d L%d" cfg.Space.procs
         cfg.Space.batch cfg.Space.dim cfg.Space.nlayers)
      expected
      (Printf.sprintf "%s msgs=%d elems=%d bytes=%d compute=%d est=%h eval=%d/%d"
         (Space.key r.Xdp_search.Anneal.best)
         c.Xdp_search.Estimate.msgs c.Xdp_search.Estimate.payload_elems
         c.Xdp_search.Estimate.wire_bytes s.Space.compute_elems
         s.Space.est_makespan r.Xdp_search.Anneal.evaluated
         r.Xdp_search.Anneal.seeded)
  in
  check
    { Space.procs = 4; batch = 32; dim = 8; nlayers = 3 }
    "dp4.pp1:rwt0,rwt0,rwt0 msgs=18 elems=144 bytes=1152 compute=408 \
     est=0x1.95cp+13 eval=974/14";
  check
    { Space.procs = 64; batch = 128; dim = 64; nlayers = 6 }
    "dp16.pp4:cst0,cst0,cst0,cst0,cst0,cst0 msgs=2048 elems=16384 \
     bytes=131072 compute=6168 est=0x1.4e1ep+18 eval=981/21"

let () =
  Alcotest.run "golden"
    [
      ( "determinism vs seed",
        [
          Alcotest.test_case "fft3d baseline stats+trace" `Quick
            test_determinism_fft3d_baseline;
          Alcotest.test_case "fft3d pipelined stats+trace" `Quick
            test_determinism_fft3d_pipelined;
          Alcotest.test_case "farm dynamic stats+trace" `Quick
            test_determinism_farm_dynamic;
          Alcotest.test_case "both engines hit the goldens" `Quick
            test_engine_parity_goldens;
          Alcotest.test_case "fusion statistics digests" `Quick
            test_fusion_digests;
          Alcotest.test_case "fft3d pipelined under faults stats+trace" `Quick
            test_determinism_fft3d_faulty;
          Alcotest.test_case "collective redistribution schedule digest" `Quick
            test_redist_schedule_digest;
          Alcotest.test_case "sequential reference digests" `Quick
            test_seq_digests;
          Alcotest.test_case "dlstack IL digests" `Quick
            test_dlstack_il_digests;
          Alcotest.test_case "dlstack search winners" `Quick
            test_dlstack_search_winners;
        ] );
      ( "paper listings",
        [
          Alcotest.test_case "§2.2 naive" `Quick test_ex22_naive;
          Alcotest.test_case "§2.2 optimized" `Quick test_ex22_optimized;
          Alcotest.test_case "§2.2 ownership variant (render)" `Quick
            test_ex22_ownership_variant_renders;
          Alcotest.test_case "§2.2 ownership variant (execute)" `Quick
            test_ex22_ownership_variant_executes;
          Alcotest.test_case "§4 baseline" `Quick test_ex4_baseline;
          Alcotest.test_case "§4 localized" `Quick test_ex4_localized;
          Alcotest.test_case "§4 pipelined" `Quick test_ex4_pipelined;
        ] );
    ]
