(* 2-D Jacobi tests: the four-way halo exchange on 2-D grids verifies
   against the sequential five-point stencil across grid shapes. *)

module Exec = Xdp_runtime.Exec

let reference ~n ~sweeps =
  Xdp_runtime.Seq.array
    (Xdp_runtime.Seq.run ~init:Xdp_apps.Jacobi2d.init
       (Xdp_apps.Jacobi2d.build ~n ~pr:1 ~pc:1 ~sweeps
          ~stage:Xdp_apps.Jacobi2d.Sequential ()))
    "A"

let run_halo ~n ~pr ~pc ~sweeps =
  let p =
    Xdp_apps.Jacobi2d.build ~n ~pr ~pc ~sweeps ~stage:Xdp_apps.Jacobi2d.Halo
      ()
  in
  Exec.run ~init:Xdp_apps.Jacobi2d.init ~nprocs:(pr * pc) p

let test_grid_shapes () =
  List.iter
    (fun (n, pr, pc, sweeps) ->
      let expected = reference ~n ~sweeps in
      let r = run_halo ~n ~pr ~pc ~sweeps in
      let d = Xdp_util.Tensor.max_diff (Exec.array r "A") expected in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d grid=%dx%d sweeps=%d (diff %g)" n pr pc sweeps
           d)
        true (d < 1e-9))
    [
      (8, 2, 2, 1);
      (8, 2, 2, 3);
      (8, 1, 4, 2);
      (8, 4, 1, 2);
      (16, 2, 2, 2);
      (16, 4, 2, 2);
      (16, 2, 4, 3);
      (16, 4, 4, 2);
      (12, 3, 2, 2);
    ]

let test_message_counts () =
  (* interior processors exchange 4 strips, edge ones fewer: total =
     2 * (vertical neighbor pairs + horizontal neighbor pairs) *)
  let n = 16 and pr = 2 and pc = 2 and sweeps = 3 in
  let r = run_halo ~n ~pr ~pc ~sweeps in
  let vertical = (pr - 1) * pc and horizontal = pr * (pc - 1) in
  Alcotest.(check int) "messages per sweep"
    (2 * (vertical + horizontal) * sweeps)
    r.stats.messages

let test_strip_vs_tile_volume () =
  (* at equal P, the 2x2 tile decomposition moves less halo volume than
     1x4 strips *)
  let n = 16 and sweeps = 2 in
  let strips = run_halo ~n ~pr:1 ~pc:4 ~sweeps in
  let tiles = run_halo ~n ~pr:2 ~pc:2 ~sweeps in
  Alcotest.(check bool) "tiles move fewer bytes" true
    (tiles.stats.bytes < strips.stats.bytes)

let test_bad_configs_rejected () =
  List.iter
    (fun (n, pr, pc) ->
      Alcotest.(check bool)
        (Printf.sprintf "n=%d %dx%d rejected" n pr pc)
        true
        (try
           ignore
             (Xdp_apps.Jacobi2d.build ~n ~pr ~pc ~sweeps:1
                ~stage:Xdp_apps.Jacobi2d.Halo ());
           false
         with Invalid_argument _ -> true))
    [ (8, 3, 2); (8, 8, 1); (8, 1, 8) ]

let prop_random_grids =
  QCheck.Test.make ~name:"halo matches sequential on random grids"
    ~count:12
    QCheck.(pair (int_range 1 3) (int_range 1 3))
    (fun (pr, pc) ->
      let n = 12 and sweeps = 2 in
      if n mod pr <> 0 || n mod pc <> 0 || n / pr < 2 || n / pc < 2 then true
      else
        let expected = reference ~n ~sweeps in
        let r = run_halo ~n ~pr ~pc ~sweeps in
        Xdp_util.Tensor.max_diff (Exec.array r "A") expected < 1e-9)

(* The halo receives land in HN/HS/HW/HE, which the interior sweep
   never touches, so every fused region runs in one turn while the
   halos are in flight (DESIGN.md §4d).  The rule this replaced fell
   back whenever the processor had any receive in flight: 224 fused
   turns on this run, each nested loop of a fallen-back region its
   own turn. *)
let test_overlap_fusion () =
  let n = 64 and pr = 2 and pc = 2 and sweeps = 2 in
  let p =
    Xdp_apps.Jacobi2d.build ~n ~pr ~pc ~sweeps ~stage:Xdp_apps.Jacobi2d.Halo
      ()
  in
  let cost = Xdp_sim.Costmodel.message_passing in
  let staged =
    Xdp_runtime.Precompile.compile ~fuse:true ~cost
      ~kernels:Xdp.Kernels.default ~scalars:[] p
  in
  let r =
    Exec.run ~engine:`Compiled ~staged ~cost ~init:Xdp_apps.Jacobi2d.init
      ~nprocs:(pr * pc) p
  in
  Alcotest.(check int) "no fallback" 0 r.fusion.fallback_regions;
  Alcotest.(check bool)
    (Printf.sprintf "fused turns %d < 224" r.fusion.fused_turns)
    true
    (r.fusion.fused_turns < 224)

let () =
  Alcotest.run "jacobi2d"
    [
      ( "unit",
        [
          Alcotest.test_case "grid shapes" `Quick test_grid_shapes;
          Alcotest.test_case "message counts" `Quick test_message_counts;
          Alcotest.test_case "strip vs tile" `Quick test_strip_vs_tile_volume;
          Alcotest.test_case "bad configs" `Quick test_bad_configs_rejected;
          Alcotest.test_case "overlap fusion" `Quick test_overlap_fusion;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_grids ]);
    ]
