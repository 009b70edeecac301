(* SPMD executor mechanics: scheduling, statistics, gather, misuse
   diagnostics, determinism, cost-model sensitivity. *)

open Xdp.Build
module Exec = Xdp_runtime.Exec

let grid n = Xdp_dist.Grid.linear n

let decls n =
  [
    decl ~name:"A" ~shape:[ 8 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid:(grid n)
      ~seg_shape:[ 8 / n ] ();
    decl ~name:"T" ~shape:[ n ] ~dist:[ Xdp_dist.Dist.Block ] ~grid:(grid n)
      ~seg_shape:[ 1 ] ();
  ]

let prog ?(n = 2) body = program ~name:"exec-test" ~decls:(decls n) body
let iv = var "i"

let test_spmd_guarded_writes () =
  (* every proc writes only its own elements *)
  let p =
    prog
      [
        loop "i" (i 1) (i 8)
          [ iown (sec "A" [ at iv ]) @: [ set "A" [ iv ] (iv *: i 10) ] ];
      ]
  in
  let r = Exec.run ~nprocs:2 p in
  let a = Exec.array r "A" in
  for k = 1 to 8 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "A[%d]" k)
      (float_of_int (10 * k))
      (Xdp_util.Tensor.get a [ k ])
  done;
  Alcotest.(check int) "guard evals: 8 iters x 2 procs" 16
    r.stats.guard_evals;
  Alcotest.(check int) "guard hits: 8" 8 r.stats.guard_hits

let test_universal_scalars_replicated () =
  (* each proc has its own copy of a universal scalar *)
  let p = prog [ setv "x" (mypid *: i 100); set "T" [ mypid ] (var "x") ] in
  let r = Exec.run ~nprocs:2 p in
  let a = Exec.array r "T" in
  Alcotest.(check (float 0.0)) "P1 copy" 100.0 (Xdp_util.Tensor.get a [ 1 ]);
  Alcotest.(check (float 0.0)) "P2 copy" 200.0 (Xdp_util.Tensor.get a [ 2 ])

let test_transfer_roundtrip () =
  (* P1 sends A[1], P2 receives it into T[2] *)
  let p =
    prog
      [
        iown (sec "A" [ at (i 1) ]) @: [ send (sec "A" [ at (i 1) ]) ];
        (mypid =: i 2)
        @: [
             recv ~into:(sec "T" [ at mypid ]) ~from:(sec "A" [ at (i 1) ]);
             await (sec "T" [ at mypid ])
             @: [ set "A" [ i 5 ] (elem "T" [ mypid ] +: f 1.0) ];
           ];
      ]
  in
  let r = Exec.run ~init:(fun _ idx -> if idx = [ 1 ] then 41.0 else 0.0) ~nprocs:2 p in
  Alcotest.(check (float 0.0)) "value moved" 42.0
    (Xdp_util.Tensor.get (Exec.array r "A") [ 5 ]);
  Alcotest.(check int) "one message" 1 r.stats.messages;
  Alcotest.(check bool) "nonzero makespan" true (r.stats.makespan > 0.0)

let test_misuse_diagnostics () =
  let cases =
    [
      ("write unowned", [ set "A" [ i 1 ] (f 0.0) ]);
      (* all procs execute; P2 doesn't own A[1] *)
      ( "read unowned outside rule",
        [ (mypid =: i 2) @: [ setv "x" (elem "A" [ i 1 ]) ] ] );
      ("send unowned", [ (mypid =: i 2) @: [ send (sec "A" [ at (i 1) ]) ] ]);
      ( "recv into unowned",
        [
          (mypid =: i 2)
          @: [ recv ~into:(sec "A" [ at (i 1) ]) ~from:(sec "A" [ at (i 2) ]) ];
        ] );
      ( "ownership recv of owned",
        [ (mypid =: i 1) @: [ recv_owner (sec "A" [ at (i 1) ]) ] ] );
      ("unknown kernel", [ apply "nope" [ sec "A" [ all ] ] ]);
    ]
  in
  List.iter
    (fun (name, body) ->
      Alcotest.(check bool) name true
        (try
           ignore (Exec.run ~nprocs:2 (prog body));
           false
         with Exec.Xdp_misuse _ -> true))
    cases

let test_deadlock_detection () =
  (* a receive that nobody sends *)
  let p =
    prog
      [
        (mypid =: i 1)
        @: [
             recv ~into:(sec "T" [ at mypid ]) ~from:(sec "A" [ at (i 8) ]);
             await (sec "T" [ at mypid ]) @: [ setv "x" (i 1) ];
           ];
      ]
  in
  Alcotest.(check bool) "deadlock raised" true
    (try
       ignore (Exec.run ~nprocs:2 p);
       false
     with Exec.Deadlock msg ->
       (* message names the waiting processor *)
       String.length msg > 0)

(* The whole Deadlock text for one small program, on both engines: P1
   waits on a receive from Y[2] while P2 sends X[2] that nobody
   receives. *)
let test_deadlock_text () =
  let p =
    program ~name:"stuck"
      ~decls:
        [
          decl ~name:"X" ~shape:[ 2 ] ~dist:[ Xdp_dist.Dist.Block ]
            ~grid:(grid 2) ();
          decl ~name:"Y" ~shape:[ 2 ] ~dist:[ Xdp_dist.Dist.Block ]
            ~grid:(grid 2) ();
        ]
      [
        (mypid =: i 1)
        @: [
             recv ~into:(sec "X" [ at (i 1) ]) ~from:(sec "Y" [ at (i 2) ]);
             await (sec "X" [ at (i 1) ]) @: [ setv "x" (i 1) ];
           ];
        (mypid =: i 2) @: [ send (sec "X" [ at (i 2) ]) ];
      ]
  in
  List.iter
    (fun engine ->
      match Exec.run ~engine ~nprocs:2 p with
      | (_ : Exec.result) -> Alcotest.fail "expected deadlock"
      | exception Exec.Deadlock msg ->
          Alcotest.(check string) "deadlock text"
            "stuck: all processors blocked or done with nothing in flight \
             (no messages lost \u{2014} the program is missing a matching \
             send or receive):\n\
             P1 waits on X[1]\n\
             pending sends: 1, pending recvs: 1\n\
             sends: X[2] from P2\n\
             recvs: Y[2] by P1"
            msg)
    [ `Interp; `Compiled ]

(* A directed send to a processor outside 1..P is a misuse, raised by
   the first bad destination in order (so later destinations are never
   evaluated), at the clock reached by then, on both engines. *)
let test_invalid_destination () =
  let p dests =
    program ~name:"badsend"
      ~decls:
        [ decl ~name:"A" ~shape:[ 4 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid:(grid 2) () ]
      [ setv "x" (i 3); (mypid =: i 1) @: [ send_to (sec "A" [ at (i 1) ]) dests ] ]
  in
  let outcome engine dests =
    match Exec.run ~engine ~nprocs:2 (p dests) with
    | (_ : Exec.result) -> "ok"
    | exception Exec.Xdp_misuse m -> m
    | exception Invalid_argument m -> "invalid: " ^ m
  in
  List.iter
    (fun engine ->
      Alcotest.(check string) "second destination bad"
        "P1 at t=7.5 in badsend: send directed to invalid processor 6"
        (outcome engine [ i 2; var "x" +: (i 1 *: var "x") ]);
      Alcotest.(check string) "first destination bad, second never evaluated"
        "P1 at t=6.5 in badsend: send directed to invalid processor 0"
        (outcome engine [ i 0; var "y" ]);
      Alcotest.(check string) "unbound destination first"
        "invalid: unbound scalar variable y"
        (outcome engine [ var "y"; i 0 ]))
    [ `Interp; `Compiled ]

let test_unmatched_reported () =
  (* a send nobody receives is reported in stats, not an error *)
  let p = prog [ iown (sec "A" [ at (i 1) ]) @: [ send (sec "A" [ at (i 1) ]) ] ] in
  let r = Exec.run ~nprocs:2 p in
  Alcotest.(check int) "unmatched send" 1 r.stats.unmatched_sends

let test_determinism () =
  let build () =
    Xdp_apps.Fft3d.build ~n:4 ~nprocs:4 ~stage:Xdp_apps.Fft3d.Pipelined ()
  in
  let r1 = Exec.run ~init:Xdp_apps.Fft3d.init ~nprocs:4 (build ()) in
  let r2 = Exec.run ~init:Xdp_apps.Fft3d.init ~nprocs:4 (build ()) in
  Alcotest.(check (float 0.0)) "same makespan" r1.stats.makespan
    r2.stats.makespan;
  Alcotest.(check int) "same messages" r1.stats.messages r2.stats.messages;
  Alcotest.(check bool) "same data" true
    (Xdp_util.Tensor.equal (Exec.array r1 "A") (Exec.array r2 "A"))

let test_cost_model_sensitivity () =
  let p = Xdp_apps.Vecadd.build ~n:8 ~nprocs:2 ~dist_b:Xdp_dist.Dist.Cyclic
      ~stage:Xdp_apps.Vecadd.Naive () in
  let mp = Exec.run ~cost:Xdp_sim.Costmodel.message_passing
      ~init:Xdp_apps.Vecadd.init ~nprocs:2 p in
  let sa = Exec.run ~cost:Xdp_sim.Costmodel.shared_address
      ~init:Xdp_apps.Vecadd.init ~nprocs:2 p in
  let ideal = Exec.run ~cost:Xdp_sim.Costmodel.idealized
      ~init:Xdp_apps.Vecadd.init ~nprocs:2 p in
  Alcotest.(check bool) "mp slower than shared-address" true
    (mp.stats.makespan > sa.stats.makespan);
  Alcotest.(check bool) "shared-address slower than ideal" true
    (sa.stats.makespan > ideal.stats.makespan);
  Alcotest.(check int) "same messages everywhere" mp.stats.messages
    sa.stats.messages

let test_gather_and_ownership_defects () =
  let p = prog [] in
  let r = Exec.run ~nprocs:2 p in
  let unowned, multi = Exec.ownership_defects r p in
  Alcotest.(check int) "none unowned" 0 unowned;
  Alcotest.(check int) "none multiply owned" 0 multi

let test_layout_procs_mismatch () =
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore (Exec.run ~nprocs:4 (prog ~n:2 []));
       false
     with Invalid_argument _ -> true)

let test_step_budget () =
  let p = prog [ loop "i" (i 1) (i 100000) [ setv "x" iv ] ] in
  Alcotest.(check bool) "budget enforced" true
    (try
       ignore (Exec.run ~max_steps:100 ~nprocs:2 p);
       false
     with Exec.Xdp_misuse _ -> true)

let test_trace_events_recorded () =
  let p =
    prog
      [
        iown (sec "A" [ at (i 1) ]) @: [ send (sec "A" [ at (i 1) ]) ];
        (mypid =: i 2)
        @: [ recv ~into:(sec "T" [ at mypid ]) ~from:(sec "A" [ at (i 1) ]) ];
      ]
  in
  let r = Exec.run ~trace:true ~nprocs:2 p in
  let events = Xdp_sim.Trace.events r.trace in
  Alcotest.(check bool) "has send/recv/delivery" true
    (List.exists (function Xdp_sim.Trace.Send_init _ -> true | _ -> false) events
    && List.exists (function Xdp_sim.Trace.Recv_init _ -> true | _ -> false) events
    && List.exists (function Xdp_sim.Trace.Delivered _ -> true | _ -> false) events)

let () =
  Alcotest.run "exec"
    [
      ( "unit",
        [
          Alcotest.test_case "guarded writes" `Quick test_spmd_guarded_writes;
          Alcotest.test_case "universal scalars" `Quick
            test_universal_scalars_replicated;
          Alcotest.test_case "transfer roundtrip" `Quick
            test_transfer_roundtrip;
          Alcotest.test_case "misuse diagnostics" `Quick
            test_misuse_diagnostics;
          Alcotest.test_case "deadlock detection" `Quick
            test_deadlock_detection;
          Alcotest.test_case "deadlock text" `Quick test_deadlock_text;
          Alcotest.test_case "invalid send destination" `Quick
            test_invalid_destination;
          Alcotest.test_case "unmatched reported" `Quick
            test_unmatched_reported;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "cost sensitivity" `Quick
            test_cost_model_sensitivity;
          Alcotest.test_case "ownership defects" `Quick
            test_gather_and_ownership_defects;
          Alcotest.test_case "nprocs mismatch" `Quick
            test_layout_procs_mismatch;
          Alcotest.test_case "step budget" `Quick test_step_budget;
          Alcotest.test_case "trace recorded" `Quick
            test_trace_events_recorded;
        ] );
    ]
