(* The executor's comm stack on its own: NIC interposition splits a
   directed value send, the no-fault stack delivers exactly what a
   bare board does, and a stack with no fault plan and no NIC reports
   no transport or NIC activity. *)

module Comm = Xdp_runtime.Comm
module Board = Xdp_sim.Board
module Trace = Xdp_sim.Trace
module Faultplan = Xdp_net.Faultplan
module Prog = Xdp_nic.Prog

let cost = Xdp_sim.Costmodel.message_passing

let make ?(nic = []) nprocs =
  match
    Comm.create ~cost ~trace:(Trace.create ~enabled:false)
      ~fault:Faultplan.none ~net:Xdp_net.Transport.default_config ~nic ~nprocs
  with
  | Ok c -> c
  | Error e -> Alcotest.fail e

let rec drain pop acc =
  match pop () with None -> List.rev acc | Some d -> drain pop (d :: acc)

let deliveries c =
  drain (fun () -> if Comm.has_delivery c then Comm.pop_delivery c else None) []

let pending = Alcotest.(list (triple string string int))

let show l = List.map (fun (n, k, pid) -> (n, Board.kind_to_string k, pid)) l

(* P2's NIC drops every packet; P3 has no NIC.  One send directed to
   both: the P3 copy waits on the board for P3 only, the P2 copy is
   consumed by the fabric. *)
let test_nic_split () =
  let c = make ~nic:[ (1, Prog.(make ~name:"wall" [ instr True Drop ])) ] 3 in
  Comm.post_send c ~time:0.0 ~src:0 ~name:"X[1]" ~kind:Board.Value
    ~payload:[| 1.0; 2.0 |] ~directed:(Some [ 1; 2 ]);
  Alcotest.check pending "one plain copy on the wire"
    [ ("X[1]", "value", 0) ]
    (show (Board.pending_sends (Comm.board c)));
  let s = Comm.stats c in
  Alcotest.(check int) "NIC saw one packet" 1 s.nic_packets;
  Alcotest.(check int) "NIC dropped it" 1 s.nic_filtered;
  Comm.post_recv c ~time:0.0 ~dst:1 ~name:"X[1]" ~kind:Board.Value ~token:1;
  Comm.post_recv c ~time:0.0 ~dst:2 ~name:"X[1]" ~kind:Board.Value ~token:2;
  match deliveries c with
  | [ d ] ->
      Alcotest.(check int) "delivered to P3" 2 d.dst;
      Alcotest.(check int) "P3's token" 2 d.token;
      Alcotest.(check (array (float 0.0))) "payload" [| 1.0; 2.0 |] d.payload;
      Alcotest.check pending "P2's receive still waits"
        [ ("X[1]", "value", 1) ]
        (show (Board.pending_recvs (Comm.board c)))
  | ds -> Alcotest.failf "expected one delivery, got %d" (List.length ds)

(* A mix of undirected, directed and multicast sends, receives posted
   before and after their sends, and ownership transfers. *)
let script ~(send : Comm.send) ~(recv : Comm.recv) =
  recv ~time:0.0 ~dst:1 ~name:"A[1]" ~kind:Board.Value ~token:1;
  send ~time:5.0 ~src:0 ~name:"A[1]" ~kind:Board.Value ~payload:[| 1.0 |]
    ~directed:None;
  send ~time:1.0 ~src:2 ~name:"B[1:4]" ~kind:Board.Value
    ~payload:[| 1.0; 2.0; 3.0; 4.0 |] ~directed:(Some [ 0; 3 ]);
  send ~time:2.0 ~src:3 ~name:"C[2]" ~kind:Board.Owner_value ~payload:[| 7.0 |]
    ~directed:None;
  recv ~time:3.0 ~dst:3 ~name:"B[1:4]" ~kind:Board.Value ~token:2;
  recv ~time:9.0 ~dst:0 ~name:"B[1:4]" ~kind:Board.Value ~token:3;
  recv ~time:4.0 ~dst:1 ~name:"C[2]" ~kind:Board.Owner_value ~token:4;
  send ~time:6.0 ~src:1 ~name:"D" ~kind:Board.Owner ~payload:[||]
    ~directed:None;
  recv ~time:6.0 ~dst:2 ~name:"D" ~kind:Board.Owner ~token:5

let test_none_is_board () =
  let c = make 4 and b = Board.create cost in
  script ~send:(Comm.post_send c) ~recv:(Comm.post_recv c);
  script ~send:(Board.post_send b) ~recv:(Board.post_recv b);
  let got = deliveries c in
  let want =
    drain
      (fun () -> if Board.has_delivery b then Board.pop_delivery b else None)
      []
  in
  Alcotest.(check int) "five deliveries" 5 (List.length want);
  Alcotest.(check (list (pair int (float 0.0))))
    "same order and arrival times"
    (List.map (fun (d : Board.delivery) -> (d.token, d.arrival)) want)
    (List.map (fun (d : Board.delivery) -> (d.token, d.arrival)) got);
  Alcotest.(check bool) "identical deliveries" true (got = want)

let comm_fields (s : Trace.stats) =
  [
    ("messages", s.messages);
    ("bytes", s.bytes);
    ("unmatched_sends", s.unmatched_sends);
    ("unmatched_recvs", s.unmatched_recvs);
    ("retransmits", s.retransmits);
    ("acks", s.acks);
    ("dup_suppressed", s.dup_suppressed);
    ("packets_dropped", s.packets_dropped);
    ("net_overhead_bytes", s.net_overhead_bytes);
    ("link_failures", s.link_failures);
    ("nic_packets", s.nic_packets);
    ("nic_filtered", s.nic_filtered);
    ("nic_aggregated", s.nic_aggregated);
    ("nic_emitted", s.nic_emitted);
    ("nic_fanout_copies", s.nic_fanout_copies);
    ("nic_msgs_saved", s.nic_msgs_saved);
    ("nic_bytes", s.nic_bytes);
  ]

let test_bare_stats_zero () =
  let s = Comm.stats (make 4) in
  List.iter (fun (f, v) -> Alcotest.(check int) f 0 v) (comm_fields s);
  Alcotest.(check (array int)) "peak in-flight, padded" [| 0; 0; 0; 0 |]
    s.peak_inflight_bytes;
  (* after traffic only the board's own counters move *)
  let c = make 4 in
  script ~send:(Comm.post_send c) ~recv:(Comm.post_recv c);
  ignore (deliveries c);
  let s = Comm.stats c in
  Alcotest.(check int) "messages" 5 s.messages;
  List.iter
    (fun (f, v) ->
      if not (List.mem f [ "messages"; "bytes" ]) then
        Alcotest.(check int) f 0 v)
    (comm_fields s)

let () =
  Alcotest.run "comm"
    [
      ( "unit",
        [
          Alcotest.test_case "NIC and plain destinations split" `Quick
            test_nic_split;
          Alcotest.test_case "no fault plan delivers like the board" `Quick
            test_none_is_board;
          Alcotest.test_case "no plan, no NIC: comm stats zero" `Quick
            test_bare_stats_zero;
        ] );
    ]
