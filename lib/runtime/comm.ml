module Board = Xdp_sim.Board
module Trace = Xdp_sim.Trace
module Faultplan = Xdp_net.Faultplan
module Transport = Xdp_net.Transport
module Fabric = Xdp_nic.Fabric

type send =
  time:float ->
  src:int ->
  name:string ->
  kind:Board.kind ->
  payload:float array ->
  directed:int list option ->
  unit

type recv =
  time:float -> dst:int -> name:string -> kind:Board.kind -> token:int -> unit

type t = {
  board : Board.t;
  transport : Transport.t option;
  fabric : Fabric.t option;
  nprocs : int;
  (* the hot operations, bound once to the layers that exist *)
  send : send;
  recv : recv;
  has : unit -> bool;
  peek : unit -> Board.delivery option;
  pop : unit -> Board.delivery option;
}

(* Offer each NIC-attached destination's copy to its NIC; the rest of a
   directed value send goes on the wire unchanged. *)
let nic_send f wire ~time ~src ~name ~kind ~payload ~directed =
  match (kind, directed) with
  | Board.Value, Some dsts when List.exists (Fabric.handles f) dsts ->
      let nicked, plain = List.partition (Fabric.handles f) dsts in
      if plain <> [] then
        wire ~time ~src ~name ~kind ~payload ~directed:(Some plain);
      List.iter
        (fun dst -> Fabric.offer f ~time ~src ~dst ~name ~payload)
        nicked
  | _ -> wire ~time ~src ~name ~kind ~payload ~directed

let create ~cost ~trace ~fault ~net ~nic ~nprocs =
  let board = Board.create cost in
  let transport =
    if Faultplan.is_none fault then None
    else Some (Transport.create ~config:net ~plan:fault ~trace board ~cost)
  in
  let wire, recv, has, peek, pop =
    match transport with
    | None ->
        ( Board.post_send board,
          Board.post_recv board,
          (fun () -> Board.has_delivery board),
          (fun () -> Board.peek_delivery board),
          fun () -> Board.pop_delivery board )
    | Some n ->
        ( Transport.post_send n,
          Transport.post_recv n,
          (fun () -> Transport.has_delivery n),
          (fun () -> Transport.peek_delivery n),
          fun () -> Transport.pop_delivery n )
  in
  let fabric =
    match nic with
    | [] -> Ok None
    | specs ->
        Result.map Option.some
          (Fabric.create ~nprocs ~cost ~trace ~post:wire specs)
  in
  Result.map
    (fun fabric ->
      let send = match fabric with None -> wire | Some f -> nic_send f wire in
      { board; transport; fabric; nprocs; send; recv; has; peek; pop })
    fabric

let post_send c = c.send
let post_recv c = c.recv
let has_delivery c = c.has ()
let peek_delivery c = c.peek ()
let pop_delivery c = c.pop ()
let board c = c.board

let failures c =
  match c.transport with Some n -> Transport.failures n | None -> []

let stats c =
  let net f = match c.transport with Some n -> f n | None -> 0 in
  let nic f = match c.fabric with Some x -> f x | None -> 0 in
  let raw = Board.peak_inflight c.board in
  {
    Trace.makespan = 0.0;
    messages = Board.messages_matched c.board;
    bytes = Board.bytes_matched c.board;
    ownership_transfers = 0;
    guard_evals = 0;
    guard_hits = 0;
    busy = [||];
    finish = [||];
    peak_storage = [||];
    statements = 0;
    unmatched_sends = List.length (Board.pending_sends c.board);
    unmatched_recvs = List.length (Board.pending_recvs c.board);
    retransmits = net Transport.retransmits;
    acks = net Transport.acks;
    dup_suppressed = net Transport.dup_suppressed;
    packets_dropped = net Transport.packets_dropped;
    net_overhead_bytes = net Transport.overhead_bytes;
    link_failures = List.length (failures c);
    nic_packets = nic Fabric.packets;
    nic_filtered = nic Fabric.filtered;
    nic_aggregated = nic Fabric.absorbed;
    nic_emitted = nic Fabric.emitted;
    nic_fanout_copies = nic Fabric.fanout_copies;
    nic_msgs_saved = nic Fabric.msgs_saved;
    nic_bytes = nic Fabric.fabric_bytes;
    (* pad the board's highest-pid-seen array to the machine size *)
    peak_inflight_bytes =
      Array.init c.nprocs (fun pid ->
          if pid < Array.length raw then raw.(pid) else 0);
    redist_stages = 0;
  }
