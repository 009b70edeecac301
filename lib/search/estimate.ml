open Xdp_dist

type params = {
  elem_bytes : int;
  header_bytes : int;
  alpha : float;
  beta : float;
  send_init : float;
  recv_init : float;
  time_flop : float;
  time_mem : float;
}

(* Mirrors Costmodel.message_passing; kept literal because this
   library sits below xdp_sim in the dependency order. *)
let default_params =
  {
    elem_bytes = 8;
    header_bytes = 16;
    alpha = 2000.0;
    beta = 0.5;
    send_init = 200.0;
    recv_init = 200.0;
    time_flop = 1.0;
    time_mem = 1.0;
  }

type t = { msgs : int; payload_elems : int; wire_bytes : int }

let zero = { msgs = 0; payload_elems = 0; wire_bytes = 0 }
let cadd = Redistribution.checked_add
let cmul = Redistribution.checked_mul

let add a b =
  {
    msgs = cadd "estimate messages" a.msgs b.msgs;
    payload_elems = cadd "estimate payload elements" a.payload_elems b.payload_elems;
    wire_bytes = cadd "estimate wire bytes" a.wire_bytes b.wire_bytes;
  }

let scale k t =
  if k < 0 then invalid_arg "Estimate.scale: negative factor";
  {
    msgs = cmul "estimate messages" k t.msgs;
    payload_elems = cmul "estimate payload elements" k t.payload_elems;
    wire_bytes = cmul "estimate wire bytes" k t.wire_bytes;
  }

let messages ?(directed = true) p ~count ~elems =
  if count < 0 || elems < 0 then
    invalid_arg "Estimate.messages: negative count or payload";
  let payload = cmul "estimate payload elements" count elems in
  let payload_bytes = cmul "estimate wire bytes" payload p.elem_bytes in
  (* directed sends are bound at compile time: no name tag travels,
     so the board charges no header (the exactness contract with the
     executed Stats of all-directed elaborations hangs on this) *)
  let header_bytes =
    if directed then 0 else cmul "estimate wire bytes" count p.header_bytes
  in
  {
    msgs = count;
    payload_elems = payload;
    wire_bytes = cadd "estimate wire bytes" payload_bytes header_bytes;
  }

let transfer_time p t =
  (float_of_int t.msgs *. (p.send_init +. p.recv_init +. p.alpha))
  +. (float_of_int t.wire_bytes *. p.beta)
