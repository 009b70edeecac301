open Xdp.Ir
open Xdp_util
module Symtab = Xdp_symtab.Symtab
module State = Xdp_symtab.State
module Board = Xdp_sim.Board
module Costmodel = Xdp_sim.Costmodel
module Trace = Xdp_sim.Trace
module Faultplan = Xdp_net.Faultplan
module Transport = Xdp_net.Transport

exception Deadlock of string
exception Xdp_misuse of string

type engine = [ `Interp | `Compiled ]

let engine_names =
  [
    ("compiled", `Compiled);
    ("interp", `Interp);
    ("interpreter", `Interp);
    ("reference", `Interp);
  ]

(* The staged engine is the default; XDP_ENGINE=interp selects the
   tree-walking reference interpreter process-wide (what the CI matrix
   flips), read once at module initialization.  Unknown values fail
   loudly — a typo here would silently benchmark the wrong engine. *)
let default_engine : engine =
  match Sys.getenv_opt "XDP_ENGINE" with
  | None | Some "" -> `Compiled
  | Some s -> (
      match List.assoc_opt s engine_names with
      | Some e -> e
      | None ->
          invalid_arg
            (Printf.sprintf "XDP_ENGINE=%s: unknown engine (accepted: %s)" s
               (String.concat ", " (List.map fst engine_names))))

(* Compiled frames carry the machine of the processor running them. *)
type frame =
  | Stmts of stmt list
  | Loop of {
      var : string;
      mutable cur : int;
      hi : int;
      step : int;
      body : stmt list;
    }
  | Code of {
      m : Precompile.machine;
      codes : Precompile.units;
      mutable ip : int;
    }
  | Cloop of {
      m : Precompile.machine;
      cl : Precompile.loop;
      mutable ccur : int;
    }

type proc = {
  pid : int; (* 0-based *)
  env : Evalexpr.env;
  st : Symtab.t;
  mutable stack : frame list;
  mutable clock : float;
  mutable busy : float;
  mutable status : [ `Ready | `Blocked of string * Box.t | `Done ];
  mutable guard_evals : int;
  mutable guard_hits : int;
}

(* [p_slot] is the receive's counter in the run's in-flight table. *)
type pending = { p_kind : Board.kind; p_into : string * Box.t; p_slot : int }

(* Superinstruction accounting, kept out of {!Trace.stats} so the
   engine-parity checks can keep comparing whole stats records. *)
type fusion = {
  fused_turns : int;
  fused_statements : int;
  fallback_regions : int;
}

type result = {
  arrays : (string * Tensor.t) list;
  stats : Trace.stats;
  trace : Trace.t;
  symtabs : Symtab.t array;
  fusion : fusion;
}

let array r name =
  match List.assoc_opt name r.arrays with
  | Some t -> t
  | None -> invalid_arg ("Exec.array: no array " ^ name)

let section_name arr box = arr ^ Box.to_string box

(* One run: the processors, their hooks, the comm stack and the
   run-wide counters the scheduler pieces below share. *)
type state = {
  prog : program;
  cost : Costmodel.t;
  kernels : Xdp.Kernels.registry;
  max_steps : int;
  tr : Trace.t;
  comm : Comm.t;
  procs : proc array;
  hooks : Evalexpr.hooks array; (* one per processor, for the whole run *)
  (* Receives in flight per (posting processor, target array), at
     [pid * ndecls + array_slot arr].  A fused run is only sound while
     its processor has none into an array of the run's footprint: then
     no delivery can change anything the run reads or writes, and fused
     statements neither post nor consume board state, so the whole run
     commutes with every other event at its clock (DESIGN.md §4d).  The
     numbering is the staged program's own, so it always agrees with
     [fu_arrays].  The interpreter has no fused regions and never reads
     the counts, so there one slot per processor serves every array. *)
  ndecls : int;
  array_slot : string -> int;
  inflight : int array;
  pending : (int, pending) Hashtbl.t;
  mutable tokens : int;
  mutable ownership_transfers : int;
  mutable total_steps : int;
  mutable turns_fused : int;
  mutable stmts_fused : int;
  mutable fallbacks : int;
}

(* A processor's symbol table: every array declared, every owned
   element seeded from [init]. *)
let seed_symtab ~free_on_release ~init decls pid =
  let st = Symtab.create ~pid ~free_on_release () in
  List.iter
    (fun d ->
      (if d.universal then
         Symtab.declare_universal st ~name:d.arr_name
           ~shape:(Xdp_dist.Layout.shape d.layout)
       else
         Symtab.declare st ~name:d.arr_name ~layout:d.layout
           ~seg_shape:d.seg_shape);
      List.iter
        (fun (s : Symtab.seg) ->
          match s.data with
          | None -> ()
          | Some data ->
              let i = ref 0 in
              Box.iter
                (fun idx ->
                  data.(!i) <- init d.arr_name idx;
                  incr i)
                s.seg_box)
        (Symtab.segments st d.arr_name))
    decls;
  st

let new_proc ~free_on_release ~init ~scalars p pid =
  let st = seed_symtab ~free_on_release ~init p.decls pid in
  let env = Hashtbl.create 16 in
  List.iter (fun (v, x) -> Hashtbl.replace env v x) scalars;
  {
    pid;
    env;
    st;
    stack = [ Stmts p.body ];
    clock = 0.0;
    busy = 0.0;
    status = `Ready;
    guard_evals = 0;
    guard_hits = 0;
  }

let charge pr c =
  pr.clock <- pr.clock +. c;
  pr.busy <- pr.busy +. c

let hooks_of (cost : Costmodel.t) ~nprocs ~shape_of pr =
  let charge = charge pr in
  let charged_desc f name box =
    let before = Symtab.descriptor_visits pr.st in
    let r = f name box in
    let visited = Symtab.descriptor_visits pr.st - before in
    charge (float_of_int visited *. cost.time_desc);
    r
  in
  {
    Evalexpr.mypid1 = pr.pid + 1;
    nprocs;
    shape_of;
    elem =
      (fun name idx ->
        if not (Symtab.owned_element pr.st name idx) then
          raise
            (Evalexpr.Unowned_ref
               (section_name name (Box.point (Array.to_list idx))))
        else Symtab.get_a pr.st name idx);
    iown = charged_desc (Symtab.iown pr.st);
    accessible = charged_desc (Symtab.accessible pr.st);
    await =
      (fun name box ->
        match charged_desc (Symtab.section_state pr.st) name box with
        | State.Unowned -> false
        | State.Accessible -> true
        | State.Transitional -> raise (Evalexpr.Blocked_on (name, box)));
    mylb = (fun name box d -> Symtab.mylb pr.st name box d);
    myub = (fun name box d -> Symtab.myub pr.st name box d);
    charge;
    cm = cost;
    scratch = Evalexpr.Scratch.create ();
  }

let misuse_exn rs pr s =
  Xdp_misuse
    (Printf.sprintf "P%d at t=%.1f in %s: %s" (pr.pid + 1) pr.clock
       rs.prog.prog_name s)

let misuse rs pr fmt =
  Printf.ksprintf (fun s -> raise (misuse_exn rs pr s)) fmt

(* Transfer cores, shared verbatim by both engines: each takes a
   processor and an already-resolved section and owns the exact
   per-event charges and trace emissions. *)

let post_send rs pr ~name ~kind ~payload ~directed =
  let kind_s = Board.kind_to_string kind in
  Trace.emit rs.tr
    (Trace.Send_init { time = pr.clock; pid = pr.pid; name; kind = kind_s });
  Comm.post_send rs.comm ~time:pr.clock ~src:pr.pid ~name ~kind ~payload
    ~directed

(* Register a receive into [into] as in flight, charge [c], and post it
   under the matching [name]. *)
let post_recv rs pr ~kind ~into:(arr, box) ~name c =
  rs.tokens <- rs.tokens + 1;
  let token = rs.tokens in
  let slot = (pr.pid * rs.ndecls) + rs.array_slot arr in
  Hashtbl.replace rs.pending token
    { p_kind = kind; p_into = (arr, box); p_slot = slot };
  rs.inflight.(slot) <- rs.inflight.(slot) + 1;
  charge pr c;
  let kind_s = Board.kind_to_string kind in
  Trace.emit rs.tr
    (Trace.Recv_init { time = pr.clock; pid = pr.pid; name; kind = kind_s });
  Comm.post_recv rs.comm ~time:pr.clock ~dst:pr.pid ~name ~kind ~token

let send_value rs pr ~arr ~box ~dests =
  if not (Symtab.iown pr.st arr box) then
    misuse rs pr "value send of unowned section %s" (section_name arr box);
  let payload = Symtab.read_box pr.st arr box in
  let directed =
    dests (fun pid1 ->
        if pid1 < 1 || pid1 > Array.length rs.procs then
          misuse rs pr "send directed to invalid processor %d" pid1;
        pid1 - 1)
  in
  charge pr
    (rs.cost.time_send_init
    +. (float_of_int (Array.length payload) *. rs.cost.time_mem));
  post_send rs pr ~name:(section_name arr box) ~kind:Board.Value ~payload
    ~directed

let send_owner rs pr ~with_value ~arr ~box =
  (match Symtab.section_state pr.st arr box with
  | State.Unowned ->
      misuse rs pr "ownership send of unowned section %s" (section_name arr box)
  | State.Transitional ->
      (* Owner sends block until the section is accessible. *)
      raise (Evalexpr.Blocked_on (arr, box))
  | State.Accessible -> ());
  let payload = if with_value then Symtab.read_box pr.st arr box else [||] in
  let nsegs = List.length (Symtab.release pr.st arr box) in
  rs.ownership_transfers <- rs.ownership_transfers + 1;
  charge pr
    (rs.cost.time_send_init
    +. (float_of_int nsegs *. rs.cost.time_owner_admin)
    +. (float_of_int (Array.length payload) *. rs.cost.time_mem));
  post_send rs pr ~name:(section_name arr box)
    ~kind:(if with_value then Board.Owner_value else Board.Owner)
    ~payload ~directed:None

let recv_owner rs pr ~with_value ~arr ~box =
  (match Symtab.section_state pr.st arr box with
  | State.Unowned -> ()
  | State.Accessible | State.Transitional ->
      misuse rs pr
        "ownership receive of section %s some element of which is already \
         owned"
        (section_name arr box));
  Symtab.expect_ownership pr.st arr box;
  post_recv rs pr
    ~kind:(if with_value then Board.Owner_value else Board.Owner)
    ~into:(arr, box) ~name:(section_name arr box)
    (rs.cost.time_recv_init +. rs.cost.time_owner_admin)

let recv_value rs pr ~into:(into_arr, into_box) ~from:(from_arr, from_box) =
  if not (Symtab.iown pr.st into_arr into_box) then
    misuse rs pr "receive into unowned section %s"
      (section_name into_arr into_box);
  if not (Symtab.accessible pr.st into_arr into_box) then
    (* Blocks until the destination is accessible (Figure 1). *)
    raise (Evalexpr.Blocked_on (into_arr, into_box));
  if Box.count into_box <> Box.count from_box then
    misuse rs pr "receive shape mismatch: %s <- %s"
      (section_name into_arr into_box)
      (section_name from_arr from_box);
  Symtab.mark_recv_init pr.st into_arr into_box;
  post_recv rs pr ~kind:Board.Value ~into:(into_arr, into_box)
    ~name:(section_name from_arr from_box) rs.cost.time_recv_init

let apply_kernel rs pr ~fn (k : Xdp.Kernels.t) pairs =
  List.iter
    (fun (arr, box) ->
      if not (Symtab.iown pr.st arr box) then
        misuse rs pr "kernel %s applied to unowned section %s" fn
          (section_name arr box))
    pairs;
  let bufs = List.map (fun (arr, b) -> Symtab.read_box pr.st arr b) pairs in
  let flops = k.Xdp.Kernels.flops bufs in
  k.Xdp.Kernels.apply bufs;
  List.iter2 (fun (arr, b) buf -> Symtab.write_box pr.st arr b buf) pairs bufs;
  let total_elems =
    List.fold_left (fun acc (_, b) -> acc + Box.count b) 0 pairs
  in
  charge pr
    ((flops *. rs.cost.time_flop)
    +. (2.0 *. float_of_int total_elems *. rs.cost.time_mem))

let world_of rs pr =
  {
    Precompile.w_st = pr.st;
    w_guard_eval = (fun () -> pr.guard_evals <- pr.guard_evals + 1);
    w_guard_hit = (fun () -> pr.guard_hits <- pr.guard_hits + 1);
    w_misuse = misuse_exn rs pr;
    w_send_value = send_value rs pr;
    w_send_owner = send_owner rs pr;
    w_recv_owner = recv_owner rs pr;
    w_recv_value = recv_value rs pr;
    w_apply = apply_kernel rs pr;
  }

(* The interpreter: execute one statement; raises Evalexpr.Blocked_on
   to request a retry once the named section becomes accessible. *)
let exec_stmt rs pr stmt =
  let h = rs.hooks.(pr.pid) in
  let cost = rs.cost in
  match stmt with
  | Assign (Lvar v, e) ->
      let x =
        try Evalexpr.eval h pr.env e
        with Evalexpr.Unowned_ref n ->
          misuse rs pr "read of unowned %s outside a compute rule" n
      in
      charge pr cost.time_mem;
      Hashtbl.replace pr.env v x
  | Assign (Lelem (a, idxs), e) ->
      let idx = List.map (Evalexpr.eval_int h pr.env) idxs in
      if not (Symtab.iown pr.st a (Box.point idx)) then
        misuse rs pr "write to unowned element %s"
          (section_name a (Box.point idx));
      let x =
        try Value.to_float (Evalexpr.eval h pr.env e)
        with Evalexpr.Unowned_ref n ->
          misuse rs pr "read of unowned %s outside a compute rule" n
      in
      charge pr cost.time_mem;
      Symtab.set pr.st a idx x
  | Guard (g, body) ->
      pr.guard_evals <- pr.guard_evals + 1;
      if Evalexpr.eval_guard h pr.env g then begin
        pr.guard_hits <- pr.guard_hits + 1;
        pr.stack <- Stmts body :: pr.stack
      end
  | For { var; lo; hi; step; body; _ } ->
      let lo = Evalexpr.eval_int h pr.env lo in
      let hi = Evalexpr.eval_int h pr.env hi in
      let step = Evalexpr.eval_int h pr.env step in
      if step <= 0 then misuse rs pr "non-positive loop step";
      charge pr cost.time_int_op;
      if lo <= hi then
        pr.stack <- Loop { var; cur = lo; hi; step; body } :: pr.stack
  | If (c, a, b) ->
      let v =
        try Value.to_bool (Evalexpr.eval h pr.env c)
        with Evalexpr.Unowned_ref n ->
          misuse rs pr "read of unowned %s in if-condition" n
      in
      pr.stack <- Stmts (if v then a else b) :: pr.stack
  | Send_value (s, dest) ->
      let box = Evalexpr.resolve_section h pr.env s in
      let dests check =
        match dest with
        | Unspecified -> None
        | Directed es ->
            Some (List.map (fun e -> check (Evalexpr.eval_int h pr.env e)) es)
      in
      send_value rs pr ~arr:s.arr ~box ~dests
  | Recv_value { into; from } ->
      let into_box = Evalexpr.resolve_section h pr.env into in
      let from_box = Evalexpr.resolve_section h pr.env from in
      recv_value rs pr ~into:(into.arr, into_box) ~from:(from.arr, from_box)
  | Send_owner s | Send_owner_value s | Recv_owner s | Recv_owner_value s ->
      let box = Evalexpr.resolve_section h pr.env s in
      let with_value =
        match stmt with
        | Send_owner_value _ | Recv_owner_value _ -> true
        | _ -> false
      in
      (match stmt with
      | Send_owner _ | Send_owner_value _ -> send_owner
      | _ -> recv_owner)
        rs pr ~with_value ~arr:s.arr ~box
  | Apply { fn; args } -> (
      match Xdp.Kernels.find rs.kernels fn with
      | None -> misuse rs pr "unknown kernel %s" fn
      | Some k ->
          let boxes = List.map (Evalexpr.resolve_section h pr.env) args in
          apply_kernel rs pr ~fn k
            (List.map2 (fun (s : section) b -> (s.arr, b)) args boxes))

let block rs pr name box =
  pr.status <- `Blocked (name, box);
  Trace.emit rs.tr
    (Trace.Blocked
       { time = pr.clock; pid = pr.pid; on = section_name name box })

(* Count [k] executed statements; the only place the step budget is
   enforced. *)
let count_steps rs k =
  rs.total_steps <- rs.total_steps + k;
  if rs.total_steps > rs.max_steps then
    raise
      (Xdp_misuse (Printf.sprintf "step budget exceeded (%d)" rs.max_steps))

let rec footprint_clear rs base (arrs : int array) i =
  i >= Array.length arrs
  || rs.inflight.(base + Array.unsafe_get arrs i) = 0
     && footprint_clear rs base arrs (i + 1)

(* One scheduler step of processor [pr]: pop and run the next
   statement, handling loops and blocking.  The compiled frames
   mirror the interpreted ones micro-step for micro-step: one
   statement per turn, block-exit pops and loop advances are their
   own turns, a blocked statement is retried from scratch. *)
let step rs pr =
  match pr.stack with
  | [] -> pr.status <- `Done
  | Stmts [] :: rest -> pr.stack <- rest
  | Stmts (s :: rest) :: frames -> (
      pr.stack <- Stmts rest :: frames;
      count_steps rs 1;
      try exec_stmt rs pr s
      with Evalexpr.Blocked_on (name, box) ->
        (* Undo the pop; retry the statement when accessible. *)
        pr.stack <- Stmts (s :: rest) :: frames;
        block rs pr name box)
  | Loop l :: rest ->
      if l.cur > l.hi then pr.stack <- rest
      else begin
        Hashtbl.replace pr.env l.var (Value.VInt l.cur);
        l.cur <- l.cur + l.step;
        charge pr rs.cost.time_int_op;
        pr.stack <- Stmts l.body :: Loop l :: rest
      end
  | Code c :: frames -> (
      if c.ip >= Array.length c.codes then pr.stack <- frames
      else
        match c.codes.(c.ip) with
        | Precompile.U_fuse f
          when footprint_clear rs (pr.pid * rs.ndecls) f.Precompile.fu_arrays 0
          ->
            (* the whole superinstruction runs in this turn; the fused
               runner charges exactly what the statements would and
               reports how many it executed *)
            c.ip <- c.ip + 1;
            let k = f.Precompile.fu_fast c.m in
            rs.turns_fused <- rs.turns_fused + 1;
            rs.stmts_fused <- rs.stmts_fused + k;
            count_steps rs k
        | Precompile.U_fuse f ->
            (* a receive into the region's footprint is in flight: its
               delivery must be able to land between statements, so run
               the region one turn at a time (an uncounted, uncharged
               frame push) *)
            c.ip <- c.ip + 1;
            rs.fallbacks <- rs.fallbacks + 1;
            pr.stack <-
              Code { m = c.m; codes = f.Precompile.fu_slow; ip = 0 } :: pr.stack
        | Precompile.U_stmt code -> (
            c.ip <- c.ip + 1;
            count_steps rs 1;
            match code c.m with
            | Precompile.A_next -> ()
            | Precompile.A_block codes ->
                pr.stack <- Code { m = c.m; codes; ip = 0 } :: pr.stack
            | Precompile.A_loop cl ->
                pr.stack <-
                  Cloop { m = c.m; cl; ccur = cl.Precompile.l_lo } :: pr.stack
            | exception Evalexpr.Blocked_on (name, box) ->
                c.ip <- c.ip - 1;
                block rs pr name box))
  | Cloop c :: rest ->
      let cl = c.cl in
      if c.ccur > cl.Precompile.l_hi then pr.stack <- rest
      else begin
        cl.Precompile.l_set c.m c.ccur;
        c.ccur <- c.ccur + cl.Precompile.l_step;
        charge pr rs.cost.time_int_op;
        pr.stack <-
          Code { m = c.m; codes = cl.Precompile.l_body; ip = 0 } :: pr.stack
      end

let deliver rs (d : Board.delivery) =
  let pr = rs.procs.(d.dst) in
  let pend =
    match Hashtbl.find_opt rs.pending d.token with
    | Some x -> x
    | None ->
        raise
          (Xdp_misuse
             (Printf.sprintf "delivery with unknown token for %s" d.name))
  in
  Hashtbl.remove rs.pending d.token;
  rs.inflight.(pend.p_slot) <- rs.inflight.(pend.p_slot) - 1;
  let arr, box = pend.p_into in
  (match pend.p_kind with
  | Board.Value ->
      Symtab.write_box pr.st arr box d.payload;
      Symtab.mark_recv_complete pr.st arr box
  | Board.Owner -> Symtab.accept_ownership pr.st arr box None
  | Board.Owner_value ->
      Symtab.accept_ownership pr.st arr box (Some d.payload));
  Trace.emit rs.tr
    (Trace.Delivered
       {
         time = d.arrival;
         src = d.src;
         dst = d.dst;
         name = d.name;
         kind = Board.kind_to_string d.kind;
         bytes = d.bytes;
       });
  (* Wake any processor whose blocking condition this satisfies. *)
  Array.iter
    (fun pr ->
      match pr.status with
      | `Blocked (name, box) when Symtab.accessible pr.st name box ->
          pr.status <- `Ready;
          pr.clock <- Float.max pr.clock d.arrival;
          Trace.emit rs.tr (Trace.Unblocked { time = pr.clock; pid = pr.pid })
      | _ -> ())
    rs.procs

(* Smallest (clock, pid) among ready processors, as an index (-1 for
   none).  Iteration is in ascending pid order and strict [<] keeps the
   earlier pid on clock ties, so this picks the same lexicographic
   winner as a (clock, pid) tuple compare — without allocating anything
   in the scheduler's innermost loop. *)
let rec find_ready procs i bi =
  if i >= Array.length procs then bi
  else
    let bi =
      let pr = Array.unsafe_get procs i in
      match pr.status with
      | `Ready when bi < 0 || pr.clock < procs.(bi).clock -> i
      | _ -> bi
    in
    find_ready procs (i + 1) bi

(* Every processor is blocked or done and nothing can arrive.  The wire
   has settled, so a lost message is final: name the dead links (not a
   compiler bug — the transport ran out of retries), else name the
   deadlock if anyone still waits; otherwise the run is complete.  Both
   diagnostics report the waiting (pid, section) set. *)
let diagnose rs =
  let waiting =
    Array.to_list rs.procs
    |> List.filter_map (fun pr ->
           match pr.status with
           | `Blocked (name, box) ->
               Some
                 (Printf.sprintf "P%d waits on %s" (pr.pid + 1)
                    (section_name name box))
           | _ -> None)
  in
  match Comm.failures rs.comm with
  | _ :: _ as failed ->
      raise
        (Transport.Link_failed
           (Printf.sprintf
              "%s: blocked on messages dropped past max retries:\n\
               %s\nwaiting:\n%s"
              rs.prog.prog_name
              (String.concat "\n"
                 (List.map
                    (Format.asprintf "  %a" Transport.pp_failure)
                    failed))
              (String.concat "\n" waiting)))
  | [] when waiting <> [] ->
      let sends = Board.pending_sends (Comm.board rs.comm) in
      let recvs = Board.pending_recvs (Comm.board rs.comm) in
      let show fmt l =
        String.concat "; "
          (List.map (fun (n, _, pid) -> Printf.sprintf fmt n (pid + 1)) l)
      in
      raise
        (Deadlock
           (Printf.sprintf
              "%s: all processors blocked or done with nothing in flight (no \
               messages lost — the program is missing a matching send or \
               receive):\n%s\npending sends: %d, pending recvs: %d\n\
               sends: %s\nrecvs: %s"
              rs.prog.prog_name
              (String.concat "\n" waiting)
              (List.length sends) (List.length recvs)
              (show "%s from P%d" sends) (show "%s by P%d" recvs)))
  | [] -> ()

(* The discrete-event loop: apply the earliest delivery when it arrives
   no later than the earliest ready processor's clock, else step that
   processor. *)
let rec schedule rs =
  let bi = find_ready rs.procs 0 (-1) in
  if Comm.has_delivery rs.comm then begin
    let d =
      match Comm.peek_delivery rs.comm with Some d -> d | None -> assert false
    in
    if bi < 0 || d.arrival <= rs.procs.(bi).clock then begin
      ignore (Comm.pop_delivery rs.comm);
      deliver rs d
    end
    else step rs rs.procs.(bi);
    schedule rs
  end
  else if bi >= 0 then begin
    step rs rs.procs.(bi);
    schedule rs
  end
  else diagnose rs

(* Gather distributed arrays into global tensors. *)
let gather (p : program) procs =
  List.map
    (fun d ->
      let t = Tensor.create (Xdp_dist.Layout.shape d.layout) in
      (* universal arrays may diverge per processor; gather P1's copy by
         convention *)
      let sources = if d.universal then [| procs.(0) |] else procs in
      Array.iter
        (fun pr ->
          List.iter
            (fun (s : Symtab.seg) ->
              match (s.status, s.data) with
              | State.Unowned, _ | _, None -> ()
              | _, Some data ->
                  (* segment storage is the row-major packing of its box:
                     unpack with the allocation-free blit *)
                  Tensor.blit t s.seg_box data)
            (Symtab.segments pr.st d.arr_name))
        sources;
      (d.arr_name, t))
    p.decls

let stats rs ~redist_stages =
  let sum f = Array.fold_left (fun acc pr -> acc + f pr) 0 rs.procs in
  let per f = Array.map f rs.procs in
  {
    (Comm.stats rs.comm) with
    Trace.makespan =
      Array.fold_left (fun acc pr -> Float.max acc pr.clock) 0.0 rs.procs;
    ownership_transfers = rs.ownership_transfers;
    guard_evals = sum (fun pr -> pr.guard_evals);
    guard_hits = sum (fun pr -> pr.guard_hits);
    busy = per (fun pr -> pr.busy);
    finish = per (fun pr -> pr.clock);
    peak_storage = per (fun pr -> Symtab.peak_elements pr.st);
    statements = rs.total_steps;
    redist_stages;
  }

let run ?(engine = default_engine) ?staged ?(cost = Costmodel.message_passing)
    ?(kernels = Xdp.Kernels.default) ?(init = fun _ _ -> 0.0) ?(scalars = [])
    ?(trace = false) ?(free_on_release = true) ?(max_steps = 20_000_000)
    ?(fault = Faultplan.none) ?(net = Transport.default_config) ?(nic = [])
    ?(redist_stages = 0) ~nprocs (p : program) =
  if nprocs <= 0 then invalid_arg "Exec.run: nprocs <= 0";
  if staged <> None && engine = `Interp then
    invalid_arg "Exec.run: ~staged supplied but engine is `Interp";
  List.iter
    (fun d ->
      let np = Xdp_dist.Layout.nprocs d.layout in
      if np <> nprocs then
        invalid_arg
          (Printf.sprintf
             "Exec.run: array %s is laid out over %d processors but the \
              machine has %d"
             d.arr_name np nprocs))
    p.decls;
  Xdp.Wf.check_exn p;
  let tr = Trace.create ~enabled:trace in
  let comm =
    match Comm.create ~cost ~trace:tr ~fault ~net ~nic ~nprocs with
    | Ok c -> c
    | Error e -> invalid_arg ("Exec.run: " ^ e)
  in
  (* Stage once, share the code across processors.  A caller that runs
     the same program many times (the batch service) passes the staged
     [cprog] back in via [?staged] — it must have been compiled from
     this program with the same cost model, kernel registry and scalar
     preload. *)
  let cp =
    match (engine, staged) with
    | `Interp, _ -> None
    | `Compiled, Some cp -> Some cp
    | `Compiled, None -> Some (Precompile.compile ~cost ~kernels ~scalars p)
  in
  let ndecls, array_slot =
    match cp with
    | Some cp -> (Precompile.array_count cp, Precompile.array_slot cp)
    | None -> (1, fun _ -> 0)
  in
  let procs = Array.init nprocs (new_proc ~free_on_release ~init ~scalars p) in
  let shape_of name = Xdp_dist.Layout.shape (decl_of p name).layout in
  let rs =
    {
      prog = p;
      cost;
      kernels;
      max_steps;
      tr;
      comm;
      procs;
      hooks = Array.map (hooks_of cost ~nprocs ~shape_of) procs;
      ndecls;
      array_slot;
      inflight = Array.make (nprocs * ndecls) 0;
      pending = Hashtbl.create 64;
      tokens = 0;
      ownership_transfers = 0;
      total_steps = 0;
      turns_fused = 0;
      stmts_fused = 0;
      fallbacks = 0;
    }
  in
  (* every processor runs the shared staged code with its own slot
     frames and inline caches *)
  Option.iter
    (fun cp ->
      let codes = Precompile.body cp in
      Array.iter
        (fun pr ->
          let m = Precompile.machine cp rs.hooks.(pr.pid) (world_of rs pr) in
          pr.stack <- [ Code { m; codes; ip = 0 } ])
        procs)
    cp;
  schedule rs;
  let arrays = gather p procs in
  {
    arrays;
    stats = stats rs ~redist_stages;
    trace = tr;
    symtabs = Array.map (fun pr -> pr.st) procs;
    fusion =
      {
        fused_turns = rs.turns_fused;
        fused_statements = rs.stmts_fused;
        fallback_regions = rs.fallbacks;
      };
  }

let ownership_defects r (p : program) =
  let unowned = ref 0 and multi = ref 0 in
  List.iter
    (fun d ->
      if d.universal then ()
      else
      let full = Box.of_shape (Xdp_dist.Layout.shape d.layout) in
      Box.iter
        (fun idx ->
          let owners =
            Array.fold_left
              (fun acc st ->
                if Symtab.iown st d.arr_name (Box.point idx) then acc + 1
                else acc)
              0 r.symtabs
          in
          if owners = 0 then incr unowned
          else if owners > 1 then incr multi)
        full)
    p.decls;
  (!unowned, !multi)
