(* One operation through the public layers, with its reference.

   An operation is one manifest spec taken the way [xdpc] and the
   batch service take it: [Workload.check_spec] and [Workload.build]
   (app builder, [Xdp.Passes], [Plan_redist], and [Anneal.search]
   through the placement), [Precompile.compile], [Exec.run ~staged],
   then a comparison of the gathered result with the independent
   sequential reference, as [xdpc] verifies it. *)

module M = Xdp_batch.Manifest
module W = Xdp_batch.Workload
module Exec = Xdp_runtime.Exec
module Precompile = Xdp_runtime.Precompile
module Tensor = Xdp_util.Tensor

let ok_or_fail = function Ok v -> v | Error e -> failwith e

(* The expected result of a spec: a whole array, or (farm, which has
   no sequential program) the conserved sum of its accumulator. *)
type expect = Array of Tensor.t | Sum of float

let reference (s : M.spec) =
  let seq ~init prog =
    Array (Xdp_runtime.Seq.array (Xdp_runtime.Seq.run ~init prog) "A")
  in
  match s.app with
  | "vecadd" -> Array (Xdp_apps.Vecadd.expected ~n:s.n)
  | "fft3d" ->
      seq ~init:Xdp_apps.Fft3d.init
        (Xdp_apps.Fft3d.sequential ~n:s.n ~nprocs:s.procs)
  | "jacobi" ->
      seq ~init:Xdp_apps.Jacobi.init
        (Xdp_apps.Jacobi.build ~n:s.n ~nprocs:s.procs ~sweeps:s.sweeps
           ~stage:Xdp_apps.Jacobi.Sequential ())
  | "jacobi2d" ->
      seq ~init:Xdp_apps.Jacobi2d.init
        (Xdp_apps.Jacobi2d.build ~n:s.n ~pr:1 ~pc:1 ~sweeps:s.sweeps
           ~stage:Xdp_apps.Jacobi2d.Sequential ())
  | "redist" -> Array (Xdp_apps.Redistflow.reference ~n:s.n ())
  | "dlstack" -> Array (Xdp_apps.Dlstack.reference (W.dlstack_config s))
  | "reduce" ->
      (* every processor ends with the total in OUT[mypid] *)
      let want = Xdp_apps.Reduce.expected_sum ~n:s.n in
      Array (Tensor.init [ s.procs ] (fun _ -> want))
  | "farm" ->
      (* the base and skew Workload.build gives a farm job *)
      Sum
        (Xdp_apps.Farm.total_work ~base:20000.0
           ~skew:Xdp_apps.Farm.Front_loaded ~ntasks:s.n ())
  | app -> failwith ("no reference for app " ^ app)

let verify (w : W.t) (r : Exec.result) = function
  | Array want -> Tensor.max_diff (Exec.array r w.check) want < 1e-9
  | Sum want ->
      let acc = Exec.array r w.check in
      let sum = ref 0.0 in
      Xdp_util.Box.iter
        (fun idx -> sum := !sum +. Tensor.get acc idx)
        (Tensor.full_box acc);
      Float.abs (!sum -. want) < 1e-6

(* The network a spec asks for, built as the batch service builds it. *)
let fault_of (s : M.spec) =
  if s.drop = 0.0 && s.dup = 0.0 && s.jitter = 0.0 then Xdp_net.Faultplan.none
  else
    Xdp_net.Faultplan.make ~seed:s.fault_seed ~drop:s.drop ~dup:s.dup
      ~jitter:s.jitter ()

let net_of (s : M.spec) =
  let c = Xdp_net.Transport.default_config in
  let c = match s.timeout with None -> c | Some timeout -> { c with timeout } in
  match s.max_retries with None -> c | Some max_retries -> { c with max_retries }

(* The digest the batch service puts in a record's "result_digest". *)
let result_digest (r : Exec.result) =
  Digest.to_hex
    (Digest.string (Marshal.to_string r.arrays [ Marshal.No_sharing ]))

(* Counters gathered from outside the layer calls, summed over every
   operation run. *)
type acc = {
  mutable minor_words : float;  (** allocated inside [Exec.run] *)
  mutable major_gcs : int;  (** major cycles finished inside [Exec.run] *)
  mutable candidates : int;  (** placements [Anneal.search] scored *)
  mutable search_in_build : float;
      (** seconds [Workload.build] spent repeating the placement search
          the traced run also timed on its own *)
  mutable compiled : int;  (** statements [Precompile.compile] staged *)
  mutable fusable : int;  (** of which have a fused form *)
}

let new_acc () =
  {
    minor_words = 0.0;
    major_gcs = 0;
    candidates = 0;
    search_in_build = 0.0;
    compiled = 0;
    fusable = 0;
  }

type outcome = {
  stats : Xdp_sim.Trace.stats;
  fusion : Exec.fusion;
  verified : bool;
  digest : string option;
}

(* [run] takes one operation through every layer.  [check] runs
   [Workload.check_spec] first, as [xdpc] does for each invocation
   (the batch service does it once, when it parses the manifest).
   [cache] stages through a batch-service staging cache instead of
   compiling afresh.  In a traced run the placement search of a
   [search] spec is also called on its own, under a [search] span,
   because [Workload.build] runs it where no span can reach. *)
let run ~spans ~acc ~op ?(check = false) ?cache ?(digest = false)
    (s : M.spec) want =
  let sp name f = Spans.with_span spans ~op name f in
  sp "op" (fun () ->
      let s, w =
        sp "build" (fun () ->
            let s = if check then ok_or_fail (W.check_spec s) else s in
            let searched =
              if Spans.enabled spans && s.app = "dlstack"
                 && s.placement = "search"
              then begin
                let t0 = Spans.now () in
                let r =
                  sp "search" (fun () ->
                      Xdp_search.Anneal.search
                        ~params:Xdp_search.Estimate.default_params
                        (W.dlstack_config s) Xdp_search.Anneal.default_options)
                in
                acc.candidates <- acc.candidates + r.evaluated;
                Spans.now () -. t0
              end
              else 0.0
            in
            acc.search_in_build <- acc.search_in_build +. searched;
            (s, W.build s))
      in
      let cost = ok_or_fail (W.cost_of_string s.cost) in
      let staged =
        sp "precompile" (fun () ->
            let compile () =
              let cp =
                Precompile.compile ~cost ~kernels:Xdp.Kernels.default
                  ~scalars:[] w.prog
              in
              let fs = Precompile.fusion_stats cp in
              acc.compiled <- acc.compiled + fs.fs_statements;
              acc.fusable <- acc.fusable + fs.fs_fusable;
              cp
            in
            match cache with
            | None -> compile ()
            | Some c ->
                Xdp_batch.Cache.find c
                  (Xdp_batch.Cache.digest ~cost ~fuse:Precompile.fuse_default
                     ~scalars:[] w.prog)
                  ~compile)
      in
      let g0 = Gc.quick_stat () in
      let r =
        sp "exec" (fun () ->
            Exec.run ~engine:`Compiled ~staged ~cost ~init:w.init
              ~fault:(fault_of s) ~net:(net_of s) ~nic:w.nic
              ~redist_stages:w.redist_stages ~nprocs:s.procs w.prog)
      in
      let g1 = Gc.quick_stat () in
      acc.minor_words <- acc.minor_words +. (g1.minor_words -. g0.minor_words);
      acc.major_gcs <-
        acc.major_gcs + (g1.major_collections - g0.major_collections);
      let verified, digest =
        sp "verify" (fun () ->
            ( verify w r want,
              if digest then Some (result_digest r) else None ))
      in
      { stats = r.stats; fusion = r.fusion; verified; digest })

(* Run an operation, turning the failures a run can raise into a
   diagnostic: the same exceptions the batch service records. *)
let attempt f =
  try Ok (f ()) with
  | Failure msg -> Error msg
  | Invalid_argument msg -> Error ("invalid argument: " ^ msg)
  | Exec.Deadlock msg -> Error ("deadlock: " ^ msg)
  | Exec.Xdp_misuse msg -> Error ("xdp misuse: " ^ msg)
  | Xdp_nic.Fabric.Nic_misuse msg -> Error ("nic misuse: " ^ msg)
  | Xdp_net.Transport.Link_failed msg -> Error ("link failed: " ^ msg)

(* The simulated figures that must repeat exactly for one spec. *)
let fingerprint (st : Xdp_sim.Trace.stats) (f : Exec.fusion) =
  Printf.sprintf "%h/%d/%d/%d/%d/%d/%d/%d/%d/%d" st.makespan st.messages
    st.bytes st.statements st.retransmits st.dup_suppressed
    st.net_overhead_bytes st.nic_msgs_saved
    (Xdp_sim.Trace.max_peak_inflight st)
    f.fused_statements
