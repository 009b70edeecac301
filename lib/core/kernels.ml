type t = {
  kname : string;
  arity : int;
  apply : float array list -> unit;
  flops : float array list -> float;
}

module M = Map.Make (String)

type registry = t M.t

let empty = M.empty
let add r k = M.add k.kname k r
let find r name = M.find_opt name r

(* Normalized discrete Hartley transform: y[k] = (1/sqrt n) * sum_j
   x[j] * cas(2 pi j k / n) with cas a = cos a + sin a.  Involutive,
   which makes multi-stage FFT pipelines self-checking.

   cas(2 pi j k / n) only depends on j*k mod n, so each length gets a
   precomputed n-entry cas table (n is a power of two: the reduction
   is a mask).  The table is shared by every caller — the registry
   kernel, the staged engine's inlined call path, and through them the
   sequential reference — so all execution paths see bit-identical
   transform values.  The memo is domain-local: the batch driver runs
   simulations on concurrent OCaml Domains, and a per-domain table
   needs no lock while still yielding bit-identical values everywhere
   (each entry is a pure function of n). *)
let cas_tables : (int, float array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let cas_table n =
  let tables = Domain.DLS.get cas_tables in
  match Hashtbl.find_opt tables n with
  | Some t -> t
  | None ->
      let w = 2.0 *. Float.pi /. float_of_int n in
      let t =
        Array.init n (fun k ->
            let a = w *. float_of_int k in
            cos a +. sin a)
      in
      Hashtbl.add tables n t;
      t

let dht_sub ~buf ~tmp ~off ~stride ~n =
  if not (Xdp_dist.Collective.is_pow2 n) then
    invalid_arg "Kernels.dht: length not a power of 2";
  let cas = cas_table n in
  let mask = n - 1 in
  let norm = sqrt (float_of_int n) in
  for k = 0 to n - 1 do
    let acc = ref 0.0 in
    for j = 0 to n - 1 do
      acc :=
        !acc
        +. Array.unsafe_get buf (off + (j * stride))
           *. Array.unsafe_get cas (j * k land mask)
    done;
    tmp.(k) <- !acc /. norm
  done;
  for k = 0 to n - 1 do
    buf.(off + (k * stride)) <- Array.unsafe_get tmp k
  done

let dht x =
  let n = Array.length x in
  dht_sub ~buf:x ~tmp:(Array.make (Int.max n 1) 0.0) ~off:0 ~stride:1 ~n

let log2f n = if n <= 1 then 1.0 else log (float_of_int n) /. log 2.0

let fft1d =
  {
    kname = "fft1D";
    arity = 1;
    apply = (function [ buf ] -> dht buf | _ -> invalid_arg "fft1D: arity");
    flops =
      (function
      | [ b ] ->
          let n = Array.length b in
          5.0 *. float_of_int n *. log2f n
      | _ -> invalid_arg "fft1D: arity");
  }

let scale2 =
  {
    kname = "scale2";
    arity = 1;
    apply =
      (function
      | [ buf ] -> Array.iteri (fun i x -> buf.(i) <- 2.0 *. x) buf
      | _ -> invalid_arg "scale2: arity");
    flops = (function [ b ] -> float_of_int (Array.length b) | _ -> 0.0);
  }

let negate =
  {
    kname = "negate";
    arity = 1;
    apply =
      (function
      | [ buf ] -> Array.iteri (fun i x -> buf.(i) <- -.x) buf
      | _ -> invalid_arg "negate: arity");
    flops = (function [ b ] -> float_of_int (Array.length b) | _ -> 0.0);
  }

let smooth3 =
  {
    kname = "smooth3";
    arity = 1;
    apply =
      (function
      | [ buf ] ->
          let n = Array.length buf in
          let src = Array.copy buf in
          for i = 0 to n - 1 do
            let l = src.((i + n - 1) mod n)
            and r = src.((i + 1) mod n) in
            buf.(i) <- (l +. src.(i) +. r) /. 3.0
          done
      | _ -> invalid_arg "smooth3: arity");
    flops =
      (function [ b ] -> 3.0 *. float_of_int (Array.length b) | _ -> 0.0);
  }

(* A synthetic task: the charged work equals the (clamped nonnegative)
   sum of the buffer's values; the data is left untouched.  Used to
   model skewed task costs in the load-balancing experiments. *)
let spin =
  {
    kname = "spin";
    arity = 1;
    apply = (function [ _ ] -> () | _ -> invalid_arg "spin: arity");
    flops =
      (function
      | [ b ] -> Float.max 0.0 (Array.fold_left ( +. ) 0.0 b)
      | _ -> invalid_arg "spin: arity");
  }

let default =
  List.fold_left add empty [ fft1d; scale2; negate; smooth3; spin ]
