type t = { shape : int array; strides : int array; data : float array }

let compute_strides shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for d = n - 2 downto 0 do
    strides.(d) <- strides.(d + 1) * shape.(d + 1)
  done;
  strides

let create shape_l =
  let shape = Array.of_list shape_l in
  if Array.length shape = 0 then invalid_arg "Tensor.create: rank 0";
  Array.iter
    (fun n -> if n <= 0 then invalid_arg "Tensor.create: extent <= 0")
    shape;
  let size = Array.fold_left ( * ) 1 shape in
  { shape; strides = compute_strides shape; data = Array.make size 0.0 }

let shape t = Array.to_list t.shape
let rank t = Array.length t.shape
let size t = Array.length t.data
let full_box t = Box.of_shape (shape t)

let offset t idx =
  let n = Array.length t.shape in
  let rec go d off = function
    | [] -> if d = n then off else invalid_arg "Tensor: rank mismatch"
    | i :: rest ->
        if d >= n then invalid_arg "Tensor: rank mismatch";
        if i < 1 || i > t.shape.(d) then
          invalid_arg
            (Printf.sprintf "Tensor: index %d out of bounds 1..%d in dim %d"
               i t.shape.(d) (d + 1));
        go (d + 1) (off + ((i - 1) * t.strides.(d))) rest
  in
  go 0 0 idx

let get t idx = t.data.(offset t idx)
let set t idx v = t.data.(offset t idx) <- v

(* Array-indexed access with the same bounds diagnostics as [offset],
   but no per-call list. *)
let rec offset_a_from t idx d n off =
  if d >= n then off
  else begin
    let i = idx.(d) in
    if i < 1 || i > t.shape.(d) then
      invalid_arg
        (Printf.sprintf "Tensor: index %d out of bounds 1..%d in dim %d" i
           t.shape.(d) (d + 1));
    offset_a_from t idx (d + 1) n (off + ((i - 1) * t.strides.(d)))
  end

let get_a t idx =
  let n = Array.length t.shape in
  if Array.length idx <> n then invalid_arg "Tensor: rank mismatch";
  t.data.(offset_a_from t idx 0 n 0)

(* [set]'s check order: bounds dimension by dimension over the shorter
   of index and shape, then the rank. *)
let set_a t idx v =
  let n = Array.length t.shape and k = Array.length idx in
  let off = offset_a_from t idx 0 (min n k) 0 in
  if k <> n then invalid_arg "Tensor: rank mismatch";
  t.data.(off) <- v

let fill t v = Array.fill t.data 0 (Array.length t.data) v

let copy t =
  { shape = Array.copy t.shape;
    strides = Array.copy t.strides;
    data = Array.copy t.data }

let init shape_l f =
  let t = create shape_l in
  Box.iter (fun idx -> set t idx (f idx)) (full_box t);
  t

(* Affine view of [box]'s row-major enumeration as offsets into
   [t.data]: (base, steps) with the innermost step equal to the
   triplet's stride (tensor storage is row-major, innermost tensor
   stride 1), so contiguous sections coalesce into Array.blit runs.
   [None] for an empty box. *)
let box_affine t box =
  let n = Array.length t.shape in
  if Box.rank box <> n then invalid_arg "Tensor: rank mismatch";
  if Box.is_empty box then None
  else begin
    let steps = Array.make n 0 in
    let base = ref 0 in
    for d = 0 to n - 1 do
      let tr = Box.dim box (d + 1) in
      let lo = Triplet.first tr and hi = Triplet.last tr in
      if lo < 1 || hi > t.shape.(d) then
        invalid_arg
          (Printf.sprintf "Tensor: section %d:%d out of bounds 1..%d in dim %d"
             lo hi t.shape.(d) (d + 1));
      base := !base + ((lo - 1) * t.strides.(d));
      steps.(d) <- tr.Triplet.stride * t.strides.(d)
    done;
    Some (!base, steps)
  end

let extract t box =
  let buf = Array.make (Box.count box) 0.0 in
  (match box_affine t box with
  | None -> ()
  | Some view ->
      let data = t.data in
      Box.iter_runs2 box ~a:view ~b:(0, Box.weights box) (fun src dst len ->
          if len = 1 then buf.(dst) <- data.(src)
          else Array.blit data src buf dst len));
  buf

let blit t box buf =
  if Array.length buf < Box.count box then
    invalid_arg "Tensor.blit: buffer too small";
  match box_affine t box with
  | None -> ()
  | Some view ->
      let data = t.data in
      Box.iter_runs2 box ~a:view ~b:(0, Box.weights box) (fun dst src len ->
          if len = 1 then data.(dst) <- buf.(src)
          else Array.blit buf src data dst len)

let fill_box t box v =
  match box_affine t box with
  | None -> ()
  | Some view ->
      let data = t.data in
      Box.iter_runs2 box ~a:view ~b:view (fun off _ len ->
          if len = 1 then data.(off) <- v else Array.fill data off len v)

let map_box t box f =
  match box_affine t box with
  | None -> ()
  | Some (base, steps) ->
      (* [f] consumes the index vector, so the list-index iteration is
         inherent; but the data offset advances affinely alongside it,
         saving the per-element bounds-checked [offset] recomputation. *)
      let offs = Array.make (Box.count box) 0 in
      let i = ref 0 in
      Box.iter_offsets ~base ~steps box (fun off ->
          offs.(!i) <- off;
          incr i);
      let data = t.data in
      i := 0;
      Box.iter
        (fun idx ->
          let off = offs.(!i) in
          incr i;
          data.(off) <- f idx data.(off))
        box

let max_diff a b =
  if a.shape <> b.shape then invalid_arg "Tensor.max_diff: shape mismatch";
  let m = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = Float.abs (x -. b.data.(i)) in
      if d > !m then m := d)
    a.data;
  !m

let equal ?(eps = 1e-9) a b = a.shape = b.shape && max_diff a b <= eps

let pp ppf t =
  Format.fprintf ppf "tensor%a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "x")
       Format.pp_print_int)
    (shape t);
  if size t <= 64 then begin
    Format.fprintf ppf " [";
    Array.iteri
      (fun i x ->
        if i > 0 then Format.fprintf ppf "; ";
        Format.fprintf ppf "%g" x)
      t.data;
    Format.fprintf ppf "]"
  end
