open Xdp_util

type t = {
  shape : int list;
  dist : Dist.t list;
  grid : Grid.t;
  axes : int option list; (* per dimension: grid axis, None for Star *)
}

let make ~shape ~dist ~grid =
  if List.length shape <> List.length dist then
    invalid_arg "Layout.make: shape/dist rank mismatch";
  if shape = [] then invalid_arg "Layout.make: rank 0";
  List.iter
    (fun n -> if n <= 0 then invalid_arg "Layout.make: extent <= 0")
    shape;
  let next = ref 0 in
  let axes =
    List.map
      (fun d ->
        if Dist.distributed d then begin
          let a = !next in
          incr next;
          Some a
        end
        else None)
      dist
  in
  if !next <> Grid.rank grid then
    invalid_arg
      (Printf.sprintf
         "Layout.make: %d distributed dims but grid rank %d" !next
         (Grid.rank grid));
  { shape; dist; grid; axes }

let shape t = t.shape
let rank t = List.length t.shape
let dist t = t.dist
let grid t = t.grid
let nprocs t = Grid.nprocs t.grid
let full_box t = Box.of_shape t.shape

let dim_info t d =
  (List.nth t.shape (d - 1), List.nth t.dist (d - 1), List.nth t.axes (d - 1))

let owner t idx =
  if List.length idx <> rank t then invalid_arg "Layout.owner: rank";
  let coords = Array.make (Grid.rank t.grid) 0 in
  List.iteri
    (fun d0 i ->
      let extent, dist, axis = dim_info t (d0 + 1) in
      match axis with
      | None -> ()
      | Some a ->
          let procs = Grid.axis_extent t.grid a in
          coords.(a) <- Dist.owner_coord dist ~extent ~procs i)
    idx;
  Grid.pid t.grid (Array.to_list coords)

let owns t pid idx = owner t idx = pid

let owned_triplets t pid d =
  let extent, dist, axis = dim_info t d in
  match axis with
  | None -> Dist.owned_triplets dist ~extent ~procs:1 0
  | Some a ->
      let procs = Grid.axis_extent t.grid a in
      let c = List.nth (Grid.coords t.grid pid) a in
      Dist.owned_triplets dist ~extent ~procs c

let owned_boxes t pid =
  let per_dim = List.init (rank t) (fun d0 -> owned_triplets t pid (d0 + 1)) in
  if List.exists (fun l -> l = []) per_dim then []
  else
    (* Cartesian product of per-dimension triplet lists. *)
    List.fold_right
      (fun triplets acc ->
        List.concat_map (fun tr -> List.map (fun rest -> tr :: rest) acc)
          triplets)
      per_dim [ [] ]
    |> List.map Box.make

let local_extent t pid d =
  List.fold_left (fun acc tr -> acc + Triplet.count tr) 0
    (owned_triplets t pid d)

let local_size t pid =
  List.fold_left (fun acc d0 -> acc * local_extent t pid (d0 + 1)) 1
    (List.init (rank t) Fun.id)

let owned_inter t pid box =
  List.filter_map (fun owned -> Box.inter owned box) (owned_boxes t pid)
  |> List.filter (fun b -> not (Box.is_empty b))

let mylb t pid box d =
  let pieces = owned_inter t pid box in
  List.fold_left
    (fun acc b ->
      let tr = Box.dim b d in
      let lo = Triplet.first tr in
      match acc with None -> Some lo | Some x -> Some (min x lo))
    None pieces

let myub t pid box d =
  let pieces = owned_inter t pid box in
  List.fold_left
    (fun acc b ->
      let tr = Box.dim b d in
      let hi = Triplet.last tr in
      match acc with None -> Some hi | Some x -> Some (max x hi))
    None pieces

let equal a b =
  a.shape = b.shape
  && List.for_all2 Dist.equal a.dist b.dist
  && Grid.shape a.grid = Grid.shape b.grid

let pp ppf t =
  Format.fprintf ppf "(%a) over %a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Dist.pp)
    t.dist Grid.pp t.grid

let to_string t = Format.asprintf "%a" pp t

let proc_char p =
  if p < 10 then Char.chr (Char.code '0' + p)
  else if p < 36 then Char.chr (Char.code 'A' + p - 10)
  else '?'

let ownership_map t =
  match t.shape with
  | [ rows; cols ] ->
      let buf = Buffer.create ((rows + 1) * (cols + 1)) in
      for i = 1 to rows do
        for j = 1 to cols do
          Buffer.add_char buf (proc_char (owner t [ i; j ]))
        done;
        if i < rows then Buffer.add_char buf '\n'
      done;
      Buffer.contents buf
  | _ -> invalid_arg "Layout.ownership_map: rank must be 2"
