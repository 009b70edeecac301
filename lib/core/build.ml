open Ir

let i n = Int n
let f x = Float x
let b x = Bool x
let var s = Var s
let mypid = Mypid
let nprocs = Nprocs
let ( +: ) a b = Bin (Add, a, b)
let ( -: ) a b = Bin (Sub, a, b)
let ( *: ) a b = Bin (Mul, a, b)
let ( /: ) a b = Bin (Div, a, b)
let ( %: ) a b = Bin (Mod, a, b)
let ( =: ) a b = Bin (Eq, a, b)
let ( <>: ) a b = Bin (Ne, a, b)
let ( <: ) a b = Bin (Lt, a, b)
let ( <=: ) a b = Bin (Le, a, b)
let ( >: ) a b = Bin (Gt, a, b)
let ( >=: ) a b = Bin (Ge, a, b)
let ( &&: ) a b = Bin (And, a, b)
let ( ||: ) a b = Bin (Or, a, b)
let emin a b = Bin (Min, a, b)
let emax a b = Bin (Max, a, b)
let neg e = Un (Neg, e)
let enot e = Un (Not, e)
let elem a idxs = Elem (a, idxs)
let all = All
let at e = At e
let slice lo hi = Slice (lo, hi, Int 1)
let slice3 lo hi st = Slice (lo, hi, st)
let sec arr sel = { arr; sel }
let esec arr idxs = { arr; sel = List.map (fun e -> At e) idxs }

let sel_of_box box =
  List.map
    (fun tr ->
      let open Xdp_util in
      let lo = Triplet.first tr and hi = Triplet.last tr in
      if lo = hi then at (i lo)
      else
        let st = tr.Triplet.stride in
        if st = 1 then slice (i lo) (i hi) else slice3 (i lo) (i hi) (i st))
    (Xdp_util.Box.dims box)

let iown s = Iown s
let accessible s = Accessible s
let await s = Await s
let mylb s d = Mylb (s, d)
let myub s d = Myub (s, d)
let ( @: ) g body = Guard (g, body)
let assign l e = Assign (l, e)
let set a idxs e = Assign (Lelem (a, idxs), e)
let setv v e = Assign (Lvar v, e)

let loop_step var lo hi step body =
  For { var; lo; hi; step; body; local_range = None }

let loop var lo hi body = loop_step var lo hi (Int 1) body
let if_ c a b = If (c, a, b)
let send s = Send_value (s, Unspecified)
let send_to s pids = Send_value (s, Directed pids)
let send_owner s = Send_owner s
let send_owner_value s = Send_owner_value s
let recv ~into ~from = Recv_value { into; from }
let recv_owner s = Recv_owner s
let recv_owner_value s = Recv_owner_value s
let apply fn args = Apply { fn; args }

let decl ~name ~shape ~dist ~grid ?seg_shape ?(universal = false) () =
  let layout = Xdp_dist.Layout.make ~shape ~dist ~grid in
  let seg_shape =
    match seg_shape with
    | Some s -> s
    | None -> Xdp_dist.Segment.default_shape layout
  in
  { arr_name = name; layout; seg_shape; universal }

let program ~name ~decls body = { prog_name = name; decls; body }
