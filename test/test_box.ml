(* Unit and property tests for multi-dimensional boxes (resolved
   sections): the structure the run-time symbol table's iown()
   algorithm intersects. *)

open Xdp_util

let tr lo hi stride = Triplet.make ~lo ~hi ~stride
let box ts = Box.make ts

let test_basics () =
  let b = box [ Triplet.range 1 4; tr 2 8 2 ] in
  Alcotest.(check int) "rank" 2 (Box.rank b);
  Alcotest.(check int) "count" 16 (Box.count b);
  Alcotest.(check bool) "mem yes" true (Box.mem [ 3; 6 ] b);
  Alcotest.(check bool) "mem no (stride)" false (Box.mem [ 3; 5 ] b);
  Alcotest.(check bool) "mem no (range)" false (Box.mem [ 5; 2 ] b);
  Alcotest.(check string) "pp" "[1:4, 2:8:2]" (Box.to_string b)

let test_of_shape_point () =
  let b = Box.of_shape [ 3; 5 ] in
  Alcotest.(check int) "full count" 15 (Box.count b);
  let p = Box.point [ 2; 2 ] in
  Alcotest.(check int) "point count" 1 (Box.count p);
  Alcotest.(check bool) "point mem" true (Box.mem [ 2; 2 ] p)

let test_row_major_order () =
  let b = box [ Triplet.range 1 2; Triplet.range 1 3 ] in
  Alcotest.(check (list (list int)))
    "last dim fastest"
    [ [ 1; 1 ]; [ 1; 2 ]; [ 1; 3 ]; [ 2; 1 ]; [ 2; 2 ]; [ 2; 3 ] ]
    (Box.to_list b)

let test_position () =
  let b = box [ Triplet.range 1 2; tr 1 5 2 ] in
  (* members: (1,1)(1,3)(1,5)(2,1)(2,3)(2,5) *)
  Alcotest.(check int) "first" 0 (Box.position b [ 1; 1 ]);
  Alcotest.(check int) "strided middle" 4 (Box.position b [ 2; 3 ]);
  Alcotest.(check int) "last" 5 (Box.position b [ 2; 5 ]);
  Alcotest.check_raises "non-member"
    (Invalid_argument "Box.position: not a member") (fun () ->
      ignore (Box.position b [ 1; 2 ]))

let test_inter () =
  let a = box [ Triplet.range 1 8; Triplet.range 1 8 ] in
  let b = box [ tr 2 8 2; Triplet.range 3 12 ] in
  (match Box.inter a b with
  | Some i ->
      Alcotest.(check string) "inter" "[2:8:2, 3:8]" (Box.to_string i)
  | None -> Alcotest.fail "expected intersection");
  let c = box [ Triplet.range 9 12; Triplet.range 1 8 ] in
  Alcotest.(check bool) "disjoint dim1" true (Box.disjoint a c);
  Alcotest.check_raises "rank mismatch"
    (Invalid_argument "Box.inter: rank mismatch") (fun () ->
      ignore (Box.inter a (Box.of_shape [ 4 ])))

let test_covered_by () =
  let whole = Box.of_shape [ 4; 4 ] in
  let quads =
    [
      box [ Triplet.range 1 2; Triplet.range 1 2 ];
      box [ Triplet.range 1 2; Triplet.range 3 4 ];
      box [ Triplet.range 3 4; Triplet.range 1 2 ];
      box [ Triplet.range 3 4; Triplet.range 3 4 ];
    ]
  in
  Alcotest.(check bool) "four quadrants cover" true
    (Box.covered_by ~parts:quads whole);
  Alcotest.(check bool) "three do not" true
    (not (Box.covered_by ~parts:(List.tl quads) whole));
  (* the paper's §3.1 example: C[1,5:7] vs P3's 1x2 segments *)
  let query = box [ Triplet.point 1; Triplet.range 5 7 ] in
  let segments =
    [
      box [ Triplet.point 1; Triplet.range 5 6 ];
      box [ Triplet.point 1; Triplet.range 7 8 ];
      box [ Triplet.point 2; Triplet.range 5 6 ];
      box [ Triplet.point 2; Triplet.range 7 8 ];
    ]
  in
  Alcotest.(check bool) "paper iown example" true
    (Box.covered_by ~parts:segments query)

let test_subset () =
  let a = box [ tr 2 6 2; Triplet.point 3 ] in
  let b = box [ Triplet.range 1 8; Triplet.range 1 4 ] in
  Alcotest.(check bool) "strided in full" true (Box.subset a b);
  Alcotest.(check bool) "full not in strided" false (Box.subset b a)

(* --- properties --- *)

let gen_box =
  QCheck.Gen.(
    let* rank = int_range 1 3 in
    let* ts =
      list_repeat rank
        (let* lo = int_range 1 6 in
         let* len = int_range 0 6 in
         let* stride = int_range 1 3 in
         return (Triplet.make ~lo ~hi:(lo + len) ~stride))
    in
    return (Box.make ts))

let arb_box = QCheck.make ~print:Box.to_string gen_box

let same_rank_pair =
  QCheck.make
    ~print:(fun (a, b) -> Box.to_string a ^ " & " ^ Box.to_string b)
    QCheck.Gen.(
      let* rank = int_range 1 3 in
      let g =
        list_repeat rank
          (let* lo = int_range 1 6 in
           let* len = int_range 0 6 in
           let* stride = int_range 1 3 in
           return (Triplet.make ~lo ~hi:(lo + len) ~stride))
      in
      let* a = g and* b = g in
      return (Box.make a, Box.make b))

let prop_count =
  QCheck.Test.make ~name:"count = |to_list|" ~count:300 arb_box (fun b ->
      Box.count b = List.length (Box.to_list b))

let prop_inter =
  QCheck.Test.make ~name:"inter agrees with membership" ~count:300
    same_rank_pair (fun (a, b) ->
      let by_list = List.filter (fun i -> Box.mem i b) (Box.to_list a) in
      match Box.inter a b with
      | None -> by_list = []
      | Some i -> Box.to_list i = by_list)

let prop_position_bijective =
  QCheck.Test.make ~name:"position enumerates 0..count-1 in order" ~count:200
    arb_box (fun b ->
      let positions = List.map (Box.position b) (Box.to_list b) in
      positions = List.init (Box.count b) Fun.id)

(* --- offset-iteration fast path: differential vs the list-index
       reference (iter + position) --- *)

let prop_iter_offsets_is_position_order =
  QCheck.Test.make
    ~name:"iter_offsets(weights) enumerates positions 0..count-1" ~count:300
    arb_box (fun b ->
      let offs = ref [] in
      Box.iter_offsets ~steps:(Box.weights b) b (fun o -> offs := o :: !offs);
      List.rev !offs = List.init (Box.count b) Fun.id)

let prop_affine_in_matches_position =
  QCheck.Test.make
    ~name:"affine_in offsets = Box.position of members" ~count:300
    same_rank_pair (fun (a, b) ->
      match Box.inter a b with
      | None -> true
      | Some piece ->
          Box.is_empty piece
          ||
          let base, steps = Box.affine_in ~outer:a piece in
          let offs = ref [] in
          Box.iter_offsets ~base ~steps piece (fun o -> offs := o :: !offs);
          let expect = List.map (Box.position a) (Box.to_list piece) in
          List.rev !offs = expect)

let prop_fold_offsets_agrees =
  QCheck.Test.make ~name:"fold_offsets = fold over positions" ~count:200
    arb_box (fun b ->
      let w = Box.weights b in
      Box.fold_offsets ~steps:w (fun acc o -> acc + o) 0 b
      = Box.fold (fun acc idx -> acc + Box.position b idx) 0 b)

let prop_iter_runs2_covers_elements =
  QCheck.Test.make
    ~name:"iter_runs2 expands to the per-element offset pairs" ~count:300
    same_rank_pair (fun (a, b) ->
      match Box.inter a b with
      | None -> true
      | Some piece ->
          Box.is_empty piece
          ||
          let va = Box.affine_in ~outer:a piece in
          let vb = Box.affine_in ~outer:b piece in
          let pairs = ref [] in
          Box.iter_runs2 piece ~a:va ~b:vb (fun oa ob len ->
              for k = 0 to len - 1 do
                pairs := (oa + k, ob + k) :: !pairs
              done);
          let expect =
            List.map
              (fun idx -> (Box.position a idx, Box.position b idx))
              (Box.to_list piece)
          in
          List.rev !pairs = expect)

(* [Box.iter] against the obvious reference: one counted loop per
   dimension, outermost first, over rank-1..3 strided boxes that may
   be empty (a dimension with hi < lo). *)
let arb_box_maybe_empty =
  QCheck.make ~print:Box.to_string
    QCheck.Gen.(
      let* rank = int_range 1 3 in
      let* ts =
        list_repeat rank
          (let* lo = int_range 1 6 in
           let* len = int_range (-2) 6 in
           let* stride = int_range 1 3 in
           return (Triplet.make ~lo ~hi:(lo + len) ~stride))
      in
      return (Box.make ts))

let nested_loops b =
  let out = ref [] in
  let rec go prefix = function
    | [] -> out := List.rev prefix :: !out
    | (t : Triplet.t) :: rest ->
        let i = ref t.lo in
        while !i <= t.hi do
          go (!i :: prefix) rest;
          i := !i + t.stride
        done
  in
  go [] (Box.dims b);
  List.rev !out

let prop_iter_is_nested_loops =
  QCheck.Test.make ~name:"iter enumerates like nested counted loops"
    ~count:300 arb_box_maybe_empty (fun b ->
      let seen = ref [] in
      Box.iter (fun idx -> seen := idx :: !seen) b;
      List.rev !seen = nested_loops b)

let prop_covered_by_self_partition =
  QCheck.Test.make ~name:"box covered by its row slices" ~count:200 arb_box
    (fun b ->
      let rows = Box.dim b 1 in
      let parts =
        List.map
          (fun r ->
            Box.make (Triplet.point r :: List.tl (Box.dims b)))
          (Triplet.to_list rows)
      in
      Box.is_empty b || Box.covered_by ~parts b)

let () =
  Alcotest.run "box"
    [
      ( "unit",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "of_shape/point" `Quick test_of_shape_point;
          Alcotest.test_case "row-major order" `Quick test_row_major_order;
          Alcotest.test_case "position" `Quick test_position;
          Alcotest.test_case "intersection" `Quick test_inter;
          Alcotest.test_case "covered_by" `Quick test_covered_by;
          Alcotest.test_case "subset" `Quick test_subset;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_count;
            prop_inter;
            prop_position_bijective;
            prop_covered_by_self_partition;
            prop_iter_offsets_is_position_order;
            prop_affine_in_matches_position;
            prop_fold_offsets_agrees;
            prop_iter_runs2_covers_elements;
            prop_iter_is_nested_loops;
          ] );
    ]
