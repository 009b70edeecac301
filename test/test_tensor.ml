(* Tests for dense tensors (sequential reference storage and message
   payload packing). *)

open Xdp_util

let test_create_get_set () =
  let t = Tensor.create [ 3; 4 ] in
  Alcotest.(check int) "size" 12 (Tensor.size t);
  Alcotest.(check (list int)) "shape" [ 3; 4 ] (Tensor.shape t);
  Tensor.set t [ 2; 3 ] 42.0;
  Alcotest.(check (float 0.0)) "get back" 42.0 (Tensor.get t [ 2; 3 ]);
  Alcotest.(check (float 0.0)) "zero elsewhere" 0.0 (Tensor.get t [ 1; 1 ])

let test_bounds () =
  let t = Tensor.create [ 2; 2 ] in
  List.iter
    (fun idx ->
      Alcotest.(check bool)
        "raises" true
        (try
           ignore (Tensor.get t idx);
           false
         with Invalid_argument _ -> true))
    [ [ 0; 1 ]; [ 3; 1 ]; [ 1; 0 ]; [ 1 ]; [ 1; 1; 1 ] ]

(* [set_a] is [set] over an index array: a round trip through [get_a],
   and every failing index gives [set]'s exact diagnostic — including
   which of bounds and rank is reported when both are wrong. *)
let test_set_a () =
  let t = Tensor.create [ 3; 4 ] in
  Tensor.set_a t [| 2; 3 |] 42.0;
  Alcotest.(check (float 0.0)) "round trip" 42.0 (Tensor.get_a t [| 2; 3 |]);
  Alcotest.(check (float 0.0)) "same element as set/get" 42.0
    (Tensor.get t [ 2; 3 ]);
  Alcotest.(check (float 0.0)) "zero elsewhere" 0.0 (Tensor.get_a t [| 3; 2 |]);
  let diagnostic f =
    match f () with () -> "ok" | exception Invalid_argument m -> m
  in
  List.iter
    (fun idx ->
      Alcotest.(check string)
        (String.concat "," (List.map string_of_int idx))
        (diagnostic (fun () -> Tensor.set t idx 1.0))
        (diagnostic (fun () -> Tensor.set_a t (Array.of_list idx) 1.0)))
    [
      [ 0; 1 ]; [ 4; 1 ]; [ 1; 0 ]; [ 1; 5 ]; [ 1 ]; [ 9 ]; [ 1; 1; 1 ];
      [ 1; 9; 1 ]; [ 9; 1; 1 ]; [ 1; 1; 9 ];
    ];
  Alcotest.(check string) "out-of-bounds text"
    "Tensor: index 5 out of bounds 1..4 in dim 2"
    (diagnostic (fun () -> Tensor.set_a t [| 1; 5 |] 1.0));
  Alcotest.(check string) "rank text" "Tensor: rank mismatch"
    (diagnostic (fun () -> Tensor.set_a t [| 1 |] 1.0));
  Alcotest.(check (float 0.0)) "failed stores wrote nothing" 42.0
    (Tensor.get t [ 2; 3 ])

let test_init () =
  let t = Tensor.init [ 2; 3 ] (function [ i; j ] -> float_of_int ((10 * i) + j) | _ -> 0.0) in
  Alcotest.(check (float 0.0)) "init value" 23.0 (Tensor.get t [ 2; 3 ])

let test_extract_blit_roundtrip () =
  let t =
    Tensor.init [ 4; 4 ] (function [ i; j ] -> float_of_int ((i * 4) + j) | _ -> 0.0)
  in
  let b =
    Box.make [ Triplet.make ~lo:1 ~hi:4 ~stride:2; Triplet.range 2 3 ]
  in
  let buf = Tensor.extract t b in
  Alcotest.(check int) "payload size" 4 (Array.length buf);
  (* row-major box order: (1,2)(1,3)(3,2)(3,3) *)
  Alcotest.(check (array (float 0.0))) "packing order"
    [| 6.0; 7.0; 14.0; 15.0 |] buf;
  let t2 = Tensor.create [ 4; 4 ] in
  Tensor.blit t2 b buf;
  Alcotest.(check (float 0.0)) "blit lands" 14.0 (Tensor.get t2 [ 3; 2 ]);
  Alcotest.(check (float 0.0)) "untouched" 0.0 (Tensor.get t2 [ 2; 2 ])

let test_equal_max_diff () =
  let a = Tensor.init [ 3 ] (fun _ -> 1.0) in
  let b = Tensor.init [ 3 ] (fun _ -> 1.0 +. 1e-12) in
  Alcotest.(check bool) "within eps" true (Tensor.equal a b);
  Tensor.set b [ 2 ] 2.0;
  Alcotest.(check bool) "beyond eps" false (Tensor.equal a b);
  Alcotest.(check (float 1e-9)) "max_diff" 1.0 (Tensor.max_diff a b)

let test_map_box_copy () =
  let t = Tensor.init [ 4 ] (function [ i ] -> float_of_int i | _ -> 0.0) in
  let c = Tensor.copy t in
  Tensor.map_box t (Box.of_shape [ 4 ]) (fun _ x -> x *. 2.0);
  Alcotest.(check (float 0.0)) "mapped" 8.0 (Tensor.get t [ 4 ]);
  Alcotest.(check (float 0.0)) "copy untouched" 4.0 (Tensor.get c [ 4 ])

let test_fill_box () =
  let t = Tensor.create [ 4; 6 ] in
  let b = Box.make [ Triplet.make ~lo:1 ~hi:4 ~stride:3; Triplet.range 2 5 ] in
  Tensor.fill_box t b 9.0;
  Alcotest.(check (float 0.0)) "inside" 9.0 (Tensor.get t [ 4; 3 ]);
  Alcotest.(check (float 0.0)) "outside row" 0.0 (Tensor.get t [ 2; 3 ]);
  Alcotest.(check (float 0.0)) "outside col" 0.0 (Tensor.get t [ 1; 1 ]);
  let total = Tensor.extract t (Tensor.full_box t) in
  Alcotest.(check (float 0.0)) "exactly the box filled"
    (9.0 *. float_of_int (Box.count b))
    (Array.fold_left ( +. ) 0.0 total)

(* ---- differential: offset-based extract/blit vs the seed's
        list-index loops, on random strided boxes of rank 1-4 ---- *)

let seed_extract t box =
  let buf = Array.make (Box.count box) 0.0 in
  let i = ref 0 in
  Box.iter
    (fun idx ->
      buf.(!i) <- Tensor.get t idx;
      incr i)
    box;
  buf

let seed_blit t box buf =
  let i = ref 0 in
  Box.iter
    (fun idx ->
      Tensor.set t idx buf.(!i);
      incr i)
    box

(* a random tensor together with a random in-bounds strided box *)
let gen_tensor_box =
  QCheck.Gen.(
    let* rank = int_range 1 4 in
    let* shape = list_repeat rank (int_range 1 6) in
    let* ts =
      List.fold_right
        (fun n acc ->
          let* rest = acc in
          let* lo = int_range 1 n in
          let* hi = int_range 1 n in
          let* stride = int_range 1 3 in
          return (Triplet.make ~lo ~hi ~stride :: rest))
        shape (return [])
    in
    let* seed = int_range 0 10_000 in
    let t =
      Tensor.init shape (fun idx ->
          float_of_int
            (List.fold_left (fun acc i -> (acc * 31) + i) seed idx))
    in
    return (t, Box.make ts))

let arb_tensor_box =
  QCheck.make
    ~print:(fun (t, b) ->
      Printf.sprintf "tensor%s %s"
        (String.concat "x" (List.map string_of_int (Tensor.shape t)))
        (Box.to_string b))
    gen_tensor_box

let prop_extract_differential =
  QCheck.Test.make ~name:"extract bit-identical to seed loop" ~count:500
    arb_tensor_box (fun (t, b) -> Tensor.extract t b = seed_extract t b)

let prop_blit_differential =
  QCheck.Test.make ~name:"blit bit-identical to seed loop" ~count:500
    arb_tensor_box (fun (t, b) ->
      let buf =
        Array.init (Box.count b) (fun i -> float_of_int ((i * 7) + 1))
      in
      let t1 = Tensor.copy t and t2 = Tensor.copy t in
      Tensor.blit t1 b buf;
      seed_blit t2 b buf;
      Tensor.max_diff t1 t2 = 0.0)

let prop_extract_blit_identity =
  QCheck.Test.make ~name:"extract then blit restores region" ~count:200
    QCheck.(pair (int_range 1 5) (int_range 1 5))
    (fun (r, c) ->
      let t =
        Tensor.init [ r; c ] (function
          | [ i; j ] -> float_of_int ((i * 100) + j)
          | _ -> 0.0)
      in
      let b = Tensor.full_box t in
      let buf = Tensor.extract t b in
      let t2 = Tensor.create [ r; c ] in
      Tensor.blit t2 b buf;
      Tensor.equal t t2)

let () =
  Alcotest.run "tensor"
    [
      ( "unit",
        [
          Alcotest.test_case "create/get/set" `Quick test_create_get_set;
          Alcotest.test_case "bounds checking" `Quick test_bounds;
          Alcotest.test_case "set_a" `Quick test_set_a;
          Alcotest.test_case "init" `Quick test_init;
          Alcotest.test_case "extract/blit" `Quick test_extract_blit_roundtrip;
          Alcotest.test_case "equal/max_diff" `Quick test_equal_max_diff;
          Alcotest.test_case "map_box/copy" `Quick test_map_box_copy;
          Alcotest.test_case "fill_box" `Quick test_fill_box;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_extract_blit_identity;
            prop_extract_differential;
            prop_blit_differential;
          ] );
    ]
