(* Sequential reference interpreter tests. *)

open Xdp.Build

let grid = Xdp_dist.Grid.linear 2

let decls =
  [
    decl ~name:"A" ~shape:[ 8 ] ~dist:[ Xdp_dist.Dist.Block ] ~grid ();
    decl ~name:"M" ~shape:[ 2; 3 ]
      ~dist:[ Xdp_dist.Dist.Star; Xdp_dist.Dist.Block ]
      ~grid:(Xdp_dist.Grid.linear 3) ();
  ]

let prog body = program ~name:"seq-test" ~decls body
let iv = var "i"

let test_loop_assign () =
  let r =
    Xdp_runtime.Seq.run
      (prog [ loop "i" (i 1) (i 8) [ set "A" [ iv ] (iv *: iv) ] ])
  in
  let a = Xdp_runtime.Seq.array r "A" in
  for k = 1 to 8 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "A[%d]" k)
      (float_of_int (k * k))
      (Xdp_util.Tensor.get a [ k ])
  done

let test_loop_step_and_if () =
  let r =
    Xdp_runtime.Seq.run
      (prog
         [
           loop_step "i" (i 1) (i 8) (i 2) [ set "A" [ iv ] (f 1.0) ];
           loop "i" (i 1) (i 8)
             [
               if_ (elem "A" [ iv ] =: f 1.0)
                 [ set "A" [ iv ] (f 2.0) ]
                 [ set "A" [ iv ] (f (-1.0)) ];
             ];
         ])
  in
  let a = Xdp_runtime.Seq.array r "A" in
  Alcotest.(check (float 0.0)) "odd" 2.0 (Xdp_util.Tensor.get a [ 3 ]);
  Alcotest.(check (float 0.0)) "even" (-1.0) (Xdp_util.Tensor.get a [ 4 ])

let test_init_and_scalars () =
  let r =
    Xdp_runtime.Seq.run
      ~init:(fun name idx ->
        match (name, idx) with "A", [ i ] -> float_of_int (10 * i) | _ -> 0.0)
      ~scalars:[ ("s", Xdp_runtime.Value.VInt 3) ]
      (prog [ set "A" [ var "s" ] (elem "A" [ var "s" ] +: f 0.5) ])
  in
  let a = Xdp_runtime.Seq.array r "A" in
  Alcotest.(check (float 0.0)) "seeded + updated" 30.5
    (Xdp_util.Tensor.get a [ 3 ]);
  Alcotest.(check (float 0.0)) "others seeded" 10.0
    (Xdp_util.Tensor.get a [ 1 ])

let test_apply_kernel () =
  let r =
    Xdp_runtime.Seq.run
      ~init:(fun _ idx -> float_of_int (List.hd idx))
      (prog [ apply "scale2" [ sec "A" [ slice (i 2) (i 4) ] ] ])
  in
  let a = Xdp_runtime.Seq.array r "A" in
  Alcotest.(check (float 0.0)) "inside scaled" 6.0 (Xdp_util.Tensor.get a [ 3 ]);
  Alcotest.(check (float 0.0)) "outside untouched" 5.0
    (Xdp_util.Tensor.get a [ 5 ])

let test_2d_kernel_slice () =
  (* smooth along a row of a 2-D array *)
  let r =
    Xdp_runtime.Seq.run
      ~init:(fun _ idx -> match idx with [ _; j ] -> float_of_int j | _ -> 0.0)
      (prog [ apply "smooth3" [ sec "M" [ at (i 1); all ] ] ])
  in
  let m = Xdp_runtime.Seq.array r "M" in
  Alcotest.(check (float 1e-9)) "row smoothed" 2.0
    (Xdp_util.Tensor.get m [ 1; 2 ]);
  Alcotest.(check (float 0.0)) "other row untouched" 2.0
    (Xdp_util.Tensor.get m [ 2; 2 ])

let test_rejects_xdp () =
  List.iter
    (fun st ->
      Alcotest.(check bool) "raises" true
        (try
           ignore (Xdp_runtime.Seq.run (prog [ st ]));
           false
         with Invalid_argument _ -> true))
    [
      send (sec "A" [ at (i 1) ]);
      recv_owner (sec "A" [ at (i 1) ]);
      iown (sec "A" [ at (i 1) ]) @: [];
    ]

let test_unknown_kernel () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Xdp_runtime.Seq.run (prog [ apply "mystery" [ sec "A" [ all ] ] ]));
       false
     with Invalid_argument _ -> true)

(* ---- behaviour pins: the reference's diagnostics, laziness and loop
   semantics, captured from the tree-walking interpreter. *)

let raises_text name msg body =
  Alcotest.check_raises name (Invalid_argument msg) (fun () ->
      ignore (Xdp_runtime.Seq.run (prog body)))

let test_error_texts () =
  raises_text "unbound scalar" "unbound scalar variable x"
    [ setv "y" (var "x" +: i 1) ];
  raises_text "unbound in subscript" "unbound scalar variable k"
    [ set "A" [ var "k" ] (f 1.0) ];
  raises_text "read out of bounds" "Tensor: index 9 out of bounds 1..8 in dim 1"
    [ setv "y" (elem "A" [ i 9 ]) ];
  raises_text "store out of bounds"
    "Tensor: index 0 out of bounds 1..8 in dim 1"
    [ set "A" [ i 0 ] (f 1.0) ];
  raises_text "2-D store out of bounds"
    "Tensor: index 4 out of bounds 1..3 in dim 2"
    [ set "M" [ i 1; i 4 ] (f 1.0) ];
  raises_text "read rank mismatch" "Tensor: rank mismatch"
    [ setv "y" (elem "M" [ i 1 ]) ];
  raises_text "store rank mismatch" "Tensor: rank mismatch"
    [ set "A" [ i 1; i 1 ] (f 1.0) ];
  (* a store checks bounds dimension by dimension before the rank *)
  raises_text "store: bounds before rank"
    "Tensor: index 9 out of bounds 1..8 in dim 1"
    [ set "A" [ i 9; i 1 ] (f 1.0) ];
  raises_text "section rank mismatch" "section A[1,1]: rank mismatch"
    [ apply "scale2" [ sec "A" [ at (i 1); at (i 1) ] ] ];
  raises_text "undeclared read" "Seq: undeclared array Z"
    [ setv "y" (elem "Z" [ i 1 ]) ];
  raises_text "undeclared store" "Seq: undeclared array Z"
    [ set "Z" [ i 1 ] (f 1.0) ];
  raises_text "undeclared kernel argument" "Seq: undeclared array Z"
    [ apply "scale2" [ sec "Z" [ all ] ] ];
  raises_text "zero step" "Seq: non-positive loop step"
    [ loop_step "i" (i 1) (i 4) (i 0) [] ];
  raises_text "negative step" "Seq: non-positive loop step"
    [ loop_step "i" (i 4) (i 1) (i (-1)) [] ];
  raises_text "unknown kernel" "Seq: unknown kernel mystery"
    [ apply "mystery" [ sec "A" [ all ] ] ];
  raises_text "XDP construct" "Seq: XDP construct in sequential program"
    [ send (sec "A" [ at (i 1) ]) ];
  raises_text "float subscript" "Value.to_int: 1.5"
    [ setv "y" (elem "A" [ f 1.5 ]) ];
  raises_text "boolean stored" "Value.to_float: true"
    [ set "A" [ i 1 ] (b true) ]

(* When two operands both fail, the right one is evaluated first; a
   store evaluates its subscripts, then its value, then finds its
   array; a slice evaluates stride, then upper, then lower bound. *)
let test_error_order () =
  raises_text "binop right first" "unbound scalar variable b"
    [ setv "x" (var "a" +: var "b") ];
  raises_text "element reads right first"
    "Tensor: index 11 out of bounds 1..8 in dim 1"
    [ setv "x" (elem "A" [ i 10 ] +: elem "A" [ i 11 ]) ];
  raises_text "comparison right first" "unbound scalar variable b"
    [ if_ (var "a" <: var "b") [] [] ];
  raises_text "and: left first" "unbound scalar variable a"
    [ if_ (var "a" &&: var "b") [] [] ];
  raises_text "store: subscript before value" "unbound scalar variable q"
    [ set "Z" [ var "q" ] (var "r") ];
  raises_text "store: value before array" "unbound scalar variable r"
    [ set "Z" [ i 1 ] (var "r") ];
  raises_text "slice: stride first" "unbound scalar variable st"
    [ apply "scale2" [ sec "A" [ slice3 (var "lo") (var "hi") (var "st") ] ] ];
  raises_text "loop: lower bound first" "unbound scalar variable a"
    [ loop_step "i" (var "a") (var "b") (var "c") [] ]

let failing_stmts =
  [
    setv "y" (var "nowhere");
    set "Z" [ i 1 ] (f 1.0);
    apply "mystery" [ sec "A" [ all ] ];
    apply "scale2" [ sec "Z" [ all ] ];
    loop_step "k" (i 1) (i 2) (i 0) [];
    send (sec "A" [ at (i 1) ]);
  ]

let test_lazy_errors () =
  List.iteri
    (fun n st ->
      let r =
        Xdp_runtime.Seq.run
          (prog
             [
               if_ (b false) [ st ] [];
               if_ (b true) [] [ st ];
               loop "i" (i 1) (i 0) [ st ];
               loop_step "j" (i 5) (i 1) (i 1) [ st ];
               set "A" [ i 1 ] (f 7.0);
             ])
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "stmt %d: later statements ran" n)
        7.0
        (Xdp_util.Tensor.get (Xdp_runtime.Seq.array r "A") [ 1 ]))
    failing_stmts

let scalar r name =
  Option.map
    (Format.asprintf "%a" Xdp_runtime.Value.pp)
    (List.assoc_opt name r.Xdp_runtime.Seq.scalars)

let test_loop_variable () =
  let r =
    Xdp_runtime.Seq.run (prog [ loop_step "i" (i 1) (i 8) (i 3) [] ])
  in
  Alcotest.(check (option string)) "last value kept" (Some "7")
    (scalar r "i");
  let r = Xdp_runtime.Seq.run (prog [ loop "i" (i 1) (i 0) [] ]) in
  Alcotest.(check bool) "zero-trip loop binds nothing" true
    (scalar r "i" = None);
  let r =
    Xdp_runtime.Seq.run
      ~scalars:[ ("unused", Xdp_runtime.Value.VBool true) ]
      (prog [])
  in
  Alcotest.(check (option string)) "initial scalars reported" (Some "true")
    (scalar r "unused")

let test_loop_variable_assigned_in_body () =
  let r =
    Xdp_runtime.Seq.run
      ~scalars:[ ("n", Xdp_runtime.Value.VInt 0) ]
      (prog
         [
           loop "i" (i 1) (i 4)
             [ setv "n" (var "n" +: i 1); setv "i" (var "i" *: i 100) ];
         ])
  in
  Alcotest.(check (option string)) "trip count unchanged" (Some "4")
    (scalar r "n");
  Alcotest.(check (option string)) "body's last assignment kept" (Some "400")
    (scalar r "i")

let () =
  Alcotest.run "seq"
    [
      ( "unit",
        [
          Alcotest.test_case "loop assign" `Quick test_loop_assign;
          Alcotest.test_case "step and if" `Quick test_loop_step_and_if;
          Alcotest.test_case "init and scalars" `Quick test_init_and_scalars;
          Alcotest.test_case "apply kernel" `Quick test_apply_kernel;
          Alcotest.test_case "2d kernel slice" `Quick test_2d_kernel_slice;
          Alcotest.test_case "rejects XDP stmts" `Quick test_rejects_xdp;
          Alcotest.test_case "unknown kernel" `Quick test_unknown_kernel;
          Alcotest.test_case "error texts" `Quick test_error_texts;
          Alcotest.test_case "error order" `Quick test_error_order;
          Alcotest.test_case "untaken errors are lazy" `Quick test_lazy_errors;
          Alcotest.test_case "loop variable" `Quick test_loop_variable;
          Alcotest.test_case "loop variable assigned in body" `Quick
            test_loop_variable_assigned_in_body;
        ] );
    ]
