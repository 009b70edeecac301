(* Expression evaluator tests: value semantics, section resolution,
   guard tri-state behaviour, and MAXINT/MININT intrinsics. *)

open Xdp.Build
module E = Xdp_runtime.Evalexpr
module V = Xdp_runtime.Value

let hooks ?(owned = fun _ _ -> true) ?(accessible = fun _ _ -> true)
    ?(elem = fun _ _ -> 1.5) () =
  let base =
    Sequential_hooks.make
      ~shape_of:(fun _ -> [ 4; 8 ])
      ~elem:(fun name idx ->
        let idx = Array.to_list idx in
        if owned name idx then elem name idx
        else raise (E.Unowned_ref name))
      ~cm:Xdp_sim.Costmodel.idealized
  in
  {
    base with
    E.mypid1 = 2;
    nprocs = 4;
    iown =
      (fun name box ->
        Xdp_util.Box.fold (fun acc idx -> acc && owned name idx) true box);
    accessible =
      (fun name box ->
        Xdp_util.Box.fold (fun acc idx -> acc && accessible name idx) true box);
    await =
      (fun name box ->
        if not (Xdp_util.Box.fold (fun acc idx -> acc && owned name idx) true box)
        then false
        else if
          Xdp_util.Box.fold (fun acc idx -> acc && accessible name idx) true box
        then true
        else raise (E.Blocked_on (name, box)));
  }

let env () = Hashtbl.create 8

let test_values () =
  let h = hooks () in
  let e = env () in
  Hashtbl.replace e "x" (V.VInt 3);
  Alcotest.(check int) "arith" 13 (E.eval_int h e ((var "x" *: i 4) +: i 1));
  Alcotest.(check bool) "mypid" true (E.eval h e mypid = V.VInt 2);
  Alcotest.(check bool) "nprocs" true (E.eval h e nprocs = V.VInt 4);
  Alcotest.(check bool) "promote" true
    (V.equal (E.eval h e (i 1 +: f 0.5)) (V.VFloat 1.5));
  Alcotest.(check bool) "comparison" true
    (E.eval h e (i 3 <=: i 3) = V.VBool true);
  Alcotest.(check bool) "unbound var raises" true
    (try
       ignore (E.eval h e (var "zz"));
       false
     with Invalid_argument _ -> true)

let test_short_circuit () =
  let h = hooks () in
  let e = env () in
  (* false and <raise> must not raise *)
  let bomb = elem "A" [ i 99; i 99 ] in
  let h' = { h with E.elem = (fun _ _ -> failwith "boom") } in
  Alcotest.(check bool) "and short" true
    (E.eval h' e (b false &&: (bomb =: f 0.0)) = V.VBool false);
  Alcotest.(check bool) "or short" true
    (E.eval h' e (b true ||: (bomb =: f 0.0)) = V.VBool true)

let test_section_resolution () =
  let h = hooks () in
  let e = env () in
  Hashtbl.replace e "k" (V.VInt 3);
  let box = E.resolve_section h e (sec "A" [ all; slice3 (var "k") (i 8) (i 2) ]) in
  Alcotest.(check string) "resolved" "[1:4, 3:7:2]"
    (Xdp_util.Box.to_string box);
  Alcotest.(check bool) "rank mismatch raises" true
    (try
       ignore (E.resolve_section h e (sec "A" [ all ]));
       false
     with Invalid_argument _ -> true)

let test_guard_unowned_is_false () =
  let h = hooks ~owned:(fun _ idx -> idx <> [ 1; 1 ]) () in
  let e = env () in
  (* reading an unowned element inside a guard makes the rule false *)
  Alcotest.(check bool) "unowned ref -> false" false
    (E.eval_guard h e (elem "A" [ i 1; i 1 ] >: f 0.0));
  Alcotest.(check bool) "owned ref fine" true
    (E.eval_guard h e (elem "A" [ i 2; i 2 ] >: f 0.0));
  (* ... but pure evaluation propagates the exception *)
  Alcotest.(check bool) "hard eval raises" true
    (try
       ignore (E.eval h e (elem "A" [ i 1; i 1 ]));
       false
     with E.Unowned_ref _ -> true)

let test_intrinsic_results () =
  let h = hooks ~owned:(fun _ idx -> List.hd idx >= 3) () in
  let e = env () in
  Alcotest.(check bool) "iown false" true
    (E.eval h e (iown (sec "A" [ all; all ])) = V.VBool false);
  Alcotest.(check bool) "iown true on owned part" true
    (E.eval h e (iown (sec "A" [ slice (i 3) (i 4); all ])) = V.VBool true)

let test_mylb_maxint () =
  let h = hooks () in
  let h =
    { h with E.mylb = (fun _ _ _ -> None); myub = (fun _ _ _ -> None) }
  in
  let e = env () in
  Alcotest.(check int) "MAXINT" max_int
    (E.eval_int h e (mylb (sec "A" [ all; all ]) 1));
  Alcotest.(check int) "MININT" min_int
    (E.eval_int h e (myub (sec "A" [ all; all ]) 1))

let test_await_tristate () =
  let h =
    hooks
      ~owned:(fun _ idx -> List.hd idx <= 2)
      ~accessible:(fun _ idx -> idx <> [ 2; 1 ])
      ()
  in
  let e = env () in
  (* unowned -> false, no block *)
  Alcotest.(check bool) "unowned await false" true
    (E.eval h e (await (sec "A" [ at (i 3); all ])) = V.VBool false);
  (* owned accessible -> true *)
  Alcotest.(check bool) "accessible await true" true
    (E.eval h e (await (sec "A" [ at (i 1); all ])) = V.VBool true);
  (* owned transitional -> blocks *)
  Alcotest.(check bool) "transitional blocks" true
    (try
       ignore (E.eval h e (await (sec "A" [ at (i 2); all ])));
       false
     with E.Blocked_on ("A", _) -> true)

let test_value_ops () =
  Alcotest.(check bool) "int div" true (V.binop Xdp.Ir.Div (V.VInt 7) (V.VInt 2) = V.VInt 3);
  Alcotest.(check bool) "float div" true
    (V.equal (V.binop Xdp.Ir.Div (V.VInt 7) (V.VFloat 2.0)) (V.VFloat 3.5));
  Alcotest.(check bool) "div by zero raises" true
    (try
       ignore (V.binop Xdp.Ir.Div (V.VInt 1) (V.VInt 0));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "to_int rejects float" true
    (try
       ignore (V.to_int (V.VFloat 1.5));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "mixed eq" true
    (V.binop Xdp.Ir.Eq (V.VInt 2) (V.VFloat 2.0) = V.VBool true)

let () =
  Alcotest.run "eval"
    [
      ( "unit",
        [
          Alcotest.test_case "values" `Quick test_values;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "section resolution" `Quick
            test_section_resolution;
          Alcotest.test_case "guard unowned" `Quick
            test_guard_unowned_is_false;
          Alcotest.test_case "intrinsics" `Quick test_intrinsic_results;
          Alcotest.test_case "mylb MAXINT" `Quick test_mylb_maxint;
          Alcotest.test_case "await tri-state" `Quick test_await_tristate;
          Alcotest.test_case "value ops" `Quick test_value_ops;
        ] );
    ]
