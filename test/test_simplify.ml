(* Constant folding / simplification tests, including the §4 patterns
   the localizer relies on. *)

open Xdp.Ir
open Xdp.Build

let expr_t = Alcotest.testable Xdp.Pp.pp_expr equal_expr
let simp = Xdp.Simplify.expr

let test_arith_folding () =
  Alcotest.check expr_t "ints" (Int 7) (simp (i 3 +: i 4));
  Alcotest.check expr_t "nested" (Int 10) (simp ((i 2 *: i 3) +: i 4));
  Alcotest.check expr_t "div" (Int 2) (simp (i 7 /: i 3));
  Alcotest.check expr_t "mod" (Int 1) (simp (i 7 %: i 3));
  Alcotest.check expr_t "min" (Int 3) (simp (emin (i 3) (i 9)));
  Alcotest.check expr_t "float" (Float 1.5) (simp (f 0.5 +: f 1.0));
  Alcotest.check expr_t "no div by zero" (i 1 /: i 0) (simp (i 1 /: i 0))

let test_identities () =
  Alcotest.check expr_t "x+0" Mypid (simp (mypid +: i 0));
  Alcotest.check expr_t "x*1" Mypid (simp (mypid *: i 1));
  Alcotest.check expr_t "x*0" (Int 0) (simp (mypid *: i 0));
  Alcotest.check expr_t "x-0" Mypid (simp (mypid -: i 0));
  Alcotest.check expr_t "true and e" (Iown (sec "A" [ all ]))
    (simp (b true &&: iown (sec "A" [ all ])));
  Alcotest.check expr_t "false and e" (Bool false)
    (simp (b false &&: iown (sec "A" [ all ])));
  Alcotest.check expr_t "min self" Mypid (simp (emin mypid mypid))

let test_affine_collapse () =
  (* the b=1 block bounds of §4: ((mypid-1)*1)+1 -> mypid *)
  Alcotest.check expr_t "block lb" Mypid
    (simp (((mypid -: i 1) *: i 1) +: i 1));
  Alcotest.check expr_t "block ub" Mypid (simp (mypid *: i 1));
  (* chained constants *)
  Alcotest.check expr_t "(e+2)+3" (Var "k" +: i 5)
    (simp ((var "k" +: i 2) +: i 3));
  Alcotest.check expr_t "(e-2)+3" (Var "k" +: i 1)
    (simp ((var "k" -: i 2) +: i 3))

let test_comparison_folding () =
  Alcotest.check expr_t "lt" (Bool true) (simp (i 2 <: i 4));
  Alcotest.check expr_t "ge" (Bool false) (simp (i 2 >=: i 4));
  Alcotest.check expr_t "symbolic untouched" (mypid =: i 2)
    (simp (mypid =: i 2))

let test_section_point_collapse () =
  (* lo:lo becomes a point selector *)
  match Xdp.Simplify.stmt (send_owner (sec "A" [ slice mypid mypid; all ])) with
  | Send_owner s ->
      Alcotest.(check string) "slice to point" "A[mypid,*]"
        (Xdp.Pp.section_to_string s)
  | _ -> Alcotest.fail "expected send"

let test_known_int () =
  Alcotest.(check (option int)) "folds" (Some 12)
    (Xdp.Simplify.known_int ((i 2 +: i 2) *: i 3));
  Alcotest.(check (option int)) "symbolic" None
    (Xdp.Simplify.known_int (mypid +: i 1))

let test_stmt_traversal () =
  let st =
    loop "i" (i 1 +: i 1) (i 8)
      [ set "A" [ var "i" ] (elem "A" [ var "i" ] *: i 1) ]
  in
  match Xdp.Simplify.stmt st with
  | For fl ->
      Alcotest.check expr_t "bounds folded" (Int 2) fl.lo;
      (match fl.body with
      | [ Assign (_, e) ] ->
          Alcotest.check expr_t "rhs simplified" (elem "A" [ var "i" ]) e
      | _ -> Alcotest.fail "body shape")
  | _ -> Alcotest.fail "expected For"

(* Property: simplification preserves evaluation (checked via the
   sequential evaluator over random environments). *)
let gen_pure_expr =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               map (fun v -> Int v) (int_range (-10) 10);
               oneofl [ Var "x"; Var "y"; Mypid; Nprocs ];
             ]
         else
           let sub = self (n / 2) in
           oneof
             [
               map (fun v -> Int v) (int_range (-10) 10);
               map2
                 (fun op (a, b) -> Bin (op, a, b))
                 (oneofl [ Add; Sub; Mul; Min; Max ])
                 (pair sub sub);
               map (fun e -> Un (Neg, e)) sub;
             ])

let eval_int_expr env e =
  let hooks =
    Sequential_hooks.make
      ~shape_of:(fun _ -> [ 1 ])
      ~elem:(fun _ _ -> 0.0)
      ~cm:Xdp_sim.Costmodel.idealized
  in
  let hooks = { hooks with Xdp_runtime.Evalexpr.mypid1 = 3; nprocs = 4 } in
  Xdp_runtime.Evalexpr.eval_int hooks env e

let prop_simplify_preserves_value =
  QCheck.Test.make ~name:"simplify preserves evaluation" ~count:500
    (QCheck.make ~print:Xdp.Pp.expr_to_string gen_pure_expr) (fun e ->
      let env = Hashtbl.create 4 in
      Hashtbl.replace env "x" (Xdp_runtime.Value.VInt 5);
      Hashtbl.replace env "y" (Xdp_runtime.Value.VInt (-2));
      eval_int_expr env e = eval_int_expr env (simp e))

let prop_simplify_idempotent =
  QCheck.Test.make ~name:"simplify is idempotent" ~count:500
    (QCheck.make ~print:Xdp.Pp.expr_to_string gen_pure_expr) (fun e ->
      let s = simp e in
      equal_expr s (simp s))

let () =
  Alcotest.run "simplify"
    [
      ( "unit",
        [
          Alcotest.test_case "arith folding" `Quick test_arith_folding;
          Alcotest.test_case "identities" `Quick test_identities;
          Alcotest.test_case "affine collapse" `Quick test_affine_collapse;
          Alcotest.test_case "comparisons" `Quick test_comparison_folding;
          Alcotest.test_case "section point" `Quick test_section_point_collapse;
          Alcotest.test_case "known_int" `Quick test_known_int;
          Alcotest.test_case "stmt traversal" `Quick test_stmt_traversal;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_simplify_preserves_value; prop_simplify_idempotent ] );
    ]
