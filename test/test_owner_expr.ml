(* Owner-expression generator tests: the static owner formulas must
   agree with the layout's owner function for every element. *)

open Xdp_dist
open Xdp.Build

let eval_pid1 e ~i_val =
  (* evaluate an owner expression with i bound *)
  let hooks =
    Sequential_hooks.make
      ~shape_of:(fun _ -> [ 1 ])
      ~elem:(fun _ _ -> 0.0)
      ~cm:Xdp_sim.Costmodel.idealized
  in
  let env = Hashtbl.create 4 in
  Hashtbl.replace env "i" (Xdp_runtime.Value.VInt i_val);
  Xdp_runtime.Evalexpr.eval_int hooks env e

let check_layout_agrees name layout section_of_i =
  for iv = 1 to List.hd (Layout.shape layout) do
    match Xdp.Owner_expr.of_section layout (section_of_i ()) with
    | None -> Alcotest.failf "%s: expected owner expr" name
    | Some e ->
        let got = eval_pid1 e ~i_val:iv - 1 in
        let want = Layout.owner layout (iv :: List.tl (List.map (fun _ -> 1) (Layout.shape layout))) in
        Alcotest.(check int) (Printf.sprintf "%s i=%d" name iv) want got
  done

let test_block_1d () =
  let l = Layout.make ~shape:[ 8 ] ~dist:[ Dist.Block ] ~grid:(Grid.linear 4) in
  check_layout_agrees "block" l (fun () -> sec "A" [ at (var "i") ])

let test_cyclic_1d () =
  let l = Layout.make ~shape:[ 11 ] ~dist:[ Dist.Cyclic ] ~grid:(Grid.linear 4) in
  check_layout_agrees "cyclic" l (fun () -> sec "A" [ at (var "i") ])

let test_block_cyclic_1d () =
  let l =
    Layout.make ~shape:[ 12 ] ~dist:[ Dist.Block_cyclic 2 ]
      ~grid:(Grid.linear 3)
  in
  check_layout_agrees "block_cyclic" l (fun () -> sec "A" [ at (var "i") ])

let test_star_dims_ignored () =
  let l =
    Layout.make ~shape:[ 4; 8 ] ~dist:[ Dist.Star; Dist.Block ]
      ~grid:(Grid.linear 2)
  in
  match Xdp.Owner_expr.of_section l (sec "A" [ all; at (i 6) ]) with
  | Some e ->
      let hooks =
        Sequential_hooks.make
          ~shape_of:(fun _ -> [ 1 ])
          ~elem:(fun _ _ -> 0.0)
          ~cm:Xdp_sim.Costmodel.idealized
      in
      Alcotest.(check int) "column 6 on P2" 2
        (Xdp_runtime.Evalexpr.eval_int hooks (Hashtbl.create 1) e)
  | None -> Alcotest.fail "expected owner expr"

let test_2d_grid () =
  let l =
    Layout.make ~shape:[ 8; 8 ] ~dist:[ Dist.Block; Dist.Block ]
      ~grid:(Grid.make [ 2; 2 ])
  in
  (* every element position must agree *)
  let hooks =
    Sequential_hooks.make
      ~shape_of:(fun _ -> [ 1 ])
      ~elem:(fun _ _ -> 0.0)
      ~cm:Xdp_sim.Costmodel.idealized
  in
  for r = 1 to 8 do
    for c = 1 to 8 do
      match Xdp.Owner_expr.of_section l (sec "M" [ at (i r); at (i c) ]) with
      | Some e ->
          Alcotest.(check int)
            (Printf.sprintf "(%d,%d)" r c)
            (Layout.owner l [ r; c ])
            (Xdp_runtime.Evalexpr.eval_int hooks (Hashtbl.create 1) e - 1)
      | None -> Alcotest.fail "expected owner expr"
    done
  done

let test_spanning_selector_gives_none () =
  let l = Layout.make ~shape:[ 8 ] ~dist:[ Dist.Block ] ~grid:(Grid.linear 4) in
  Alcotest.(check bool) "All spans" true
    (Xdp.Owner_expr.of_section l (sec "A" [ all ]) = None);
  Alcotest.(check bool) "slice spans" true
    (Xdp.Owner_expr.of_section l (sec "A" [ slice (i 1) (i 8) ]) = None)

let () =
  Alcotest.run "owner_expr"
    [
      ( "unit",
        [
          Alcotest.test_case "block" `Quick test_block_1d;
          Alcotest.test_case "cyclic" `Quick test_cyclic_1d;
          Alcotest.test_case "block_cyclic" `Quick test_block_cyclic_1d;
          Alcotest.test_case "star ignored" `Quick test_star_dims_ignored;
          Alcotest.test_case "2d grid" `Quick test_2d_grid;
          Alcotest.test_case "spanning gives none" `Quick
            test_spanning_selector_gives_none;
        ] );
    ]
