(** Operation kinds: arity, resource classes, evaluation, width rules. *)

open Hls_ir

let test_arity () =
  Alcotest.(check int) "bin" 2 (Opkind.arity (Opkind.Bin Opkind.Add));
  Alcotest.(check int) "un" 1 (Opkind.arity (Opkind.Un Opkind.Neg));
  Alcotest.(check int) "mux" 3 (Opkind.arity Opkind.Mux);
  Alcotest.(check int) "loop mux" 2 (Opkind.arity Opkind.Loop_mux);
  Alcotest.(check int) "const" 0 (Opkind.arity (Opkind.Const 5));
  Alcotest.(check int) "write" 1 (Opkind.arity (Opkind.Write "y"))

let test_rclass () =
  Alcotest.(check bool) "add and sub share" true
    (Opkind.rclass (Opkind.Bin Opkind.Add) = Opkind.rclass (Opkind.Bin Opkind.Sub));
  Alcotest.(check bool) "gt and eq do not share" false
    (Opkind.rclass (Opkind.Bin Opkind.Gt) = Opkind.rclass (Opkind.Bin Opkind.Eq));
  Alcotest.(check bool) "mux and loop mux share" true
    (Opkind.rclass Opkind.Mux = Opkind.rclass Opkind.Loop_mux);
  Alcotest.(check bool) "slice is wiring" true (Opkind.rclass (Opkind.Slice (7, 0)) = Opkind.R_wire)

let test_is_resource_op () =
  Alcotest.(check bool) "mul is" true (Opkind.is_resource_op (Opkind.Bin Opkind.Mul));
  Alcotest.(check bool) "const is not" false (Opkind.is_resource_op (Opkind.Const 3));
  Alcotest.(check bool) "read is not" false (Opkind.is_resource_op (Opkind.Read "a"));
  Alcotest.(check bool) "mux is" true (Opkind.is_resource_op Opkind.Mux)

let test_complexity_order () =
  let c k = Opkind.complexity k in
  Alcotest.(check bool) "div > mul" true (c (Opkind.Bin Opkind.Div) > c (Opkind.Bin Opkind.Mul));
  Alcotest.(check bool) "mul > add" true (c (Opkind.Bin Opkind.Mul) > c (Opkind.Bin Opkind.Add));
  Alcotest.(check bool) "add > cmp" true (c (Opkind.Bin Opkind.Add) > c (Opkind.Bin Opkind.Gt))

let test_eval_pure () =
  let e k args = Option.get (Opkind.eval_pure k args) in
  Alcotest.(check int) "add" 7 (e (Opkind.Bin Opkind.Add) [ 3; 4 ]);
  Alcotest.(check int) "sub" (-1) (e (Opkind.Bin Opkind.Sub) [ 3; 4 ]);
  Alcotest.(check int) "mul" 12 (e (Opkind.Bin Opkind.Mul) [ 3; 4 ]);
  Alcotest.(check int) "div by zero is 0" 0 (e (Opkind.Bin Opkind.Div) [ 3; 0 ]);
  Alcotest.(check int) "lt true" 1 (e (Opkind.Bin Opkind.Lt) [ 3; 4 ]);
  Alcotest.(check int) "mux select" 9 (e Opkind.Mux [ 1; 9; 5 ]);
  Alcotest.(check int) "mux deselect" 5 (e Opkind.Mux [ 0; 9; 5 ]);
  Alcotest.(check int) "slice" 5 (e (Opkind.Slice (2, 0)) [ 0b1101 ]);
  Alcotest.(check bool) "loop mux is stateful" true (Opkind.eval_pure Opkind.Loop_mux [ 1; 2 ] = None)

let test_result_width () =
  Alcotest.(check int) "add grows" 17 (Opkind.result_width (Opkind.Bin Opkind.Add) [ 16; 16 ]);
  Alcotest.(check int) "cmp is a bit" 1 (Opkind.result_width (Opkind.Bin Opkind.Gt) [ 16; 16 ]);
  Alcotest.(check int) "mux takes data max" 24 (Opkind.result_width Opkind.Mux [ 1; 24; 16 ]);
  Alcotest.(check int) "slice" 8 (Opkind.result_width (Opkind.Slice (9, 2)) [ 32 ]);
  Alcotest.(check int) "read uses self" 12 (Opkind.result_width ~self:12 (Opkind.Read "p") [])

let suite =
  [
    Alcotest.test_case "arity" `Quick test_arity;
    Alcotest.test_case "resource classes" `Quick test_rclass;
    Alcotest.test_case "is_resource_op" `Quick test_is_resource_op;
    Alcotest.test_case "complexity ordering" `Quick test_complexity_order;
    Alcotest.test_case "eval_pure" `Quick test_eval_pure;
    Alcotest.test_case "result widths" `Quick test_result_width;
  ]
