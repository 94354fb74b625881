(** Frontend: desugaring (unrolling, while lowering, Fig. 4 wait
    balancing) and semantic checks. *)

open Hls_frontend
open Ast

let dsl_body stmts =
  Dsl.(design "t" ~ins:[ in_port "a" 8 ] ~outs:[ out_port "y" 8 ] ~vars:[ var "x" 8 ] stmts)

let test_for_unroll () =
  let d =
    dsl_body
      Dsl.[ for_ ~unroll:true "i" ~from:0 ~below:3 [ "x" := v "x" +: v "i" ]; write "y" (v "x") ]
  in
  let d' = Desugar.design d in
  Alcotest.(check bool) "no loops left" false (contains_loop d'.d_body);
  (* three unrolled copies assign x *)
  let assigns = List.length (List.filter (function Assign ("x", _) -> true | _ -> false) d'.d_body) in
  Alcotest.(check int) "three body copies" 3 assigns

let test_for_to_dowhile () =
  let d =
    dsl_body Dsl.[ for_ "i" ~from:0 ~below:10 [ "x" := v "x" +: v "i"; wait ]; write "y" (v "x") ]
  in
  let d' = Desugar.design d in
  let has_dowhile = List.exists (function Do_while _ -> true | _ -> false) d'.d_body in
  Alcotest.(check bool) "counted loop becomes do/while" true has_dowhile

let test_inner_for_auto_unrolls () =
  let d =
    dsl_body
      Dsl.
        [
          do_while ~name:"outer"
            [ for_ "i" ~from:0 ~below:4 [ "x" := v "x" +: v "i" ]; wait; write "y" (v "x") ]
            (int 1);
        ]
  in
  let d' = Desugar.design d in
  let no_nested = function
    | Do_while (b, _, _) -> not (contains_loop b)
    | _ -> true
  in
  Alcotest.(check bool) "inner loop unrolled away" true (List.for_all no_nested d'.d_body)

let test_while_const_becomes_dowhile () =
  let d = dsl_body Dsl.[ while_ (int 1) [ "x" := v "x" +: int 1; wait; write "y" (v "x") ] ] in
  let d' = Desugar.design d in
  Alcotest.(check bool) "while(1) lowered" true
    (List.exists (function Do_while _ -> true | _ -> false) d'.d_body)

let test_while_dynamic_rejected () =
  let d = dsl_body Dsl.[ while_ (v "x" <: int 5) [ "x" := v "x" +: int 1; wait ] ] in
  Alcotest.check_raises "data-dependent while is rejected"
    (Desugar.Error
       {
         Hls_frontend.Fault.fe_code = "while_dynamic";
         fe_loop = Some "loop";
         fe_message =
           "data-dependent 'while' loop 'loop' is not supported: use do/while (the loop body \
            must execute at least once)";
       })
    (fun () -> ignore (Desugar.design d))

let test_wait_balancing () =
  (* Fig. 4: branches with different wait counts become balanced,
     wait-free conditionals separated by shared waits *)
  let d =
    dsl_body
      Dsl.
        [
          if_ (v "x" >: int 0)
            [ "x" := v "x" +: int 1; wait; "x" := v "x" *: int 2 ]
            [ "x" := v "x" -: int 1 ];
          write "y" (v "x");
        ]
  in
  let d' = Desugar.design d in
  let waits = List.length (List.filter (( = ) Wait) d'.d_body) in
  Alcotest.(check int) "one shared wait" 1 waits;
  let ifs = List.filter (function If _ -> true | _ -> false) d'.d_body in
  Alcotest.(check int) "two balanced conditionals" 2 (List.length ifs);
  List.iter
    (function
      | If (_, t, f) ->
          Alcotest.(check int) "branches wait-free (t)" 0 (count_waits t);
          Alcotest.(check int) "branches wait-free (f)" 0 (count_waits f)
      | _ -> ())
    ifs;
  (* the condition is hoisted into a temporary so it is evaluated once *)
  Alcotest.(check bool) "condition hoisted" true
    (List.exists (function Assign (v, _) -> String.length v > 3 && String.sub v 0 3 = "_pc" | _ -> false)
       d'.d_body)

let test_check_undeclared_port () =
  let d = dsl_body Dsl.[ "x" := port "nope"; write "y" (v "x") ] in
  let d' = Desugar.design d in
  Alcotest.(check bool) "undeclared port flagged" true (Check.run d' <> [])

let test_check_read_before_write () =
  let d = dsl_body Dsl.[ write "y" (v "ghost") ] in
  Alcotest.(check bool) "use before def flagged" true (Check.run (Desugar.design d) <> [])

let test_check_two_loops () =
  let d =
    dsl_body
      Dsl.
        [
          do_while [ "x" := v "x" +: int 1; wait ] (int 1);
          do_while [ "x" := v "x" +: int 2; wait ] (int 1);
        ]
  in
  Alcotest.(check bool) "two top-level loops flagged" true (Check.run (Desugar.design d) <> [])

let test_check_bad_ii () =
  let d = dsl_body Dsl.[ do_while ~ii:0 [ "x" := v "x" +: int 1; wait ] (int 1) ] in
  Alcotest.(check bool) "II=0 flagged" true (Check.run (Desugar.design d) <> [])

let test_check_clean_design () =
  Alcotest.(check (list string)) "example1 is clean" []
    (Check.run (Desugar.design (Hls_designs.Example1.design ())))

(* after an [if], a variable counts as assigned only when both branches
   assign it; [t] is not a declared variable, so only the branches define
   it *)
let test_check_branch_definitions () =
  let c = Dsl.(v "x" >: int 0) and c' = Dsl.(v "x" >: int 1) in
  let errors body = Check.run (dsl_body (body @ Dsl.[ write "y" (v "t") ])) in
  let unset = [ "variable 't' read before any assignment" ] in
  Alcotest.(check (list string)) "both branches" []
    (errors Dsl.[ if_ c [ "t" := int 1 ] [ "t" := int 2 ] ]);
  Alcotest.(check (list string)) "then branch only" unset
    (errors Dsl.[ if_ c [ "t" := int 1 ] [ "x" := int 2 ] ]);
  Alcotest.(check (list string)) "else branch only" unset (errors Dsl.[ if_ c [] [ "t" := int 2 ] ]);
  Alcotest.(check (list string)) "a branch does not see the other's definitions" unset
    (errors Dsl.[ if_ c [ "t" := int 1 ] [ "x" := v "t" ]; "t" := int 3 ]);
  Alcotest.(check (list string)) "nested, every path" []
    (errors Dsl.[ if_ c [ if_ c' [ "t" := int 1 ] [ "t" := int 2 ] ] [ "t" := int 3 ] ]);
  Alcotest.(check (list string)) "nested, one inner path misses" unset
    (errors Dsl.[ if_ c [ if_ c' [ "t" := int 1 ] [] ] [ "t" := int 3 ] ]);
  Alcotest.(check (list string)) "nested inside the else branch" unset
    (errors Dsl.[ if_ c [ "t" := int 1 ] [ if_ c' [] [ "t" := int 2 ] ] ]);
  Alcotest.(check (list string)) "defined before the if" []
    (errors Dsl.[ "t" := int 0; if_ c [] [ if_ c' [ "t" := int 1 ] [] ] ])

let suite =
  [
    Alcotest.test_case "for unroll" `Quick test_for_unroll;
    Alcotest.test_case "for to do/while" `Quick test_for_to_dowhile;
    Alcotest.test_case "inner for auto-unrolls" `Quick test_inner_for_auto_unrolls;
    Alcotest.test_case "while(1) lowering" `Quick test_while_const_becomes_dowhile;
    Alcotest.test_case "dynamic while rejected" `Quick test_while_dynamic_rejected;
    Alcotest.test_case "Fig. 4 wait balancing" `Quick test_wait_balancing;
    Alcotest.test_case "check: undeclared port" `Quick test_check_undeclared_port;
    Alcotest.test_case "check: read before write" `Quick test_check_read_before_write;
    Alcotest.test_case "check: two loops" `Quick test_check_two_loops;
    Alcotest.test_case "check: bad II" `Quick test_check_bad_ii;
    Alcotest.test_case "check: example1 clean" `Quick test_check_clean_design;
    Alcotest.test_case "check: definitions across if branches" `Quick
      test_check_branch_definitions;
  ]
