(** Fault injection: feed the flow degraded technology libraries,
    malformed designs and exhausted budgets, and assert that every
    failure comes back as a typed {!Hls_diag.Diag.t} — never an
    exception — and that the degradation ladder serves a result when it
    promises to. *)

open Hls_frontend
module Diag = Hls_diag.Diag
module Flow = Hls_flow.Flow
module Lib = Hls_techlib.Library

(* ---- helpers ---- *)

(** Run the flow; any escaped exception is the bug this suite exists to
    catch. *)
let run_caught ?options design =
  match Flow.run ?options design with
  | r -> r
  | exception e -> Alcotest.failf "flow raised instead of returning: %s" (Printexc.to_string e)

let no_verify = { Flow.default_options with verify = false }

let expect_error ?phase ?code ?(options = no_verify) design =
  match run_caught ~options design with
  | Ok r -> Alcotest.failf "expected a typed error, got a %s-tier result" (Flow.tier_to_string r.Flow.f_tier)
  | Error d ->
      (match phase with
      | Some p ->
          Alcotest.(check string) "phase" (Diag.phase_to_string p) (Diag.phase_to_string d.Diag.d_phase)
      | None -> ());
      (match code with
      | Some c -> Alcotest.(check string) "code" c d.Diag.d_code
      | None -> ());
      d

(* ---- fault class 1: degraded library, absurdly slow operators ---- *)

let test_huge_delay_lib () =
  (* nothing fits in any clock: a typed overconstrained schedule error,
     not a crash, and the baseline rung cannot save it either *)
  let lib = { Lib.artisan90 with Lib.lib_name = "glacial"; d_mul = 1.0e7; d_add = 1.0e7 } in
  let d =
    expect_error ~phase:Diag.Schedule
      ~options:{ no_verify with lib; degrade = false }
      (Hls_designs.Example1.design ())
  in
  Alcotest.(check bool) "mentions restraints or a message" true (String.length d.Diag.d_message > 0)

(* ---- fault class 2: degraded library, zero-delay operators ---- *)

let test_zero_delay_lib () =
  (* degenerate characterization must not divide-by-zero or loop *)
  let lib =
    {
      Lib.artisan90 with
      Lib.lib_name = "free-lunch";
      d_mul = 0.0;
      d_add = 0.0;
      d_cmp_rel = 0.0;
      d_cmp_eq = 0.0;
      d_mux2 = 0.0;
      d_mux_per_extra_input = 0.0;
      ff_clk_q = 0.0;
      ff_clk_q_en = 0.0;
      ff_setup = 0.0;
    }
  in
  match run_caught ~options:{ no_verify with lib } (Hls_designs.Example1.design ()) with
  | Ok _ -> ()
  | Error d -> Alcotest.(check bool) "typed error, not a crash" true (String.length d.Diag.d_code > 0)

(* ---- fault class 3: degenerate clock period ---- *)

(* a period that is not a positive finite number is rejected before
   elaboration, and no degradation tier serves it a result *)
let test_zero_clock () =
  List.iter
    (fun clock_ps ->
      let _ =
        expect_error ~phase:Diag.Frontend ~code:"bad_clock"
          ~options:{ no_verify with clock_ps; degrade = true }
          (Hls_designs.Example1.design ())
      in
      ())
    [ 0.0; -100.0; Float.nan; Float.infinity; Float.neg_infinity ]

(* a negative stimulus length is rejected before elaboration too *)
let test_negative_stimulus () =
  List.iter
    (fun degrade ->
      let _ =
        expect_error ~phase:Diag.Frontend ~code:"bad_stimulus"
          ~options:{ Flow.default_options with sim_iters = -4; degrade }
          (Hls_designs.Example1.design ())
      in
      ())
    [ true; false ]

(* ---- fault class 4: malformed design (unknown port) ---- *)

let test_unknown_port () =
  let bad = Dsl.(design "bad" ~ins:[ in_port "a" 8 ] ~outs:[] ~vars:[] [ "x" := port "nope" ]) in
  let _ = expect_error ~phase:Diag.Frontend bad in
  ()

(* ---- fault class 5: inverted latency bounds ---- *)

let test_bad_latency_bounds () =
  let d =
    expect_error
      ~options:{ no_verify with min_latency = Some 8; max_latency = Some 2 }
      (Hls_designs.Example1.design ())
  in
  Alcotest.(check bool) "elaborate or schedule phase" true
    (d.Diag.d_phase = Diag.Elaborate || d.Diag.d_phase = Diag.Schedule)

(* a latency bound above Region.max_steps_limit is refused up front,
   before any pass walks its states; the limit itself is accepted *)
let test_unrepresentable_latency_bounds () =
  let limit = Hls_ir.Region.max_steps_limit in
  List.iter
    (fun (lo, hi) ->
      ignore
        (expect_error ~phase:Diag.Elaborate ~code:"invalid_bounds"
           ~options:{ no_verify with min_latency = Some lo; max_latency = Some hi }
           (Hls_designs.Example1.design ())))
    [ (1, limit + 1); (limit + 1, limit + 1); (max_int, max_int); (10_000_000, 10_000_000) ];
  match
    run_caught
      ~options:{ no_verify with min_latency = Some 1; max_latency = Some limit }
      (Hls_designs.Example1.design ())
  with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "bound %d refused: %s" limit d.Diag.d_message

(* ---- fault class 6: degenerate designs (empty, empty loop body) ---- *)

let test_empty_design () =
  let empty = Dsl.(design "empty" ~ins:[] ~outs:[] ~vars:[] []) in
  match run_caught ~options:no_verify empty with
  | Ok _ -> ()
  | Error d -> Alcotest.(check bool) "typed" true (String.length d.Diag.d_code > 0)

let test_empty_loop_body () =
  let d =
    Dsl.(
      design "hollow" ~ins:[ in_port "a" 8 ] ~outs:[ out_port "y" 8 ] ~vars:[]
        [ wait; do_while ~ii:1 [ wait ] (int 1) ])
  in
  match run_caught ~options:no_verify d with
  | Ok _ -> ()
  | Error e -> Alcotest.(check bool) "typed" true (String.length e.Diag.d_code > 0)

(* ---- fault class 7: infeasible recurrence at the requested II ---- *)

let recurrence_design () =
  Dsl.(
    design "rec1" ~ins:[ in_port "x" 32 ] ~outs:[ out_port "y" 32 ] ~vars:[ var "acc" 32 ]
      [
        "acc" := int 0;
        wait;
        do_while ~ii:1 ~max_latency:4
          [ "acc" := (v "acc" *: port "x") +: int 1; wait; write "y" (v "acc") ]
          (int 1);
      ])

let test_recurrence_infeasible () =
  (* mul+add ≈ 1280 ps around the carried cycle cannot meet II=1 at 1000 ps *)
  let d =
    expect_error ~phase:Diag.Schedule ~code:"recurrence_infeasible"
      ~options:{ no_verify with ii = Some 1; clock_ps = 1000.0; degrade = false }
      (recurrence_design ())
  in
  Alcotest.(check bool) "no budget tripped" true (d.Diag.d_budget = None)

(* ---- fault class 8: relaxation pass budget ---- *)

let tight_opts ~sched =
  { no_verify with ii = Some 1; clock_ps = 1600.0; degrade = false; sched }

let test_pass_budget () =
  let sched =
    { Hls_core.Scheduler.default_options with max_passes = 1; seed_latency_floor = false }
  in
  let d = expect_error ~phase:Diag.Schedule ~options:(tight_opts ~sched) (Hls_designs.Example1.design ~min_latency:1 ()) in
  Alcotest.(check string) "code" "budget_passes" d.Diag.d_code;
  (match d.Diag.d_budget with
  | Some (Diag.B_passes 1) -> ()
  | other ->
      Alcotest.failf "expected B_passes 1, got %s"
        (match other with Some b -> Diag.budget_to_string b | None -> "none"));
  Alcotest.(check bool) "pass count reported" true (d.Diag.d_passes >= 1)

(* ---- fault class 9: relaxation action budget ---- *)

let test_action_budget () =
  let sched =
    { Hls_core.Scheduler.default_options with max_actions = 0; seed_latency_floor = false }
  in
  let d = expect_error ~phase:Diag.Schedule ~options:(tight_opts ~sched) (Hls_designs.Example1.design ~min_latency:1 ()) in
  Alcotest.(check string) "code" "budget_actions" d.Diag.d_code;
  match d.Diag.d_budget with
  | Some (Diag.B_actions _) -> ()
  | _ -> Alcotest.fail "expected an action-budget diagnostic"

(* ---- fault class 10: wall-clock budget ---- *)

let test_wallclock_budget () =
  let sched = { Hls_core.Scheduler.default_options with timeout_s = Some 0.0 } in
  let d =
    expect_error ~phase:Diag.Schedule ~code:"budget_wallclock"
      ~options:{ no_verify with degrade = false; sched }
      (Hls_designs.Example1.design ())
  in
  match d.Diag.d_budget with
  | Some (Diag.B_wallclock _) -> ()
  | _ -> Alcotest.fail "expected a wall-clock budget diagnostic"

(* ---- fault class 10b: nonsense budgets ----
   a NaN or negative timeout and a negative pass or action budget are
   rejected up front; no tier serves them, degradation on or off *)

let test_bad_budget () =
  let d = Hls_core.Scheduler.default_options in
  List.iter
    (fun (sched, degrade) ->
      let _ =
        expect_error ~phase:Diag.Frontend ~code:"bad_budget"
          ~options:{ no_verify with sched; degrade }
          (Hls_designs.Example1.design ())
      in
      ())
    [
      ({ d with timeout_s = Some Float.nan }, false);
      ({ d with timeout_s = Some Float.nan }, true);
      ({ d with timeout_s = Some (-1.0) }, true);
      ({ d with timeout_s = Some Float.neg_infinity }, true);
      ({ d with max_passes = -1 }, true);
      ({ d with max_actions = -1 }, true);
    ]

(* ---- fault class 11: budget exhaustion + degradation ladder ----
   The acceptance criterion: with every unified-scheduler tier starved by
   a zero wall-clock budget, the flow must still return a result, served
   by the baseline tier, with the degradation recorded. *)

let test_degrades_to_baseline () =
  let sched = { Hls_core.Scheduler.default_options with timeout_s = Some 0.0 } in
  let options = { no_verify with ii = Some 1; sched; degrade = true } in
  match run_caught ~options (Hls_designs.Example1.design ()) with
  | Error d -> Alcotest.failf "ladder must serve a result, got: %s" (Diag.to_string d)
  | Ok r ->
      Alcotest.(check string) "tier" "baseline" (Flow.tier_to_string r.Flow.f_tier);
      Alcotest.(check bool) "degradation notes recorded" true (List.length r.Flow.f_notes >= 1);
      Alcotest.(check bool) "notes are warnings" true
        (List.for_all (fun n -> n.Diag.d_severity = Diag.Warning) r.Flow.f_notes);
      Alcotest.(check bool) "summary mentions the tier" true
        (let s = Flow.summary r in
         let needle = "degraded: baseline" in
         let n = String.length needle and l = String.length s in
         let rec find i = i + n <= l && (String.sub s i n = needle || find (i + 1)) in
         find 0)

(* ---- fault class 12: paranoid audit runs clean on healthy flows ---- *)

let test_paranoid_clean () =
  let options = { no_verify with paranoid = true; ii = Some 2 } in
  match run_caught ~options (Hls_designs.Example1.design ()) with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "paranoid flow failed: %s" (Diag.to_string d)

(* ---- diagnostic rendering ---- *)

let test_diag_json_well_formed () =
  let d =
    expect_error ~phase:Diag.Schedule
      ~options:{ no_verify with clock_ps = 400.0; degrade = false }
      (Hls_designs.Example1.design ())
  in
  let j = Diag.to_json d in
  Alcotest.(check bool) "object" true (j.[0] = '{' && j.[String.length j - 1] = '}');
  List.iter
    (fun field ->
      let needle = Printf.sprintf "\"%s\"" field in
      let n = String.length needle and l = String.length j in
      let rec find i = i + n <= l && (String.sub j i n = needle || find (i + 1)) in
      Alcotest.(check bool) (field ^ " present") true (find 0))
    [ "phase"; "severity"; "code"; "message"; "restraints"; "actions"; "passes"; "budget" ]

(* ---- fault class: typed frontend loop/nest rejections ---- *)

(* a design around [body] with enough ports/vars for the loop shapes below *)
let loop_design body =
  {
    Ast.d_name = "t";
    d_ins = [ ("x", 8) ];
    d_outs = [ ("y", 16) ];
    d_vars = [ ("acc", 16); ("i", 16); ("j", 16) ];
    d_body = body;
  }

let attrs name = { Ast.default_attrs with Ast.l_name = name }

(** Every frontend rejection must surface as a non-degradable
    [Frontend]-phase diagnostic carrying the typed fault code and the
    offending loop's name in the message. *)
let expect_frontend_fault ~code ~loop body =
  let d =
    expect_error ~phase:Diag.Frontend ~code
      ~options:{ no_verify with degrade = true } (* ladder must NOT rescue frontend faults *)
      (loop_design body)
  in
  let msg = d.Diag.d_message in
  let needle = "'" ^ loop ^ "'" in
  let n = String.length needle and l = String.length msg in
  let rec find i = i + n <= l && (String.sub msg i n = needle || find (i + 1)) in
  Alcotest.(check bool) (Printf.sprintf "message names loop %s: %s" loop msg) true (find 0)

let test_loop_under_conditional () =
  expect_frontend_fault ~code:"loop_under_conditional" ~loop:"guarded"
    [
      Ast.If
        ( Ast.Port "x",
          [ Ast.For ("i", 0, 4, [ Ast.Assign ("acc", Ast.Port "x"); Ast.Wait ], attrs "guarded") ],
          [] );
    ]

let test_nonpositive_trip () =
  expect_frontend_fault ~code:"nonpositive_trip" ~loop:"empty"
    [ Ast.For ("i", 5, 5, [ Ast.Assign ("acc", Ast.Port "x"); Ast.Wait ], attrs "empty") ]

let test_unroll_overflow () =
  (* a single loop marked [unroll] past the bound *)
  expect_frontend_fault ~code:"unroll_overflow" ~loop:"huge"
    [
      Ast.For
        ( "i",
          0,
          5000,
          [ Ast.Assign ("acc", Ast.Port "x"); Ast.Wait ],
          { (attrs "huge") with Ast.l_unroll = true } );
    ]

let test_nest_shape_rejection () =
  (* an INELIGIBLE nest (inner counter read after the inner loop) whose
     inner trip also exceeds the unroll bound: neither lowering applies,
     so the typed [nest_shape] fault must name the outer loop *)
  expect_frontend_fault ~code:"nest_shape" ~loop:"outer"
    [
      Ast.For
        ( "i",
          0,
          4,
          [
            Ast.For ("j", 0, 5000, [ Ast.Assign ("acc", Ast.Port "x"); Ast.Wait ], attrs "inner");
            Ast.Assign ("acc", Ast.Var "j");
          ],
          attrs "outer" );
    ]

let test_bad_nest_ii_grid () =
  (* an inconsistent per-dimension II request on a real nest: outer II
     must equal kernel II x inner trip (here 4), so [3; 1] is impossible *)
  let design =
    {
      Ast.d_name = "nested";
      d_ins = [ ("x", 8) ];
      d_outs = [ ("y", 20) ];
      d_vars = [ ("acc", 20); ("i", 4); ("j", 4) ];
      d_body =
        [
          Ast.For
            ( "i",
              0,
              4,
              [
                Ast.Assign ("acc", Ast.Int_w (0, 20));
                Ast.For
                  ( "j",
                    0,
                    4,
                    [
                      Ast.Assign
                        ("acc", Ast.Bin (Hls_ir.Opkind.Add, Ast.Var "acc", Ast.Port "x"));
                      Ast.Wait;
                    ],
                    attrs "col" );
                Ast.Write ("y", Ast.Var "acc");
              ],
              attrs "row" );
        ];
    }
  in
  let d =
    match
      Flow.run ~options:{ no_verify with ii_dims = Some [ 3; 1 ]; degrade = true } design
    with
    | Ok r -> Alcotest.failf "expected nest_ii error, got %s tier" (Flow.tier_to_string r.Flow.f_tier)
    | Error d -> d
  in
  Alcotest.(check string) "code" "nest_ii" d.Diag.d_code

let suite =
  [
    Alcotest.test_case "huge-delay library" `Quick test_huge_delay_lib;
    Alcotest.test_case "zero-delay library" `Quick test_zero_delay_lib;
    Alcotest.test_case "zero clock period" `Quick test_zero_clock;
    Alcotest.test_case "negative stimulus length" `Quick test_negative_stimulus;
    Alcotest.test_case "unknown port" `Quick test_unknown_port;
    Alcotest.test_case "inverted latency bounds" `Quick test_bad_latency_bounds;
    Alcotest.test_case "unrepresentable latency bounds" `Quick test_unrepresentable_latency_bounds;
    Alcotest.test_case "empty design" `Quick test_empty_design;
    Alcotest.test_case "empty loop body" `Quick test_empty_loop_body;
    Alcotest.test_case "recurrence infeasible" `Quick test_recurrence_infeasible;
    Alcotest.test_case "pass budget" `Quick test_pass_budget;
    Alcotest.test_case "action budget" `Quick test_action_budget;
    Alcotest.test_case "wall-clock budget" `Quick test_wallclock_budget;
    Alcotest.test_case "nonsense budgets rejected" `Quick test_bad_budget;
    Alcotest.test_case "degrades to baseline tier" `Quick test_degrades_to_baseline;
    Alcotest.test_case "paranoid audit clean" `Quick test_paranoid_clean;
    Alcotest.test_case "diagnostic JSON" `Quick test_diag_json_well_formed;
    Alcotest.test_case "loop under conditional (typed)" `Quick test_loop_under_conditional;
    Alcotest.test_case "non-positive trip count (typed)" `Quick test_nonpositive_trip;
    Alcotest.test_case "unroll overflow (typed)" `Quick test_unroll_overflow;
    Alcotest.test_case "ineligible nest shape (typed)" `Quick test_nest_shape_rejection;
    Alcotest.test_case "inconsistent nest II request" `Quick test_bad_nest_ii_grid;
  ]
