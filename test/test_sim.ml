(** Simulators: behavioural semantics, and functional equivalence between
    the golden model and the scheduled design across the whole design ×
    micro-architecture matrix. *)

open Hls_frontend
open Hls_core

let lib = Hls_techlib.Library.artisan90

let test_behav_basics () =
  let open Dsl in
  let d =
    design "acc" ~ins:[ in_port "a" 8 ] ~outs:[ out_port "y" 16 ] ~vars:[ var "s" 16 ]
      [
        "s" := int 0;
        wait;
        do_while [ "s" := v "s" +: port "a"; wait; write "y" (v "s") ] (int 1);
      ]
  in
  let stim = Hls_sim.Stimulus.create ~n_iters:4 [ ("a", [| 1; 2; 3; 4 |]) ] in
  let r = Hls_sim.Behav.run d stim in
  Alcotest.(check (list int)) "running sums" [ 1; 3; 6; 10 ] (Hls_sim.Behav.port_values r "y");
  Alcotest.(check int) "four iterations" 4 r.Hls_sim.Behav.r_iters

let test_behav_if_semantics () =
  let open Dsl in
  let d =
    design "absd" ~ins:[ in_port "a" 8; in_port "b" 8 ] ~outs:[ out_port "y" 9 ]
      ~vars:[ var "x" 9 ]
      [
        "x" := int 0;
        wait;
        do_while
          [
            if_ (port "a" >: port "b") [ "x" := port "a" -: port "b" ] [ "x" := port "b" -: port "a" ];
            wait;
            write "y" (v "x");
          ]
          (int 1);
      ]
  in
  let stim = Hls_sim.Stimulus.create ~n_iters:3 [ ("a", [| 5; 2; 7 |]); ("b", [| 3; 9; 7 |]) ] in
  let r = Hls_sim.Behav.run d stim in
  Alcotest.(check (list int)) "abs differences" [ 2; 7; 0 ] (Hls_sim.Behav.port_values r "y")

let test_behav_width_wrap () =
  let open Dsl in
  let d =
    design "wrap" ~ins:[ in_port "a" 8 ] ~outs:[ out_port "y" 8 ] ~vars:[ var "x" 8 ]
      [
        "x" := int 0;
        wait;
        do_while [ "x" := v "x" +: port "a"; wait; write "y" (v "x") ] (int 1);
      ]
  in
  let stim = Hls_sim.Stimulus.create ~n_iters:2 [ ("a", [| 100; 100 |]) ] in
  let r = Hls_sim.Behav.run d stim in
  (* 200 wraps in 8 signed bits to -56 *)
  Alcotest.(check (list int)) "8-bit wraparound" [ 100; -56 ] (Hls_sim.Behav.port_values r "y")

let test_behav_exit_condition () =
  let open Dsl in
  let d =
    design "ex" ~ins:[ in_port "a" 8 ] ~outs:[ out_port "y" 8 ] ~vars:[ var "x" 8 ]
      [
        "x" := int 0;
        wait;
        do_while [ "x" := port "a"; wait; write "y" (v "x") ] (v "x" <>: int 0);
      ]
  in
  let stim = Hls_sim.Stimulus.create ~n_iters:5 [ ("a", [| 3; 7; 0; 9; 9 |]) ] in
  let r = Hls_sim.Behav.run d stim in
  Alcotest.(check int) "stops when a = 0" 3 r.Hls_sim.Behav.r_iters;
  Alcotest.(check (list int)) "outputs up to the exit" [ 3; 7; 0 ] (Hls_sim.Behav.port_values r "y")

(* ------------------------------------------------------------------ *)

let equiv_case name design ii n_iters seed =
  Alcotest.test_case
    (Printf.sprintf "%s%s" name (match ii with Some i -> Printf.sprintf " II=%d" i | None -> ""))
    `Quick
    (fun () ->
      let e = Elaborate.design design in
      let region = Elaborate.main_region ?ii e in
      match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
      | Error err -> Alcotest.failf "schedule failed: %s" err.Scheduler.e_message
      | Ok s ->
          let stim =
            Hls_sim.Stimulus.small_random ~seed ~n_iters ~ports:design.Ast.d_ins
          in
          let golden = Hls_sim.Behav.run design stim in
          let sim = Hls_sim.Schedule_sim.run e s stim in
          let v = Hls_sim.Equiv.check ~out_ports:design.Ast.d_outs golden sim in
          if not v.Hls_sim.Equiv.equivalent then
            Alcotest.fail (Hls_sim.Equiv.verdict_to_string v);
          Alcotest.(check bool) "nonempty check" true (v.Hls_sim.Equiv.checked_values > 0))

let test_throughput_matches_ii () =
  let d = Hls_designs.Example1.design () in
  let e = Elaborate.design d in
  let region = Elaborate.main_region ~ii:2 e in
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Error err -> Alcotest.failf "schedule failed: %s" err.Scheduler.e_message
  | Ok s ->
      let stim = Hls_sim.Stimulus.small_random ~seed:5 ~n_iters:40 ~ports:d.Ast.d_ins in
      let sim = Hls_sim.Schedule_sim.run e s stim in
      (* steady state: ~II cycles per committed iteration plus the drain *)
      let expected = ((sim.Hls_sim.Schedule_sim.r_iters - 1) * 2) + s.Scheduler.s_li in
      Alcotest.(check int) "cycle count" expected sim.Hls_sim.Schedule_sim.r_cycles

let test_exec_counts_reflect_guards () =
  let d = Hls_designs.Example1.design () in
  let e = Elaborate.design d in
  let region = Elaborate.main_region e in
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Error err -> Alcotest.failf "schedule failed: %s" err.Scheduler.e_message
  | Ok s ->
      let stim = Hls_sim.Stimulus.small_random ~seed:5 ~n_iters:30 ~ports:d.Ast.d_ins in
      let sim = Hls_sim.Schedule_sim.run e s stim in
      (* every member op executes once per issued iteration in the
         predicated datapath model *)
      Hashtbl.iter
        (fun _op n ->
          Alcotest.(check bool) "bounded by issue count" true
            (n <= sim.Hls_sim.Schedule_sim.r_issued))
        sim.Hls_sim.Schedule_sim.r_exec_counts

(* exec counts follow the run: every pre-region op once, every region
   member once per committed iteration (an op in both gets the sum), and
   an op that never ran is absent *)
let test_exec_count_contract () =
  List.iter
    (fun (name, d, ii, seed, n_iters, exits_early) ->
      let e = Elaborate.design d in
      let region = Elaborate.main_region ?ii e in
      match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
      | Error err -> Alcotest.failf "schedule failed: %s" err.Scheduler.e_message
      | Ok s ->
          let stim = Hls_sim.Stimulus.small_random ~seed ~n_iters ~ports:d.Ast.d_ins in
          let sim = Hls_sim.Schedule_sim.run e s stim in
          let iters = sim.Hls_sim.Schedule_sim.r_iters in
          Alcotest.(check bool) (name ^ ": exits before the stimulus ends") exits_early
            (iters < n_iters);
          let pre = e.Elaborate.pre_members in
          let members = List.map (fun o -> o.Hls_ir.Dfg.id) (Hls_ir.Region.member_ops region) in
          let expected id =
            (if List.mem id pre then 1 else 0) + if List.mem id members then iters else 0
          in
          let ids = List.sort_uniq compare (pre @ members) in
          List.iter
            (fun id ->
              Alcotest.(check int)
                (Printf.sprintf "%s op %d" name id)
                (expected id)
                (Option.value (Hashtbl.find_opt sim.Hls_sim.Schedule_sim.r_exec_counts id) ~default:0))
            ids;
          Alcotest.(check int) (name ^ ": no other op counted")
            (List.length (List.filter (fun id -> expected id > 0) ids))
            (Hashtbl.length sim.Hls_sim.Schedule_sim.r_exec_counts))
    [
      ("example1 seq", Hls_designs.Example1.design (), None, 2, 100, true);
      ("example1 II=1", Hls_designs.Example1.design (), Some 1, 2, 100, true);
      ("fir8 II=1", Hls_designs.Fir.design (), Some 1, 5, 20, false);
      ("fir8 II=2, empty stimulus", Hls_designs.Fir.design (), Some 2, 1, 0, false);
    ]

(* the compiled main loop and the tree-walker it falls back to call an
   impure [funcs] in one order: operands left to right *)
let test_behav_call_order () =
  let open Dsl in
  let d extra =
    design "calls" ~ins:[ in_port "a" 8 ] ~outs:[ out_port "y" 16 ] ~vars:[ var "s" 16 ]
      [
        "s" := int 0;
        wait;
        do_while
          (extra
          @ [
              "s" := v "s" +: (call "f" [ port "a" ] ~width:8 -: call "g" [ port "a" ] ~width:8);
              wait;
              write "y" (call "h" [ v "s" ] ~width:8 *: neg (call "k" [ v "s" ] ~width:8));
            ])
          (int 1);
      ]
  in
  let stim = Hls_sim.Stimulus.create ~n_iters:3 [ ("a", [| 1; 2; 3 |]) ] in
  let run d =
    let calls = ref [] in
    let funcs name args =
      calls.contents <- name :: calls.contents;
      Hls_sim.Behav.default_fun name args
    in
    let r = Hls_sim.Behav.run ~funcs d stim in
    (List.rev !calls, Hls_sim.Behav.port_values r "y")
  in
  let compiled_calls, compiled_ys = run (d []) in
  (* a first assignment inside a branch defeats static widths: the whole
     loop runs on the tree-walker *)
  let fallback_calls, fallback_ys = run (d [ if_ (port "a" >: int 9) [ "t" := int 1 ] [] ]) in
  Alcotest.(check (list string)) "compiled: left operand first"
    [ "f"; "g"; "h"; "k"; "f"; "g"; "h"; "k"; "f"; "g"; "h"; "k" ]
    compiled_calls;
  Alcotest.(check (list string)) "same call sequence" compiled_calls fallback_calls;
  Alcotest.(check (list int)) "same outputs" compiled_ys fallback_ys

(* ------------------------------------------------------------------ *)
(* The equivalence checks before they grouped each result by port in one
   pass (a filter per port, a polymorphic sort of the kernel's commits),
   kept verbatim as the reference the verdicts must match. *)
module Reference = struct
  open Hls_sim.Equiv

  let compare_port ~port expected actual =
    let rec go i es actuals acc =
      match (es, actuals) with
      | [], [] -> acc
      | e :: es', a :: as' ->
          let acc =
            if e = a then acc
            else { m_port = port; m_index = i; m_expected = Some e; m_actual = Some a } :: acc
          in
          go (i + 1) es' as' acc
      | e :: es', [] ->
          go (i + 1) es' [] ({ m_port = port; m_index = i; m_expected = Some e; m_actual = None } :: acc)
      | [], a :: as' ->
          go (i + 1) [] as' ({ m_port = port; m_index = i; m_expected = None; m_actual = Some a } :: acc)
    in
    go 0 expected actual []

  let behav_values (r : Hls_sim.Behav.result) port =
    List.filter_map
      (fun o -> if o.Hls_sim.Behav.o_port = port then Some o.Hls_sim.Behav.o_value else None)
      r.Hls_sim.Behav.r_outputs

  let sched_values (r : Hls_sim.Schedule_sim.result) port =
    List.filter_map
      (fun o ->
        if o.Hls_sim.Schedule_sim.o_port = port then Some o.Hls_sim.Schedule_sim.o_value else None)
      r.Hls_sim.Schedule_sim.r_outputs

  let kernel_values (r : Hls_sim.Kernel_sim.result) port =
    r.Hls_sim.Kernel_sim.k_outputs
    |> List.filter (fun o -> o.Hls_sim.Kernel_sim.k_port = port)
    |> List.sort (fun a b ->
           compare
             (a.Hls_sim.Kernel_sim.k_iter, a.Hls_sim.Kernel_sim.k_cycle)
             (b.Hls_sim.Kernel_sim.k_iter, b.Hls_sim.Kernel_sim.k_cycle))
    |> List.map (fun o -> o.Hls_sim.Kernel_sim.k_value)

  let check_with actual_values ~out_ports golden actual =
    let mismatches = ref [] in
    let checked = ref 0 in
    List.iter
      (fun (p, _) ->
        let e = behav_values golden p and a = actual_values actual p in
        checked := !checked + List.length e;
        mismatches := compare_port ~port:p e a @ !mismatches)
      out_ports;
    { equivalent = !mismatches = []; mismatches = List.rev !mismatches; checked_values = !checked }

  let check = check_with sched_values
  let check_kernel = check_with kernel_values
end

(* Hand-built results over ports p, q, r and an unchecked z: values drawn
   from 0..2 so that ports match, mismatch, run short and run long; each
   port string is either the shared literal or a fresh copy; the kernel's
   (iter, cycle) keys are drawn small, so commits come out of order and
   tie; [out_ports] may repeat a port or leave one out. *)
let prop_equiv_matches_reference =
  QCheck.Test.make ~name:"equivalence verdicts = the reference checks" ~count:500
    QCheck.(int_range 0 0x3FFFFFFF)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let int n = Random.State.int rs n in
      let literals = [| "p"; "q"; "r"; "z" |] in
      let port () =
        let p = literals.(int 4) in
        if int 2 = 0 then p else String.init (String.length p) (String.get p)
      in
      let events n f = List.init (int n) (fun _ -> f (port ())) in
      let out_ports = List.init (int 4) (fun _ -> (literals.(int 3), 8)) in
      let golden =
        {
          Hls_sim.Behav.r_outputs =
            events 12 (fun p -> { Hls_sim.Behav.o_port = p; o_iter = int 5; o_value = int 3 });
          r_iters = 0;
          r_env = [];
        }
      in
      let sched =
        {
          Hls_sim.Schedule_sim.r_outputs =
            events 12 (fun p ->
                { Hls_sim.Schedule_sim.o_port = p; o_iter = int 5; o_cycle = int 9; o_value = int 3 });
          r_iters = 0;
          r_cycles = 0;
          r_issued = 0;
          r_exec_counts = Hashtbl.create 1;
        }
      in
      let kernel =
        {
          Hls_sim.Kernel_sim.k_outputs =
            events 12 (fun p ->
                { Hls_sim.Kernel_sim.k_port = p; k_iter = int 4; k_cycle = int 4; k_value = int 3 });
          k_iters = 0;
          k_cycles = 0;
          k_stall_cycles = 0;
          k_squashed = 0;
        }
      in
      let same a b =
        a = b
        && String.equal (Hls_sim.Equiv.verdict_to_string a) (Hls_sim.Equiv.verdict_to_string b)
      in
      same (Reference.check ~out_ports golden sched) (Hls_sim.Equiv.check ~out_ports golden sched)
      && same
           (Reference.check_kernel ~out_ports golden kernel)
           (Hls_sim.Equiv.check_kernel ~out_ports golden kernel))

(* the cases the property draws, pinned: a mismatch on two ports, a
   missing and an extra value, kernel commits out of order, an equal but
   distinct port string, and events on an unchecked port *)
let test_equiv_verdict_cases () =
  let copy s = String.init (String.length s) (String.get s) in
  let golden =
    {
      Hls_sim.Behav.r_outputs =
        List.map
          (fun (p, v) -> { Hls_sim.Behav.o_port = p; o_iter = 0; o_value = v })
          [ ("p", 1); ("q", 2); (copy "p", 3); ("z", 9); ("q", 4); ("p", 5) ];
      r_iters = 0;
      r_env = [];
    }
  in
  let kernel =
    {
      Hls_sim.Kernel_sim.k_outputs =
        List.map
          (fun (p, i, c, v) ->
            { Hls_sim.Kernel_sim.k_port = p; k_iter = i; k_cycle = c; k_value = v })
          [
            ("q", 1, 5, 7); ("p", 2, 3, 3); (copy "p", 0, 4, 1); ("z", 0, 0, 0); ("q", 0, 2, 2);
            ("p", 1, 1, 0); ("q", 2, 6, 8);
          ];
      k_iters = 0;
      k_cycles = 0;
      k_stall_cycles = 0;
      k_squashed = 0;
    }
  in
  let out_ports = [ ("p", 8); ("q", 8) ] in
  let v = Hls_sim.Equiv.check_kernel ~out_ports golden kernel in
  Alcotest.(check bool) "same as the reference" true
    (v = Reference.check_kernel ~out_ports golden kernel);
  Alcotest.(check string) "verdict"
    "MISMATCH (5 values, 4 differences): port p[1]: expected 3, got 0; port p[2]: expected 5, got \
     3; port q[1]: expected 4, got 7; port q[2]: expected <none>, got 8"
    (Hls_sim.Equiv.verdict_to_string v)

let suite =
  [
    Alcotest.test_case "behav: accumulator" `Quick test_behav_basics;
    Alcotest.test_case "behav: conditionals" `Quick test_behav_if_semantics;
    Alcotest.test_case "behav: width wraparound" `Quick test_behav_width_wrap;
    Alcotest.test_case "behav: data-dependent exit" `Quick test_behav_exit_condition;
    Alcotest.test_case "behav: compiled and fallback call funcs in one order" `Quick
      test_behav_call_order;
    QCheck_alcotest.to_alcotest prop_equiv_matches_reference;
    Alcotest.test_case "equiv: verdict on mismatching, short, long and unordered ports" `Quick
      test_equiv_verdict_cases;
    equiv_case "example1" (Hls_designs.Example1.design ()) None 60 1;
    equiv_case "example1" (Hls_designs.Example1.design ()) (Some 2) 60 2;
    equiv_case "example1" (Hls_designs.Example1.design ()) (Some 1) 60 3;
    equiv_case "fir8" (Hls_designs.Fir.design ()) None 40 4;
    equiv_case "fir8" (Hls_designs.Fir.design ()) (Some 1) 40 5;
    equiv_case "fir4" (Hls_designs.Fir.design ~taps:4 ()) (Some 2) 40 6;
    equiv_case "fft" (Hls_designs.Fft.design ()) None 30 7;
    equiv_case "fft" (Hls_designs.Fft.design ()) (Some 1) 30 8;
    equiv_case "sobel" (Hls_designs.Conv.design ()) None 30 9;
    equiv_case "sobel" (Hls_designs.Conv.design ()) (Some 1) 30 10;
    equiv_case "dotprod" (Hls_designs.Dotprod.design ()) None 30 11;
    equiv_case "dotprod" (Hls_designs.Dotprod.design ()) (Some 1) 30 12;
    equiv_case "idct" (Hls_designs.Idct.design ()) None 10 13;
    equiv_case "idct" (Hls_designs.Idct.design ()) (Some 4) 10 14;
    equiv_case "synthetic" (Hls_designs.Synthetic.design ()) None 20 15;
    equiv_case "matvec4" (Hls_designs.Matmul.design ()) None 25 16;
    equiv_case "matvec4" (Hls_designs.Matmul.design ()) (Some 2) 25 17;
    equiv_case "matvec8" (Hls_designs.Matmul.design ~n:8 ()) (Some 1) 20 18;
    equiv_case "idct8x8" (Hls_designs.Idct2d.design ()) None 32 19;
    Alcotest.test_case "throughput matches II" `Quick test_throughput_matches_ii;
    Alcotest.test_case "exec counts bounded" `Quick test_exec_counts_reflect_guards;
    Alcotest.test_case "exec counts: pre once, members per iteration" `Quick
      test_exec_count_contract;
  ]
