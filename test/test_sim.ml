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

let suite =
  [
    Alcotest.test_case "behav: accumulator" `Quick test_behav_basics;
    Alcotest.test_case "behav: conditionals" `Quick test_behav_if_semantics;
    Alcotest.test_case "behav: width wraparound" `Quick test_behav_width_wrap;
    Alcotest.test_case "behav: data-dependent exit" `Quick test_behav_exit_condition;
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
