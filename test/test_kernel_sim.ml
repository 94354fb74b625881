(** Cycle-stepped folded-pipeline simulator: three-way equivalence with
    the behavioural golden model and the analytic simulator, prologue
    timing, stalling and exit squash. *)

open Hls_core
open Hls_frontend

let lib = Hls_techlib.Library.artisan90

let schedule ?ii design =
  let e = Elaborate.design design in
  let region = Elaborate.main_region ?ii e in
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Ok s -> (e, s)
  | Error err -> Alcotest.failf "schedule failed: %s" err.Scheduler.e_message

let three_way name design ii n_iters seed =
  Alcotest.test_case
    (Printf.sprintf "%s%s three-way" name
       (match ii with Some i -> Printf.sprintf " II=%d" i | None -> ""))
    `Quick
    (fun () ->
      let e, s = schedule ?ii design in
      let stim = Hls_sim.Stimulus.small_random ~seed ~n_iters ~ports:design.Ast.d_ins in
      let golden = Hls_sim.Behav.run design stim in
      let analytic = Hls_sim.Schedule_sim.run e s stim in
      let stepped = Hls_sim.Kernel_sim.run e s stim in
      List.iter
        (fun (p, _) ->
          let g = Hls_sim.Behav.port_values golden p in
          Alcotest.(check (list int)) (p ^ " analytic") g (Hls_sim.Schedule_sim.port_values analytic p);
          Alcotest.(check (list int)) (p ^ " stepped") g (Hls_sim.Kernel_sim.port_values stepped p))
        design.Ast.d_outs;
      Alcotest.(check int) "same commit count" analytic.Hls_sim.Schedule_sim.r_iters
        stepped.Hls_sim.Kernel_sim.k_iters)

let test_prologue_cycles () =
  (* an II=2, 2-stage pipeline over N iterations takes about N*II + LI
     cycles including the drain *)
  let d = Hls_designs.Example1.design () in
  let e, s = schedule ~ii:2 d in
  let n = 20 in
  let stim = Hls_sim.Stimulus.small_random ~seed:3 ~n_iters:n ~ports:d.Ast.d_ins in
  let r = Hls_sim.Kernel_sim.run e s stim in
  Alcotest.(check bool) "cycle count within pipeline bounds" true
    (r.Hls_sim.Kernel_sim.k_cycles >= n * 2 && r.Hls_sim.Kernel_sim.k_cycles <= (n * 2) + (2 * s.Scheduler.s_li));
  Alcotest.(check int) "no stalls" 0 r.Hls_sim.Kernel_sim.k_stall_cycles

let test_external_stall_freezes () =
  let d = Hls_designs.Example1.design () in
  let e, s = schedule ~ii:1 d in
  let n = 10 in
  let stim = Hls_sim.Stimulus.small_random ~seed:4 ~n_iters:n ~ports:d.Ast.d_ins in
  let free = Hls_sim.Kernel_sim.run e s stim in
  (* stall every other cycle: same outputs, about twice the cycles *)
  let stalled = Hls_sim.Kernel_sim.run ~stall_pattern:(fun c -> c mod 2 = 0) e s stim in
  Alcotest.(check (list int)) "outputs unchanged"
    (Hls_sim.Kernel_sim.port_values free "pixel")
    (Hls_sim.Kernel_sim.port_values stalled "pixel");
  Alcotest.(check bool) "stall cycles counted" true
    (stalled.Hls_sim.Kernel_sim.k_stall_cycles >= free.Hls_sim.Kernel_sim.k_cycles - 2);
  Alcotest.(check bool) "total cycles grew" true
    (stalled.Hls_sim.Kernel_sim.k_cycles > free.Hls_sim.Kernel_sim.k_cycles)

let test_exit_squash () =
  (* dotprod exits when a == 0: pipelined iterations issued past the exit
     must be squashed and produce no outputs *)
  let d = Hls_designs.Dotprod.design () in
  let e, s = schedule ~ii:1 d in
  let stim =
    Hls_sim.Stimulus.create ~n_iters:8
      [ ("a_in", [| 3; 2; 0; 9; 9; 9; 9; 9 |]); ("b_in", [| 1; 1; 1; 1; 1; 1; 1; 1 |]) ]
  in
  let golden = Hls_sim.Behav.run d stim in
  let r = Hls_sim.Kernel_sim.run e s stim in
  Alcotest.(check (list int)) "outputs stop at the exit"
    (Hls_sim.Behav.port_values golden "dot")
    (Hls_sim.Kernel_sim.port_values r "dot");
  Alcotest.(check int) "three committed iterations" 3 r.Hls_sim.Kernel_sim.k_iters

let test_watchdog_raises () =
  (* a permanently stalled pipeline must raise a typed diagnostic, not
     silently return a truncated result (the old behaviour) *)
  let d = Hls_designs.Example1.design () in
  let e, s = schedule ~ii:1 d in
  let stim = Hls_sim.Stimulus.small_random ~seed:5 ~n_iters:10 ~ports:d.Ast.d_ins in
  let check_engine engine name =
    match
      Hls_sim.Kernel_sim.run ~engine ~max_cycles:50 ~stall_pattern:(fun _ -> false) e s stim
    with
    | _ -> Alcotest.failf "%s engine: watchdog did not fire" name
    | exception Hls_sim.Kernel_sim.Watchdog diag ->
        Alcotest.(check string) (name ^ " diag code") "watchdog_exceeded" diag.Hls_diag.Diag.d_code
  in
  check_engine `Interp "interpreted";
  check_engine `Compiled "compiled";
  (* a generous default cap must not fire on a normal run *)
  let r = Hls_sim.Kernel_sim.run e s stim in
  Alcotest.(check bool) "normal run completes" true (r.Hls_sim.Kernel_sim.k_iters > 0)

(* QCheck: the compiled engine is bit-identical to the interpreter on
   random designs — outputs and all four counters — including under
   external stall patterns interacting with data-dependent exits. *)
let prop_interp_eq_compiled =
  QCheck.Test.make ~name:"interpreted == compiled on random designs" ~count:60
    QCheck.(pair small_nat (int_range 0 3))
    (fun (seed, duty) ->
      let cseed = (seed * 7919) + 13 in
      let d = Hls_sim.Equiv.gen_design ~seed:cseed in
      let e = Elaborate.design d in
      let ii = match cseed mod 4 with 0 -> None | n -> Some n in
      let region = Elaborate.main_region ?ii e in
      match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
      | Error _ -> QCheck.assume_fail () (* infeasible micro-architecture *)
      | Ok s -> (
          let stim =
            Hls_sim.Stimulus.small_random ~seed:cseed ~n_iters:((cseed mod 30) + 5)
              ~ports:d.Ast.d_ins
          in
          let stall_pattern c =
            match duty with
            | 0 -> true
            | 1 -> c mod 2 = 0
            | 2 -> c mod 3 <> 0
            | _ -> (c * 2654435761) land 7 <> 0
          in
          match
            ( Hls_sim.Kernel_sim.run ~engine:`Interp ~stall_pattern e s stim,
              Hls_sim.Kernel_sim.run ~engine:`Compiled ~stall_pattern e s stim )
          with
          | exception exn ->
              QCheck.Test.fail_reportf "seed %d duty %d: raised %s" cseed duty
                (Printexc.to_string exn)
          | i, c ->
              if i <> c then
                QCheck.Test.fail_reportf
                  "seed %d duty %d: interp {iters=%d;cycles=%d;stalls=%d;squashed=%d} vs compiled \
                   {iters=%d;cycles=%d;stalls=%d;squashed=%d}"
                  cseed duty i.Hls_sim.Kernel_sim.k_iters i.Hls_sim.Kernel_sim.k_cycles
                  i.Hls_sim.Kernel_sim.k_stall_cycles i.Hls_sim.Kernel_sim.k_squashed
                  c.Hls_sim.Kernel_sim.k_iters c.Hls_sim.Kernel_sim.k_cycles
                  c.Hls_sim.Kernel_sim.k_stall_cycles c.Hls_sim.Kernel_sim.k_squashed
              else true))

let test_fuzz_gate () =
  let report = Hls_sim.Equiv.fuzz ~cases:200 ~seed:2026 () in
  Alcotest.(check bool)
    (Hls_sim.Equiv.fuzz_to_string report)
    true
    (Hls_sim.Equiv.fuzz_ok report)

(* an empty stimulus issues no iteration: no output, no cycle, in both
   kernel engines and in the schedule simulator *)
let test_empty_stimulus () =
  List.iter
    (fun (name, d, ii) ->
      let e, s = schedule ~ii d in
      let stim = Hls_sim.Stimulus.small_random ~seed:1 ~n_iters:0 ~ports:d.Ast.d_ins in
      List.iter
        (fun (engine, ename) ->
          let r = Hls_sim.Kernel_sim.run ~engine e s stim in
          let what f = Printf.sprintf "%s II=%d %s: %s" name ii ename f in
          Alcotest.(check int) (what "outputs") 0 (List.length r.Hls_sim.Kernel_sim.k_outputs);
          Alcotest.(check int) (what "iterations") 0 r.Hls_sim.Kernel_sim.k_iters;
          Alcotest.(check int) (what "cycles") 0 r.Hls_sim.Kernel_sim.k_cycles;
          Alcotest.(check int) (what "squashed") 0 r.Hls_sim.Kernel_sim.k_squashed)
        [ (`Interp, "interpreted"); (`Compiled, "compiled") ];
      let a = Hls_sim.Schedule_sim.run e s stim in
      Alcotest.(check (list int)) (name ^ " schedule-sim counters") [ 0; 0; 0; 0 ]
        [
          List.length a.Hls_sim.Schedule_sim.r_outputs;
          a.Hls_sim.Schedule_sim.r_iters;
          a.Hls_sim.Schedule_sim.r_cycles;
          a.Hls_sim.Schedule_sim.r_issued;
        ])
    [ ("example1", Hls_designs.Example1.design (), 1); ("fir8", Hls_designs.Fir.design (), 2) ]

let suite =
  [
    three_way "example1" (Hls_designs.Example1.design ()) None 40 31;
    three_way "example1" (Hls_designs.Example1.design ()) (Some 2) 40 32;
    three_way "example1" (Hls_designs.Example1.design ()) (Some 1) 40 33;
    three_way "fir8" (Hls_designs.Fir.design ()) (Some 1) 30 34;
    three_way "fft" (Hls_designs.Fft.design ()) (Some 2) 30 35;
    three_way "agc" (Hls_designs.Agc.design ()) (Some 2) 30 36;
    three_way "sobel" (Hls_designs.Conv.design ()) None 25 37;
    Alcotest.test_case "prologue/drain cycles" `Quick test_prologue_cycles;
    Alcotest.test_case "external stall freezes" `Quick test_external_stall_freezes;
    Alcotest.test_case "exit squash" `Quick test_exit_squash;
    Alcotest.test_case "watchdog raises typed diag" `Quick test_watchdog_raises;
    Alcotest.test_case "empty stimulus: no iteration" `Quick test_empty_stimulus;
    QCheck_alcotest.to_alcotest prop_interp_eq_compiled;
    Alcotest.test_case "randomized three-way fuzz gate" `Slow test_fuzz_gate;
  ]
