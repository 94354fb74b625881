(** Experiment harness: regenerates every table and figure of the paper's
    evaluation, plus the scale, nest, kernel and feedback experiments whose
    JSON the CI smoke gates read.  Speed claims are measured by the
    end-to-end benchmark in [bench/e2e], not here.

    {v
      dune exec bench/main.exe            # everything
      dune exec bench/main.exe table3     # one experiment
      dune exec bench/main.exe -- --list  # available experiments
      dune exec bench/main.exe -- scale --smoke
    v}

    [--smoke] shrinks the sweeps to a fast correctness check; its JSON goes
    to [_build/bench-smoke/], so the checked-in baselines stay as they are.

    An unknown experiment name exits 2 before anything runs.

    Paper-vs-measured records for each experiment are written to
    EXPERIMENTS.md by hand from this output (the shapes are deterministic;
    wall-clock figures vary with the host). *)

open Hls_ir
open Hls_core
open Hls_frontend

let lib = Hls_techlib.Library.artisan90
let clock = 1600.0

(* --smoke: shrink iteration counts so CI can run the benches as a fast
   correctness check (the numbers are then meaningless as measurements) *)
let smoke = ref false

(* open the BENCH_*.json file [name] for writing: a full run writes the
   checked-in baselines at the repository root, a --smoke run writes under
   _build/bench-smoke/ (created first) and never overwrites them *)
let open_bench_json name =
  let dir = if !smoke then "_build/bench-smoke" else "." in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p dir;
  let path = Filename.concat dir name in
  (open_out path, path)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let narrative_opts = { Scheduler.default_options with seed_latency_floor = false }

let flow_opts ?ii ?min_latency ?max_latency ?(clock_ps = clock) ?(sched = Scheduler.default_options)
    () =
  { Hls_flow.Flow.default_options with ii; min_latency; max_latency; clock_ps; sched; sim_iters = 60 }

(* ------------------------------------------------------------------ *)
(* Table 1: initial set of resources with delays                       *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "TABLE 1 — initial set of resources with delays (artisan 90nm, ps)";
  let rows = Hls_techlib.Library.table1_rows lib in
  let paper = [ ("mul", 930.); ("add", 350.); ("gt", 220.); ("neq", 60.); ("ff", 40.); ("ff_en", 70.); ("mux2", 110.); ("mux3", 115.) ] in
  Hls_report.Table.print
    ([ "resource"; "delay (ours)"; "delay (paper)" ]
    :: List.map
         (fun (name, d) ->
           [ name; Printf.sprintf "%.0f" d;
             (match List.assoc_opt name paper with Some p -> Printf.sprintf "%.0f" p | None -> "-") ])
         rows);
  print_endline "Fig. 8 worked arithmetic: ff + mux2 + mul + mux2 + ff_setup =";
  Printf.printf "  40 + 110 + 930 + 110 + 40 = %.0f ps (paper: 1230)\n"
    (lib.Hls_techlib.Library.ff_clk_q +. 110. +. 930. +. 110. +. lib.Hls_techlib.Library.ff_setup)

(* ------------------------------------------------------------------ *)
(* Table 2: schedule for Example 1                                      *)
(* ------------------------------------------------------------------ *)

let schedule_example1 ?ii ?(max_latency = 3) ?(opts = narrative_opts) () =
  let e = Hls_designs.Example1.elaborated ~max_latency ?ii () in
  let region = Elaborate.main_region e in
  match Scheduler.schedule ~opts ~lib ~clock_ps:clock region with
  | Ok s -> (e, s)
  | Error err -> failwith ("example1 schedule failed: " ^ err.Scheduler.e_message)

let table2 () =
  section "TABLE 2 — schedule for Example 1 (sequential, Tclk = 1600 ps)";
  let _, s = schedule_example1 () in
  Hls_report.Table.print (Scheduler.to_table s);
  Printf.printf "LI = %d states, %d passes, relaxations: %s\n" s.Scheduler.s_li s.Scheduler.s_passes
    (String.concat " | " s.Scheduler.s_actions);
  print_endline "paper: s1 = {mul1, add, neq}, s2 = {mul2, gt, mux}, s3 = {mul3}; single multiplier"

(* ------------------------------------------------------------------ *)
(* Table 3: micro-architecture comparison                               *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "TABLE 3 — comparing micro-architectures for Example 1";
  let run name ii =
    let options = flow_opts ?ii ~max_latency:4 () in
    match Hls_flow.Flow.run ~options (Hls_designs.Example1.design ()) with
    | Ok r -> (name, r.Hls_flow.Flow.f_cycles_per_iter, r.Hls_flow.Flow.f_area.Hls_rtl.Stats.a_total,
               (match r.Hls_flow.Flow.f_equiv with Some v -> v.Hls_sim.Equiv.equivalent | None -> false))
    | Error e -> failwith (name ^ ": " ^ Hls_diag.Diag.to_string e)
  in
  let rows =
    [ run "Sequential (S)" None; run "Pipe II=2 (P2)" (Some 2); run "Pipe II=1 (P1)" (Some 1) ]
  in
  let paper = [ (3, 16094); (2, 24010); (1, 30491) ] in
  Hls_report.Table.print
    ([ "arch"; "cycles/iter"; "area (ours)"; "area (paper)"; "verified" ]
    :: List.map2
         (fun (n, c, a, ok) (pc, pa) ->
           [ n; string_of_int c; Printf.sprintf "%.0f" a;
             Printf.sprintf "%d (cycles %d)" pa pc; (if ok then "yes" else "NO") ])
         rows paper);
  let areas = List.map (fun (_, _, a, _) -> a) rows in
  (match areas with
  | [ s; p2; p1 ] ->
      Printf.printf "ordering S < P2 < P1: %b (paper: true)\n" (s < p2 && p2 < p1);
      Printf.printf "deltas: P2-S = %.0f (paper 7916), P1-P2 = %.0f (paper 6481)\n" (p2 -. s) (p1 -. p2)
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* Table 4: impact of the time-driven SCC-move heuristic                *)
(* ------------------------------------------------------------------ *)

let table4_designs () =
  (* seven timing-critical pipelined designs (the paper's D1..D7 are
     proprietary; these are tight-clock pipelined kernels whose
     accumulator SCCs contain real multiplications, the shape the SCC-move
     heuristic exists for) *)
  [
    ("D1 example1 II=1", Hls_designs.Example1.design (), 1, clock);
    ("D2 example1 II=2", Hls_designs.Example1.design (), 2, 1500.0);
    ("D3 agc d1 II=1", Hls_designs.Agc.design ~name:"agc_d1" ~depth:1 ~width:20 (), 1, clock);
    ("D4 agc w10 II=1", Hls_designs.Agc.design ~name:"agc_w10" ~depth:1 ~width:10 (), 1, clock);
    ("D5 agc d1 II=2", Hls_designs.Agc.design ~name:"agc_w" ~depth:1 ~width:28 (), 2, 1400.0);
    ("D6 agc w12 II=2", Hls_designs.Agc.design ~name:"agc_w12" ~depth:1 ~width:12 (), 2, 1500.0);
    ("D7 agc d2 II=3", Hls_designs.Agc.design ~name:"agc_ii3" ~depth:2 ~width:24 (), 3, 1200.0);
  ]

let table4 () =
  section "TABLE 4 — % area penalty with the SCC-move action disabled";
  let penalty (name, d, ii, clk) =
    let normal = flow_opts ~ii ~clock_ps:clk () in
    let ablated =
      {
        normal with
        Hls_flow.Flow.sched = { Scheduler.default_options with scc_move = false };
        verify = false;
      }
    in
    match (Hls_flow.Flow.run ~options:normal d, Hls_flow.Flow.run ~options:ablated d) with
    | Ok a, Ok b ->
        let pa = a.Hls_flow.Flow.f_area.Hls_rtl.Stats.a_total in
        let pb = b.Hls_flow.Flow.f_area.Hls_rtl.Stats.a_total in
        Some (name, pa, pb, (pb -. pa) /. pa *. 100.0, b.Hls_flow.Flow.f_area.Hls_rtl.Stats.wns)
    | Error e, _ | _, Error e ->
        Printf.printf "  (%s skipped: %s)\n" name (Hls_diag.Diag.to_string e);
        None
  in
  let rows = List.filter_map penalty (table4_designs ()) in
  Hls_report.Table.print
    ([ "design"; "area (moves on)"; "area (moves off)"; "% penalty"; "wns off (ps)" ]
    :: List.map
         (fun (n, a, b, p, w) ->
           [ n; Printf.sprintf "%.0f" a; Printf.sprintf "%.0f" b; Printf.sprintf "%.1f" p;
             Printf.sprintf "%.0f" w ])
         rows);
  let avg = List.fold_left (fun acc (_, _, _, p, _) -> acc +. p) 0.0 rows /. float_of_int (max 1 (List.length rows)) in
  Printf.printf "average penalty: %.1f %% (paper: 13.5 %%, designs D1..D7: 14.7/2.7/33.0/21.5/3.7/6.4/12.9)\n" avg

(* ------------------------------------------------------------------ *)
(* Fig. 5: pipelining Example 1 with LI=3 and II=2                      *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "FIG 5 — pipeline kernel for Example 1 (LI=3, II=2)";
  let _, s = schedule_example1 ~ii:2 ~max_latency:4 () in
  let f = Pipeline.fold s in
  Hls_report.Table.print (Pipeline.to_table s f);
  Printf.printf "stages = %d, kernel states = %d (paper: 2 stages, II=2)\n" f.Pipeline.f_stages
    f.Pipeline.f_ii

(* ------------------------------------------------------------------ *)
(* Fig. 8: datapath modelling during scheduling                          *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  section "FIG 8 — datapath delay queries during binding (Example 1, pass 1)";
  let e = Hls_designs.Example1.elaborated ~max_latency:1 ~min_latency:1 () in
  let region = Elaborate.main_region e in
  let trace = Trace.create () in
  (match Scheduler.schedule ~opts:narrative_opts ~trace ~lib ~clock_ps:clock region with
  | Ok _ -> ()
  | Error _ -> ());
  (* the narrative of interest is in the first pass events *)
  List.iter print_endline
    (List.filteri (fun i _ -> i < 14) (Trace.events trace));
  print_endline "paper: mul binds at 1230 ps, add chains to 1580 ps, gt fails at 1800 ps (slack -200)"

(* ------------------------------------------------------------------ *)
(* Fig. 9: scheduling time vs number of operations                      *)
(* ------------------------------------------------------------------ *)

(* the population is capped at ~1000 ops so the whole sweep runs in
   minutes; the paper's own scheduler averaged 7 minutes per design, and
   the observation under test — runtime does not correlate with size —
   shows at this scale too *)
let fig9 ?(n = 40) ?(hi = 1000) () =
  section (Printf.sprintf "FIG 9 — scheduling time vs design size (%d synthetic designs)" n);
  let designs = Hls_designs.Synthetic.population ~n ~lo:100 ~hi ~seed:17 () in
  (* constraint tightness — the paper's actual runtime driver — varies via
     the clock: tight small designs burn passes, relaxed large ones don't *)
  let clocks = [| 1150.0; 2400.0; 1300.0; 1800.0; 1600.0 |] in
  let points =
    List.filter_map
      (fun (idx, d) ->
        let e = Elaborate.design d in
        let region = Elaborate.main_region e in
        let ops = Region.n_members region in
        (* wide-operand giants are not schedulable at the tightest clocks;
           assign those a relaxed period (the paper's large customer
           designs were likewise not its most constrained ones) *)
        let clock =
          let c = clocks.(idx mod Array.length clocks) in
          if ops > 1400 then max c 1600.0 else c
        in
        match Scheduler.schedule ~lib ~clock_ps:clock region with
        | Ok s ->
            Printf.printf "  %-22s %5d ops  clk %4.0f  %7.2f s  (%d passes, %d insts)\n%!"
              d.Ast.d_name ops clock s.Scheduler.s_sched_time_s s.Scheduler.s_passes
              (Hls_netlist.Netlist.n_insts s.Scheduler.s_binding.Binding.net);
            Some ((float_of_int ops, float_of_int s.Scheduler.s_passes), s.Scheduler.s_sched_time_s)
        | Error err ->
            Printf.printf "  %-22s %5d ops  clk %4.0f  FAILED (%s)\n%!" d.Ast.d_name ops clock
              err.Scheduler.e_message;
            None)
      (List.mapi (fun i d -> (i, d)) designs)
  in
  let points_passes = List.map (fun ((_, p), t) -> (p, t)) points in
  let points = List.map (fun ((o, _), t) -> (o, t)) points in
  Hls_report.Plot.print ~x_scale:Hls_report.Plot.Log10 ~title:"scheduling time vs #ops"
    ~x_label:"#ops" ~y_label:"time (s)"
    [ Hls_report.Plot.series "designs" points ];
  (* the paper's observation: runtime does not correlate with size *)
  let xs = List.map fst points and ys = List.map snd points in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let mx = mean xs and my = mean ys in
  let cov = mean (List.map2 (fun x y -> (x -. mx) *. (y -. my)) xs ys) in
  let sx = sqrt (mean (List.map (fun x -> (x -. mx) ** 2.0) xs)) in
  let sy = sqrt (mean (List.map (fun y -> (y -. my) ** 2.0) ys)) in
  let r_size = if sx *. sy = 0.0 then 0.0 else cov /. (sx *. sy) in
  let xs2 = List.map fst points_passes and ys2 = List.map snd points_passes in
  let mx2 = mean xs2 and my2 = mean ys2 in
  let cov2 = mean (List.map2 (fun x y -> (x -. mx2) *. (y -. my2)) xs2 ys2) in
  let sx2 = sqrt (mean (List.map (fun x -> (x -. mx2) ** 2.0) xs2)) in
  let sy2 = sqrt (mean (List.map (fun y -> (y -. my2) ** 2.0) ys2)) in
  let r_passes = if sx2 *. sy2 = 0.0 then 0.0 else cov2 /. (sx2 *. sy2) in
  (* tightness spread at similar size: the ratio of slowest to fastest
     runtime among mid-population designs *)
  let mid = List.filter (fun (o, _) -> o >= 300.0 && o <= 900.0) points in
  let spread =
    match mid with
    | [] -> 1.0
    | (_, t) :: _ ->
        let mx = List.fold_left (fun a (_, t) -> max a t) t mid in
        let mn = List.fold_left (fun a (_, t) -> min a t) t mid in
        if mn > 0.0 then mx /. mn else 1.0
  in
  Printf.printf
    "Pearson r(#ops, time) = %.2f, r(#passes, time) = %.2f; %.0fx runtime spread among\n\
     similar-size designs (paper: \"execution time does not correlate with input CDFG size\",\n\
     \"depends on the number of pass scheduler calls\" — our per-pass cost does grow with\n\
     op count, so a moderate size correlation remains; the tightness-driven spread at\n\
     fixed size is the paper's observable)\n"
    r_size r_passes spread

(* ------------------------------------------------------------------ *)
(* Figs. 10 and 11: area/delay and power/delay for the IDCT              *)
(* ------------------------------------------------------------------ *)

(* the Fig. 10/11 sweep as a DSE point list: each curve = a
   micro-architecture (loop latency, pipelined or not); points along a
   curve = different clock periods at that latency *)
let idct_points () =
  let latencies = [ 8; 16; 24; 32 ] in
  let clocks = [ 1200.0; 1600.0; 2400.0 ] in
  List.concat_map
    (fun l ->
      List.concat_map
        (fun pipelined ->
          List.map
            (fun clk ->
              Hls_dse.Dse.point
                ?ii:(if pipelined then Some (l / 2) else None)
                ~min_latency:l ~max_latency:l ~clock_ps:clk ())
            clocks)
        [ false; true ])
    latencies

let idct_point_name (p : Hls_dse.Dse.point) =
  let l = Option.value p.Hls_dse.Dse.pt_min_latency ~default:0 in
  match p.Hls_dse.Dse.pt_ii with
  | Hls_dse.Dse.Seq -> Printf.sprintf "Non-Pipelined %d" l
  | _ -> Printf.sprintf "Pipelined %d" l

let idct_sweep () =
  let sw =
    Hls_dse.Dse.sweep ~jobs:(Domain.recommended_domain_count ()) (Hls_dse.Dse.create ())
      ~options:{ (flow_opts ()) with Hls_flow.Flow.verify = false }
      (Hls_designs.Idct.design ()) (idct_points ())
  in
  let runs =
    List.filter_map
      (fun (r : Hls_dse.Dse.result) ->
        match r.Hls_dse.Dse.r_flow with
        | Ok f -> Some (idct_point_name r.Hls_dse.Dse.r_point, f)
        | Error _ -> None)
      sw.Hls_dse.Dse.sw_results
  in
  (runs, sw)

let fig10_11 () =
  section "FIG 10 / FIG 11 — area/delay and power/delay for the IDCT design space";
  let runs, sw = idct_sweep () in
  Printf.printf "%d HLS runs (paper: 25 runs) — %s\n" (List.length runs)
    (Hls_dse.Dse.stats_to_string (Hls_dse.Dse.stats sw));
  Hls_report.Table.print
    ([ "curve"; "clock (ps)"; "II"; "delay (ns)"; "area"; "power (mW)" ]
    :: List.map
         (fun (name, (r : Hls_flow.Flow.t)) ->
           [
             name;
             Printf.sprintf "%.0f" r.Hls_flow.Flow.f_clock_ps;
             string_of_int r.Hls_flow.Flow.f_cycles_per_iter;
             Printf.sprintf "%.1f" (r.Hls_flow.Flow.f_delay_ps /. 1000.0);
             Printf.sprintf "%.0f" r.Hls_flow.Flow.f_area.Hls_rtl.Stats.a_total;
             Printf.sprintf "%.2f" r.Hls_flow.Flow.f_power_mw;
           ])
         runs);
  let by_curve =
    List.sort_uniq compare (List.map fst runs)
    |> List.mapi (fun i name ->
           let pts =
             List.filter_map
               (fun (n, r) ->
                 if n = name then
                   Some (r.Hls_flow.Flow.f_delay_ps /. 1000.0, r.Hls_flow.Flow.f_area.Hls_rtl.Stats.a_total)
                 else None)
               runs
           in
           Hls_report.Plot.series
             ~glyph:Hls_report.Plot.default_glyphs.(i mod 8)
             name pts)
  in
  Hls_report.Plot.print ~title:"FIG 10: area vs delay (inverse throughput)" ~x_label:"delay (ns)"
    ~y_label:"area" by_curve;
  let by_curve_p =
    List.sort_uniq compare (List.map fst runs)
    |> List.mapi (fun i name ->
           let pts =
             List.filter_map
               (fun (n, r) ->
                 if n = name then Some (r.Hls_flow.Flow.f_delay_ps /. 1000.0, r.Hls_flow.Flow.f_power_mw)
                 else None)
               runs
           in
           Hls_report.Plot.series ~glyph:Hls_report.Plot.default_glyphs.(i mod 8) name pts)
  in
  Hls_report.Plot.print ~title:"FIG 11: power vs delay" ~x_label:"delay (ns)" ~y_label:"power (mW)"
    by_curve_p;
  (* Pareto analysis: the paper's key claim — the best (bottom-left) point
     is reachable only by pipelining *)
  let pts =
    List.map
      (fun (n, r) ->
        Hls_report.Pareto.point ~x:(r.Hls_flow.Flow.f_delay_ps) ~y:r.Hls_flow.Flow.f_area.Hls_rtl.Stats.a_total n)
      runs
  in
  let front = Hls_report.Pareto.front pts in
  Printf.printf "area/delay Pareto front: %s\n"
    (String.concat ", "
       (List.map (fun p -> Printf.sprintf "%s@%.1fns" p.Hls_report.Pareto.p_tag (p.Hls_report.Pareto.p_x /. 1000.)) front));
  let fastest = List.hd front in
  Printf.printf "fastest Pareto point is pipelined: %b (paper: true — \"the best Pareto point can \
                 be achieved only by pipelining\")\n"
    (String.length fastest.Hls_report.Pareto.p_tag >= 4
    && String.sub fastest.Hls_report.Pareto.p_tag 0 4 = "Pipe")

(* ------------------------------------------------------------------ *)
(* Worked examples 1-3 narratives                                       *)
(* ------------------------------------------------------------------ *)

let examples () =
  section "EXAMPLES 1-3 — relaxation narratives";
  let narrate name ?ii ?(max_latency = 3) () =
    Printf.printf "\n--- %s ---\n" name;
    let e = Hls_designs.Example1.elaborated ~max_latency ?ii () in
    let region = Elaborate.main_region e in
    let trace = Trace.create () in
    (match Scheduler.schedule ~opts:narrative_opts ~trace ~lib ~clock_ps:clock region with
    | Ok s ->
        List.iter
          (fun ev -> if not (String.length ev > 3 && String.sub ev 0 4 = "    ") then print_endline ev)
          (Trace.events trace);
        Printf.printf "=> success: LI=%d, passes=%d\n" s.Scheduler.s_li s.Scheduler.s_passes
    | Error err -> Printf.printf "=> failed: %s\n" err.Scheduler.e_message)
  in
  narrate "Example 1: sequential (paper: fails at LI=1 and 2, succeeds at 3)" ();
  narrate "Example 2: pipelined II=2 (paper: succeeds immediately at LI=3)" ~ii:2 ~max_latency:4 ();
  narrate "Example 3: pipelined II=1 (paper: SCC moved to s2, 3 multipliers)" ~ii:1 ~max_latency:4 ()

(* ------------------------------------------------------------------ *)
(* Baseline comparison (Section III context)                            *)
(* ------------------------------------------------------------------ *)

let baselines () =
  section "BASELINES — unified timing-aware engine vs modulo scheduling vs schedule-then-fold";
  (* the worst paths downstream synthesis sizes *)
  let report (b : Binding.t) =
    Hls_timing.Graph.worst_paths b.Binding.graph ~endpoints:(Hls_netlist.Netlist.registered_ops b.Binding.net)
      ~rtype:(fun i -> (Binding.find_inst b i).Binding.rtype)
  in
  let designs =
    [
      ("example1 II=2", Hls_designs.Example1.design (), 2);
      ("example1 II=1", Hls_designs.Example1.design (), 1);
      ("fir8 II=1", Hls_designs.Fir.design (), 1);
      ("fft II=1", Hls_designs.Fft.design (), 1);
    ]
  in
  let rows =
    List.concat_map
      (fun (name, d, ii) ->
        (* one elaboration; each engine schedules its own region of it *)
        let e = Elaborate.design d in
        let ours =
          let region = Elaborate.main_region ~ii e in
          match Scheduler.schedule ~lib ~clock_ps:clock region with
          | Ok s ->
              let rep = report s.Scheduler.s_binding in
              let syn = Hls_timing.Synthesize.run lib rep in
              [ [ name ^ " / ours"; string_of_int s.Scheduler.s_li;
                  Printf.sprintf "%.0f" syn.Hls_timing.Synthesize.s_wns;
                  Printf.sprintf "%.0f" syn.Hls_timing.Synthesize.s_area;
                  string_of_int syn.Hls_timing.Synthesize.s_upsized ] ]
          | Error _ -> [ [ name ^ " / ours"; "-"; "-"; "-"; "-" ] ]
        in
        let modulo =
          (* unpinned: the cycle-grained engine reports the II it can reach
             (its chaining-blind RecMII is larger than ours) *)
          let region = Elaborate.main_region ~ii e in
          match Hls_baseline.Modulo.schedule ~lib ~clock_ps:clock region with
          | Ok m ->
              let rep = report m.Hls_baseline.Modulo.m_binding in
              let syn = Hls_timing.Synthesize.run lib rep in
              [ [ Printf.sprintf "%s / modulo (reaches II=%d)" name m.Hls_baseline.Modulo.m_ii;
                  string_of_int m.Hls_baseline.Modulo.m_li;
                  Printf.sprintf "%.0f" syn.Hls_timing.Synthesize.s_wns;
                  Printf.sprintf "%.0f" syn.Hls_timing.Synthesize.s_area;
                  string_of_int syn.Hls_timing.Synthesize.s_upsized ] ]
          | Error e -> [ [ name ^ " / modulo"; "-"; e.Hls_baseline.Modulo.m_message; "-"; "-" ] ]
        in
        let sehwa =
          let region = Elaborate.main_region ~ii e in
          match Hls_baseline.Sehwa.schedule ~ii ~lib ~clock_ps:clock region with
          | Ok m ->
              let rep = report m.Hls_baseline.Sehwa.s_binding in
              let syn = Hls_timing.Synthesize.run lib rep in
              [ [ name ^ " / schedule-then-fold";
                  Printf.sprintf "%d (%d attempts)" m.Hls_baseline.Sehwa.s_li m.Hls_baseline.Sehwa.s_attempts;
                  Printf.sprintf "%.0f" syn.Hls_timing.Synthesize.s_wns;
                  Printf.sprintf "%.0f" syn.Hls_timing.Synthesize.s_area;
                  string_of_int syn.Hls_timing.Synthesize.s_upsized ] ]
          | Error e -> [ [ name ^ " / schedule-then-fold"; "-"; e.Hls_baseline.Sehwa.s_message; "-"; "-" ] ]
        in
        ours @ modulo @ sehwa)
      designs
  in
  Hls_report.Table.print
    ([ "engine"; "LI"; "wns after synth (ps)"; "resource area"; "#upsized" ] :: rows);
  print_endline
    "shape: the unified chaining-aware engine reaches the designer's II at short LI; the\n\
     cycle-grained modulo baseline cannot chain, so its recurrence bound forces a larger II\n\
     (and much larger LI), and schedule-then-fold never converges on recurrences -- the\n\
     decoupling weaknesses Section III describes."

(* ------------------------------------------------------------------ *)
(* Timing-awareness ablation                                            *)
(* ------------------------------------------------------------------ *)

let ablation_timing () =
  section "ABLATION — netlist-accurate timing vs naive additive timing during scheduling";
  let designs =
    [ ("example1 II=1", Hls_designs.Example1.design (), Some 1, clock);
      ("idct seq (shared)", Hls_designs.Idct.design ~min_latency:16 ~max_latency:16 (), None, 1500.0);
      ("fir8 II=1", Hls_designs.Fir.design (), Some 1, 1400.0);
      ("sobel seq", Hls_designs.Conv.design (), None, 900.0) ]
  in
  let rows =
    List.filter_map
      (fun (name, d, ii, clk) ->
        let aware = flow_opts ?ii ~clock_ps:clk () in
        let naive =
          { aware with
            Hls_flow.Flow.sched = { Scheduler.default_options with timing_aware = false };
            verify = false }
        in
        match (Hls_flow.Flow.run ~options:aware d, Hls_flow.Flow.run ~options:naive d) with
        | Ok a, Ok b ->
            Some
              [ name;
                Printf.sprintf "%.0f / %.0f" a.Hls_flow.Flow.f_area.Hls_rtl.Stats.a_total
                  b.Hls_flow.Flow.f_area.Hls_rtl.Stats.a_total;
                Printf.sprintf "%.0f / %.0f" a.Hls_flow.Flow.f_area.Hls_rtl.Stats.wns
                  b.Hls_flow.Flow.f_area.Hls_rtl.Stats.wns ]
        | _ -> Some [ name; "(one side failed)"; "-" ])
      designs
  in
  Hls_report.Table.print ([ "design"; "area aware/naive"; "wns aware/naive (ps)" ] :: rows)

(* ------------------------------------------------------------------ *)
(* Design-size scaling sweep: wall clock and query throughput vs op     *)
(* count, tracked per PR (BENCH_scale.json)                             *)
(* ------------------------------------------------------------------ *)

let bench_scale () =
  section "SCALE — scheduler wall clock vs design size (BENCH_scale.json)";
  (* log-spaced sizes from the synthetic-350 reference up to production
     scale; tightness is kept moderate so the relaxation loop terminates
     in a comparable number of passes at every size and the curve
     isolates per-pass cost growth *)
  (* generator targets chosen so the *elaborated* op counts land at
     ~350 / 1k / 3k / 10k (elaboration roughly doubles the source op
     count with muxes and port plumbing) *)
  let sizes = if !smoke then [ 175; 500 ] else [ 175; 500; 1500; 5000 ] in
  (* every point is elaborated once and scheduled [reps] times on that one
     region: the wall clock is the median, with its min and max, and every
     count must repeat exactly — a schedule depends on nothing an earlier
     one left behind *)
  let reps = if !smoke then 2 else 3 in
  (* the exact counters of a schedule, the JSON columns they fill *)
  let counts (st : Scheduler.stats) =
    let c = st.Scheduler.st_decisions in
    [
      ("queries", st.Scheduler.st_queries);
      ("passes", st.Scheduler.st_passes);
      ("visits", st.Scheduler.st_visits);
      ("cycle_visits", st.Scheduler.st_cycle_visits);
      ("trials", st.Scheduler.st_trials);
      ("rollbacks", st.Scheduler.st_rollbacks);
      (* the binder's decision counters: exact, so they carry a claim at
         sizes where the wall clock cannot *)
      ("attempts_bound", c.Binding.c_bound);
      ("attempts_failed", c.Binding.c_failed);
      ("candidates", c.Binding.c_visited);
      ("prelude_fails", c.Binding.c_prelude);
      ("rej_forbid", c.Binding.c_forbid);
      ("rej_tier", c.Binding.c_tier);
      ("rej_dedicated", c.Binding.c_dedicated);
      ("rej_busy", c.Binding.c_busy);
      ("rej_quick_slack", c.Binding.c_quick_slack);
      ("rej_empty_slack", c.Binding.c_empty_slack);
      ("rej_cycle", c.Binding.c_cycle);
      ("rej_screen_memo", c.Binding.c_screen_memo);
      ("rej_screen", c.Binding.c_screen);
      ("rej_trial_slack", c.Binding.c_trial_slack);
      ("rej_trial_busy", c.Binding.c_trial_busy);
      ("screens_skipped", c.Binding.c_screen_skipped);
      ("screens_futile", c.Binding.c_screen_futile);
      (* the candidates the attempts' verdicts decide: all busy with the
         class, on the slack bound *)
      ("rej_class_busy", c.Binding.c_class_busy);
      ("rej_slack_bound", c.Binding.c_slack_bound);
      ("failed_candidates", c.Binding.c_failed_visited);
    ]
  in
  (* median, min and max of a point's walls *)
  let spread walls =
    let a = Array.of_list (List.sort Float.compare walls) in
    let n = Array.length a in
    let median = if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0 in
    (median, a.(0), a.(n - 1))
  in
  let rows =
    List.map
      (fun ops ->
        let profile =
          { Hls_designs.Synthetic.default_profile with
            Hls_designs.Synthetic.p_ops = ops; p_seed = 7; p_tightness = 0.3 }
        in
        let region = Elaborate.main_region (Elaborate.design (Hls_designs.Synthetic.design ~profile ())) in
        let n = Region.n_members region in
        let run () =
          Gc.compact ();
          match Scheduler.schedule ~lib ~clock_ps:clock region with
          | Ok s -> Ok (Scheduler.stats s, (Gc.quick_stat ()).Gc.top_heap_words)
          | Error err -> Error err.Scheduler.e_message
        in
        match run () with
        | Error m ->
            Printf.printf "  %6d ops  FAILED: %s\n%!" n m;
            None
        | Ok (st, peak) ->
            let c = st.Scheduler.st_decisions in
            let walls =
              st.Scheduler.st_sched_s
              :: List.init (reps - 1) (fun _ ->
                     match run () with
                     | Ok (st', _) when counts st' = counts st -> st'.Scheduler.st_sched_s
                     | Ok _ -> failwith (Printf.sprintf "scale: %d ops: the counts differ between reps" n)
                     | Error m -> failwith (Printf.sprintf "scale: %d ops: a rep failed: %s" n m))
            in
            let wall, lo, hi = spread walls in
            let qps = if wall > 0.0 then float_of_int st.Scheduler.st_queries /. wall else 0.0 in
            Printf.printf
              "  %6d ops  %8.3f s (%d reps, %.3f..%.3f)  %9d queries  %8.0f queries/s  %3d passes  \
               %9d visits  %7d trials (%d rb)  %9d cycle visits  %10d peak words  %8d attempts  \
               %9d candidates  %8d memo screens  %6d skipped  %6d futile\n%!"
              n wall reps lo hi st.Scheduler.st_queries qps st.Scheduler.st_passes st.Scheduler.st_visits
              st.Scheduler.st_trials st.Scheduler.st_rollbacks st.Scheduler.st_cycle_visits peak
              (c.Binding.c_bound + c.Binding.c_failed)
              c.Binding.c_visited c.Binding.c_screen_memo c.Binding.c_screen_skipped
              c.Binding.c_screen_futile;
            Some (n, st, walls, peak))
      sizes
  in
  let rows = List.filter_map Fun.id rows in
  let json_row (n, (st : Scheduler.stats), walls, peak) =
    let wall, lo, hi = spread walls in
    let qps = if wall > 0.0 then float_of_int st.Scheduler.st_queries /. wall else 0.0 in
    Printf.sprintf
      {|{"ops":%d,"wall_s":%.6f,"wall_min_s":%.6f,"wall_max_s":%.6f,"reps":%d,"queries_per_s":%.1f,"peak_heap_words":%d,%s}|}
      n wall lo hi (List.length walls) qps peak
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf {|"%s":%d|} k v) (counts st)))
  in
  (* the headline scaling exponent: slope of log(wall) over log(ops)
     between the smallest and largest completed points *)
  let exponent =
    match (rows, List.rev rows) with
    | (n0, _, w0, _) :: _, (n1, _, w1, _) :: _ ->
        let (m0, _, _), (m1, _, _) = (spread w0, spread w1) in
        if n1 > n0 && m0 > 0.0 && m1 > 0.0 then log (m1 /. m0) /. log (float_of_int n1 /. float_of_int n0)
        else 0.0
    | _ -> 0.0
  in
  Printf.printf "scaling exponent (log wall / log ops): %.2f\n" exponent;
  let oc, path = open_bench_json "BENCH_scale.json" in
  Printf.fprintf oc {|{"design":"synthetic","clock_ps":%.0f,"scaling_exponent":%.3f,"points":[%s]}
|}
    clock exponent
    (String.concat "," (List.map json_row rows));
  close_out oc;
  print_endline ("wrote " ^ path)

(* ------------------------------------------------------------------ *)
(* Loop-nest pipelining: unroll-based 1-D baseline vs the flattened     *)
(* multi-dimensional pipeline (BENCH_nest.json)                         *)
(* ------------------------------------------------------------------ *)

let bench_nest () =
  section "NEST — 1-D unroll baseline vs multi-dimensional pipelining (BENCH_nest.json)";
  let module Flow = Hls_flow.Flow in
  let workloads =
    [
      ("matmul", "examples/matmul.bhv", [ 8; 1 ]);
      ("stencil2d", "examples/stencil2d.bhv", [ 8400; 2 ]);
    ]
  in
  let json_of_flow (r : Flow.t) =
    let a = r.Flow.f_area in
    Printf.sprintf
      {|{"ok":true,"ii":%d,"ii_dims":[%s],"li":%d,"delay_ps":%.0f,"area":%.0f,"tier":"%s","verified":%b}|}
      r.Flow.f_cycles_per_iter
      (String.concat "," (List.map string_of_int (Flow.per_dim_iis r)))
      r.Flow.f_sched.Scheduler.s_li r.Flow.f_delay_ps a.Hls_rtl.Stats.a_total
      (Flow.tier_to_string r.Flow.f_tier)
      (match r.Flow.f_equiv with Some v -> v.Hls_sim.Equiv.equivalent | None -> false)
  in
  let json_err (d : Hls_diag.Diag.t) =
    Printf.sprintf {|{"ok":false,"code":"%s"}|} d.Hls_diag.Diag.d_code
  in
  let sim_iters = if !smoke then 20 else 60 in
  let rows =
    List.map
      (fun (name, path, dims) ->
        let design = Parser.parse_file path in
        let run ~nest_mode ~ii ~ii_dims =
          Flow.run
            ~options:
              { Flow.default_options with ii; ii_dims; nest_mode; sim_iters; degrade = false }
            design
        in
        (* 1-D baseline: fully unroll the inner dimension, then pipeline
           the single remaining loop as before this PR *)
        let unroll = run ~nest_mode:`Unroll ~ii:(Some 1) ~ii_dims:None in
        let unroll =
          match unroll with Ok _ -> unroll | Error _ -> run ~nest_mode:`Unroll ~ii:(Some 2) ~ii_dims:None
        in
        (* flattened multi-dimensional pipeline at the per-dimension request *)
        let flat = run ~nest_mode:`Flatten ~ii:None ~ii_dims:(Some dims) in
        let show tag = function
          | Ok r -> Printf.printf "  %-10s %-8s %s\n%!" name tag (Flow.summary r)
          | Error d ->
              Printf.printf "  %-10s %-8s infeasible (%s)\n%!" name tag d.Hls_diag.Diag.d_code
        in
        show "unroll" unroll;
        show "flatten" flat;
        let flat_beats_unroll =
          match (flat, unroll) with
          | Ok _, Error _ -> true (* multi-D schedules a nest the 1-D baseline refuses *)
          | Ok f, Ok u -> f.Flow.f_area.Hls_rtl.Stats.a_total < u.Flow.f_area.Hls_rtl.Stats.a_total
          | _ -> false
        in
        Printf.sprintf
          {|{"design":"%s","requested_ii_dims":[%s],"unroll":%s,"flatten":%s,"multi_d_wins":%b}|}
          name
          (String.concat "," (List.map string_of_int dims))
          (match unroll with Ok r -> json_of_flow r | Error d -> json_err d)
          (match flat with Ok r -> json_of_flow r | Error d -> json_err d)
          flat_beats_unroll)
      workloads
  in
  let oc, path = open_bench_json "BENCH_nest.json" in
  Printf.fprintf oc {|{"clock_ps":%.0f,"workloads":[%s]}
|} clock (String.concat "," rows);
  close_out oc;
  print_endline ("wrote " ^ path)

(* ------------------------------------------------------------------ *)
(* Compiled kernel simulation: interpreted vs compiled engine           *)
(* throughput across stimulus lengths, plus the randomized three-way    *)
(* fuzz gate (BENCH_kernel.json)                                        *)
(* ------------------------------------------------------------------ *)

let bench_kernel () =
  section "KERNEL — interpreted vs compiled folded-pipeline simulation (BENCH_kernel.json)";
  let schedule ?ii design =
    let e = Elaborate.design design in
    let region = Elaborate.main_region ?ii e in
    match Scheduler.schedule ~lib ~clock_ps:clock region with
    | Ok s -> (e, s)
    | Error err -> failwith ("bench kernel: schedule failed: " ^ err.Scheduler.e_message)
  in
  (* time one run; repeat short runs until the sample is >= 50 ms, and
     take the best of three samples — throughput on a shared machine is
     noisy and the minimum is the least-disturbed measurement *)
  let time f =
    let sample () =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt >= 0.05 then (dt, r)
      else begin
        let reps = max 1 (int_of_float (0.05 /. Float.max dt 1e-7)) in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          ignore (f ())
        done;
        ((Unix.gettimeofday () -. t0) /. float_of_int reps, r)
      end
    in
    Gc.major ();
    let t1, r = sample () in
    let t2, _ = sample () in
    let t3, _ = sample () in
    (Float.min t1 (Float.min t2 t3), r)
  in
  let workloads =
    [
      ("example1", Hls_designs.Example1.design (), Some 1);
      ("fir8", Hls_designs.Fir.design (), Some 1);
      ("fir64", Hls_designs.Fir.design ~taps:64 ~max_latency:64 (), Some 1);
      ("agc", Hls_designs.Agc.design (), Some 2);
    ]
  in
  let lengths =
    if !smoke then [ 100; 1_000 ] else [ 100; 1_000; 10_000; 100_000; 1_000_000 ]
  in
  (* the interpreter is the baseline being replaced: measuring it beyond
     1e5 iterations would dominate the bench for no extra information *)
  let interp_cap = 100_000 in
  let rows =
    List.concat_map
      (fun (name, design, ii) ->
        let e, s = schedule ?ii design in
        let plan = Hls_sim.Kernel_compile.compile e s (Pipeline.fold s) in
        List.map
          (fun n_iters ->
            let stim =
              Hls_sim.Stimulus.small_random ~seed:7 ~n_iters ~ports:design.Ast.d_ins
            in
            let compiled_s, cres = time (fun () -> Hls_sim.Kernel_compile.run plan stim) in
            let cycles = cres.Hls_sim.Kernel_sim.k_cycles in
            let interp =
              if n_iters > interp_cap then None
              else begin
                let interp_s, ires =
                  time (fun () -> Hls_sim.Kernel_sim.run ~engine:`Interp e s stim)
                in
                assert (ires = cres);
                Some interp_s
              end
            in
            let c_rate = float_of_int cycles /. compiled_s in
            Printf.printf "  %-9s n=%-8d compiled %10.3e cyc/s%s\n%!" name n_iters c_rate
              (match interp with
              | Some t ->
                  Printf.sprintf "  interp %10.3e cyc/s  speedup %8.1fx"
                    (float_of_int cycles /. t)
                    (t /. compiled_s)
              | None -> "  interp (skipped)");
            Printf.sprintf
              {|{"design":"%s","ii":%s,"n_iters":%d,"cycles":%d,"compiled_s":%.6f,"compiled_cycles_per_s":%.1f,"interp_s":%s,"speedup":%s}|}
              name
              (match ii with Some i -> string_of_int i | None -> "null")
              n_iters cycles compiled_s c_rate
              (match interp with Some t -> Printf.sprintf "%.6f" t | None -> "null")
              (match interp with
              | Some t -> Printf.sprintf "%.1f" (t /. compiled_s)
              | None -> "null"))
          lengths)
      workloads
  in
  (* the randomized three-way gate, reported alongside the numbers *)
  let cases = if !smoke then 60 else 300 in
  let report = Hls_sim.Equiv.fuzz ~cases ~seed:2026 () in
  print_endline ("  " ^ Hls_sim.Equiv.fuzz_to_string report);
  let fuzz_json =
    Printf.sprintf
      {|{"cases":%d,"equivalent":%d,"infeasible":%d,"checked_values":%d,"failures":%d}|}
      report.Hls_sim.Equiv.fz_cases report.Hls_sim.Equiv.fz_equivalent
      report.Hls_sim.Equiv.fz_infeasible report.Hls_sim.Equiv.fz_checked_values
      (List.length report.Hls_sim.Equiv.fz_failures)
  in
  let oc, path = open_bench_json "BENCH_kernel.json" in
  Printf.fprintf oc {|{"clock_ps":%.0f,"interp_cap":%d,"rows":[%s],"fuzz":%s}
|} clock interp_cap
    (String.concat "," rows)
    fuzz_json;
  close_out oc;
  print_endline ("wrote " ^ path)

(* ------------------------------------------------------------------ *)
(* Feedback-guided iterative scheduling: scheduler passes and QoR with  *)
(* and without the subgraph-extraction feedback loop                    *)
(* (BENCH_feedback.json)                                                *)
(* ------------------------------------------------------------------ *)

let bench_feedback () =
  section "FEEDBACK — pass reduction under subgraph-extraction feedback (BENCH_feedback.json)";
  let module Flow = Hls_flow.Flow in
  let workloads =
    [
      ("idct", Hls_designs.Idct.design (), 2);
      ("fft", Hls_designs.Fft.design (), 2);
      ("sobel", Hls_designs.Conv.design (), 2);
      ( "synthetic-350",
        Hls_designs.Synthetic.design
          ~profile:
            { Hls_designs.Synthetic.default_profile with Hls_designs.Synthetic.p_ops = 350; p_seed = 7 }
          (),
        2 );
    ]
  in
  let rows =
    List.map
      (fun (name, design, ii) ->
        let run feedback =
          Flow.run
            ~options:
              {
                Flow.default_options with
                Flow.ii = Some ii;
                verify = false;
                feedback;
                feedback_iters = 3;
              }
            design
        in
        let describe (r : Flow.t) =
          ( r.Flow.f_cycles_per_iter,
            r.Flow.f_sched.Scheduler.s_li,
            r.Flow.f_area.Hls_rtl.Stats.a_total,
            r.Flow.f_stats.Scheduler.st_passes )
        in
        match (run false, run true) with
        | Ok b, Ok f ->
            let bii, bli, barea, bp = describe b and fii, fli, farea, fp = describe f in
            let qor_ok = (fii, fli, farea) <= (bii, bli, barea) in
            Printf.printf "  %-14s baseline: II=%d LI=%d area=%.0f passes=%d\n%!" name bii bli
              barea bp;
            Printf.printf "  %-14s feedback: II=%d LI=%d area=%.0f passes=%d%s\n%!" name fii
              fli farea fp
              (if fp < bp then "  (fewer passes)" else "");
            Printf.sprintf
              {|{"design":"%s","ii_request":%d,"baseline":{"ii":%d,"li":%d,"area":%.0f,"passes":%d},"feedback":{"ii":%d,"li":%d,"area":%.0f,"passes":%d},"fewer_passes":%b,"qor_no_worse":%b}|}
              name ii bii bli barea bp fii fli farea fp (fp < bp) qor_ok
        | Error d, _ | _, Error d ->
            Printf.printf "  %-14s infeasible (%s)\n%!" name d.Hls_diag.Diag.d_code;
            Printf.sprintf {|{"design":"%s","ok":false,"code":"%s"}|} name d.Hls_diag.Diag.d_code)
      workloads
  in
  let oc, path = open_bench_json "BENCH_feedback.json" in
  Printf.fprintf oc {|{"clock_ps":%.0f,"workloads":[%s]}
|} clock (String.concat "," rows);
  close_out oc;
  print_endline ("wrote " ^ path)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("fig5", fig5);
    ("fig8", fig8);
    ("fig9", fun () -> fig9 ());
    ("fig10", fig10_11);
    ("fig11", fig10_11);
    ("scale", bench_scale);
    ("nest", bench_nest);
    ("feedback", bench_feedback);
    ("kernel", bench_kernel);
    ("examples", examples);
    ("baselines", baselines);
    ("ablation-timing", ablation_timing);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "--smoke" then begin
          smoke := true;
          false
        end
        else true)
      args
  in
  match args with
  | [ "--list" ] -> List.iter (fun (n, _) -> print_endline n) experiments
  | [] ->
      (* everything; fig10 and fig11 share one sweep *)
      List.iter
        (fun (n, f) -> if n <> "fig11" then f ())
        experiments
  | names -> (
      match List.filter (fun n -> not (List.mem_assoc n experiments)) names with
      | [] -> List.iter (fun n -> (List.assoc n experiments) ()) names
      | unknown ->
          List.iter (Printf.eprintf "unknown experiment %s (try --list)\n") unknown;
          exit 2)
