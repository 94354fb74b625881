(** [hlsc] — command-line driver for the HLS flow.

    {v
      hlsc designs                         # list built-in designs
      hlsc compile example1                # elaborate and summarize the CDFG
      hlsc schedule example1 --ii 2        # schedule + print the binding table
      hlsc pipeline example1 --ii 2        # ... and the folded kernel (Fig. 5 view)
      hlsc flow idct --latency 8..8 --clock 1200   # full flow with verification
      hlsc emit example1 --ii 2 -o out.v   # generate Verilog
      hlsc explore idct --grid "ii=none,8;latency=16;clock=1200,1600" --jobs 4
                                           # parallel design-space sweep
      hlsc serve --socket hlsc.sock --jobs 4       # compile-service daemon
      hlsc submit schedule example1 --ii 2         # compile via the daemon
      hlsc compile my.bhv                  # any command also accepts .bhv files
    v}
*)

open Cmdliner
open Hls_frontend
module Proto = Hls_server.Protocol
module Design_db = Hls_server.Design_db
module Render = Hls_server.Render
module Client = Hls_server.Client
module Server = Hls_server.Server

(* ---- design lookup (shared with the daemon, see Hls_server.Design_db) ---- *)

let load_design name =
  match Design_db.local_spec name with
  | Error _ as e -> e
  | Ok spec -> Design_db.load spec

(** Run a command body under a catch-all: a bad input file or an internal
    fault exits with code 1 and a one-line diagnostic, never a backtrace. *)
let guarded f =
  try f () with
  | Parser.Error { line; message } | Lexer.Error { line; message } ->
      prerr_endline (Printf.sprintf "hlsc: line %d: %s" line message);
      exit 1
  | Desugar.Error f ->
      prerr_endline ("hlsc: " ^ Hls_frontend.Fault.message f);
      exit 1
  | Failure m | Invalid_argument m | Sys_error m ->
      prerr_endline ("hlsc: " ^ m);
      exit 1

(* ---- common args ---- *)

let design_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc:"Built-in design name or .bhv file.")

let ii_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ii" ] ~docv:"N"
        ~doc:
          "Pipeline with initiation interval $(docv).  For a counted loop nest, a per-dimension \
           spec $(b,AxB) (outermost first, e.g. $(b,4x1)) requests those IIs for the flattened \
           nest.")

let nest_arg =
  Arg.(
    value
    & opt (enum [ ("flatten", `Flatten); ("unroll", `Unroll) ]) `Flatten
    & info [ "nest" ] ~docv:"MODE"
        ~doc:
          "Counted-nest lowering: $(b,flatten) (default; one combined induction counter) or \
           $(b,unroll) (the 1-D baseline that fully unrolls inner loops).")

let clock_arg =
  Arg.(value & opt float 1600.0 & info [ "clock" ] ~docv:"PS" ~doc:"Clock period in picoseconds (default 1600).")

let latency_arg =
  Arg.(value & opt (some string) None & info [ "latency" ] ~docv:"LO..HI" ~doc:"Loop latency bounds, e.g. 2..8.")

let trace_arg = Arg.(value & flag & info [ "trace" ] ~doc:"Print scheduling pass events.")

let feedback_arg =
  Arg.(
    value & flag
    & info [ "feedback" ]
        ~doc:
          "Run the subgraph-extraction feedback loop: schedule, mine the critical subgraphs \
           (negative-slack cones, contended-resource cliques, SCC stage windows) into typed \
           hints, and re-schedule with the hints batched in — serving whichever iteration wins \
           on (II, latency, area), preferring the one that needed fewer relaxation passes.")

let feedback_iters_arg =
  Arg.(
    value & opt (some int) None
    & info [ "feedback-iters" ] ~docv:"N"
        ~doc:
          "Schedule calls the feedback loop may spend, at least 1 (default 2; implies \
           $(b,--feedback)).")

let parse_latency = function
  | None -> Ok (None, None)
  | Some s -> (
      match String.index_opt s '.' with
      | Some i when i + 1 < String.length s && s.[i + 1] = '.' -> (
          try
            Ok
              ( Some (int_of_string (String.sub s 0 i)),
                Some (int_of_string (String.sub s (i + 2) (String.length s - i - 2))) )
          with _ -> Error "bad latency bounds (expected LO..HI)")
      | _ -> Error "bad latency bounds (expected LO..HI)")

let or_die = function
  | Ok x -> x
  | Error m ->
      prerr_endline ("hlsc: " ^ m);
      exit 1

(* ---- robustness flags ---- *)

type robust = {
  diag_json : bool;
  paranoid : bool;
  max_passes : int option;
  timeout : float option;
  no_degrade : bool;
}

let robust_term =
  let diag_json =
    Arg.(value & flag & info [ "diag-json" ] ~doc:"On failure, print the diagnostic as a JSON object on stderr.")
  in
  let paranoid =
    Arg.(value & flag & info [ "paranoid" ] ~doc:"Audit every schedule with the post-schedule validator.")
  in
  let max_passes =
    Arg.(value & opt (some int) None & info [ "max-passes" ] ~docv:"N" ~doc:"Relaxation pass budget (default 200).")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SEC" ~doc:"Wall-clock scheduling budget in seconds.")
  in
  let no_degrade =
    Arg.(value & flag & info [ "no-degrade" ] ~doc:"Fail on an overconstrained specification instead of walking the degradation ladder.")
  in
  Term.(
    const (fun diag_json paranoid max_passes timeout no_degrade ->
        { diag_json; paranoid; max_passes; timeout; no_degrade })
    $ diag_json $ paranoid $ max_passes $ timeout $ no_degrade)

(* "--ii 2" -> flat II; "--ii 4x1" -> per-dimension nest II *)
let parse_ii = function
  | None -> Ok (None, None)
  | Some s -> (
      match int_of_string_opt s with
      | Some v when v >= 1 -> Ok (Some v, None)
      | Some _ -> Error (Printf.sprintf "bad --ii value '%s' (expected a positive integer)" s)
      | None -> (
          let parts = String.split_on_char 'x' s |> List.map String.trim in
          let dims = List.filter_map int_of_string_opt parts in
          match dims with
          | _ :: _ :: _ when List.length dims = List.length parts && List.for_all (fun d -> d >= 1) dims
            ->
              Ok (None, Some dims)
          | _ -> Error (Printf.sprintf "bad --ii value '%s' (expected N or AxB, e.g. 4x1)" s)))

(* an explicit --feedback-iters turns the loop on, whatever its value *)
let parse_feedback ~feedback = function
  | None -> Ok (feedback, Hls_flow.Flow.default_options.Hls_flow.Flow.feedback_iters)
  | Some n when n >= 1 -> Ok (true, n)
  | Some n -> Error (Printf.sprintf "bad --feedback-iters %d (expected N >= 1)" n)

let flow_result ~ii ~clock ~latency ~trace ~robust ?(nest = `Flatten) ?(feedback = false)
    ?feedback_iters design_name =
  let design = or_die (load_design design_name) in
  let ii, ii_dims = or_die (parse_ii ii) in
  let min_latency, max_latency = or_die (parse_latency latency) in
  let feedback, feedback_iters = or_die (parse_feedback ~feedback feedback_iters) in
  let sched =
    {
      Hls_core.Scheduler.default_options with
      max_passes =
        Option.value robust.max_passes
          ~default:Hls_core.Scheduler.default_options.Hls_core.Scheduler.max_passes;
      timeout_s = robust.timeout;
    }
  in
  let options =
    {
      Hls_flow.Flow.default_options with
      ii;
      ii_dims;
      nest_mode = nest;
      clock_ps = clock;
      min_latency;
      max_latency;
      sched;
      degrade = not robust.no_degrade;
      paranoid = robust.paranoid;
      feedback;
      feedback_iters;
    }
  in
  let trace_obj = if trace then Some (Hls_core.Trace.create ~echo:true ()) else None in
  let trace_summary () =
    Option.iter (fun t -> prerr_endline ("trace: " ^ Hls_core.Trace.summary t)) trace_obj
  in
  match Hls_flow.Flow.run ~options ?trace:trace_obj design with
  | Ok r ->
      trace_summary ();
      List.iter
        (fun n -> prerr_endline ("hlsc: " ^ Hls_diag.Diag.to_string n))
        r.Hls_flow.Flow.f_notes;
      r
  | Error d ->
      trace_summary ();
      if robust.diag_json then prerr_endline (Hls_diag.Diag.to_json d)
      else prerr_endline ("hlsc: " ^ Hls_diag.Diag.to_string d);
      exit 1

(* ---- commands ---- *)

let designs_cmd =
  let doc = "List built-in designs." in
  Cmd.v (Cmd.info "designs" ~doc)
    Term.(
      const (fun () ->
          List.iter (fun (n, _) -> print_endline n) Design_db.builtins)
      $ const ())

let compile_cmd =
  let doc = "Elaborate a design and summarize its CDFG." in
  let run name =
    guarded @@ fun () ->
    let design = or_die (load_design name) in
    match Elaborate.design design with
    | exception Desugar.Error f ->
        prerr_endline ("hlsc: " ^ Hls_frontend.Fault.message f);
        exit 1
    | e ->
        (match Hls_ir.Cdfg.validate e.Elaborate.cdfg with
        | [] -> ()
        | errs ->
            List.iter (fun m -> prerr_endline ("invalid: " ^ m)) errs;
            exit 1);
        let dfg = e.Elaborate.cdfg.Hls_ir.Cdfg.dfg in
        Printf.printf "design %s: %d DFG operations\n" design.Ast.d_name (Hls_ir.Dfg.size dfg);
        (match e.Elaborate.loop with
        | Some li ->
            Printf.printf "main loop '%s': %d ops, %s, %d source wait state(s)\n"
              li.Elaborate.li_attrs.Ast.l_name
              (List.length li.Elaborate.li_members)
              (match li.Elaborate.li_continue with
              | Some _ -> "data-dependent exit"
              | None -> "free-running")
              li.Elaborate.li_waits
        | None -> print_endline "no main loop (straight-line design)");
        let region = Elaborate.main_region e in
        List.iteri
          (fun i scc -> Printf.printf "SCC %d: %d ops (must fit one pipeline stage)\n" i (List.length scc))
          (Hls_ir.Region.sccs region)
  in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const run $ design_arg)

let schedule_cmd =
  let doc = "Schedule and bind a design; print the resource/state table." in
  let run name ii clock latency trace robust nest feedback feedback_iters =
    guarded @@ fun () ->
    let r = flow_result ~ii ~clock ~latency ~trace ~robust ~nest ~feedback ?feedback_iters name in
    print_string (Render.schedule r)
  in
  Cmd.v (Cmd.info "schedule" ~doc)
    Term.(
      const run $ design_arg $ ii_arg $ clock_arg $ latency_arg $ trace_arg $ robust_term $ nest_arg
      $ feedback_arg $ feedback_iters_arg)

let pipeline_cmd =
  let doc = "Schedule, fold and print the pipeline kernel (the Fig. 5 view)." in
  let run name ii clock latency trace robust nest feedback feedback_iters =
    guarded @@ fun () ->
    let r = flow_result ~ii ~clock ~latency ~trace ~robust ~nest ~feedback ?feedback_iters name in
    print_string (Render.pipeline r)
  in
  Cmd.v (Cmd.info "pipeline" ~doc)
    Term.(
      const run $ design_arg $ ii_arg $ clock_arg $ latency_arg $ trace_arg $ robust_term $ nest_arg
      $ feedback_arg $ feedback_iters_arg)

let flow_cmd =
  let doc = "Run the full flow: schedule, fold, area/power, verification." in
  let run name ii clock latency trace robust nest feedback feedback_iters =
    guarded @@ fun () ->
    let r = flow_result ~ii ~clock ~latency ~trace ~robust ~nest ~feedback ?feedback_iters name in
    print_string (Render.flow r)
  in
  Cmd.v (Cmd.info "flow" ~doc)
    Term.(
      const run $ design_arg $ ii_arg $ clock_arg $ latency_arg $ trace_arg $ robust_term $ nest_arg
      $ feedback_arg $ feedback_iters_arg)

let fuzz_cmd =
  let doc =
    "Run the randomized three-way equivalence gate: seeded random designs x micro-architectures \
     x stimuli (stall patterns and early exits included), checked behavioural vs schedule-sim vs \
     compiled kernel, with an interpreted-vs-compiled cross-check of the full kernel result."
  in
  let cases_arg =
    Arg.(
      value & opt int 200
      & info [ "cases" ] ~docv:"N" ~doc:"Number of seeded random cases (default 200).")
  in
  let seed_arg =
    Arg.(
      value & opt int 2026
      & info [ "seed" ] ~docv:"S"
          ~doc:"Base seed; a failure logs its case seed so the find replays exactly.")
  in
  let run cases seed =
    guarded @@ fun () ->
    let report = Hls_sim.Equiv.fuzz ~cases ~seed () in
    print_endline (Hls_sim.Equiv.fuzz_to_string report);
    if not (Hls_sim.Equiv.fuzz_ok report) then exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc) Term.(const run $ cases_arg $ seed_arg)

let cosim_cmd =
  let doc =
    "Diff the interpreted and compiled folded-kernel engines on one design: identical outputs \
     and identical iteration/cycle/stall/squash counters, under several external stall duty \
     patterns."
  in
  let iters_arg =
    Arg.(
      value & opt int 200
      & info [ "iters" ] ~docv:"N" ~doc:"Stimulus length in iterations (default 200).")
  in
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S" ~doc:"Stimulus seed (default 7).")
  in
  let run name ii clock latency robust nest iters seed =
    guarded @@ fun () ->
    if iters < 0 then or_die (Error (Printf.sprintf "bad --iters %d (expected N >= 0)" iters));
    let r = flow_result ~ii ~clock ~latency ~trace:false ~robust ~nest name in
    let d = r.Hls_flow.Flow.f_design in
    let elab = r.Hls_flow.Flow.f_elab and sched = r.Hls_flow.Flow.f_sched in
    let stim = Hls_sim.Stimulus.small_random ~seed ~n_iters:iters ~ports:d.Ast.d_ins in
    let patterns =
      [
        ("free-running", fun _ -> true);
        ("duty-1/2", fun c -> c mod 2 = 0);
        ("duty-2/3", fun c -> c mod 3 <> 0);
      ]
    in
    List.iter
      (fun (pname, stall_pattern) ->
        let interp = Hls_sim.Kernel_sim.run ~engine:`Interp ~stall_pattern elab sched stim in
        let compiled = Hls_sim.Kernel_sim.run ~engine:`Compiled ~stall_pattern elab sched stim in
        if interp <> compiled then begin
          Printf.eprintf
            "hlsc: engines diverge on %s (%s): interpreted \
             {iters=%d;cycles=%d;stalls=%d;squashed=%d;outputs=%d} vs compiled \
             {iters=%d;cycles=%d;stalls=%d;squashed=%d;outputs=%d}\n"
            name pname interp.Hls_sim.Kernel_sim.k_iters interp.Hls_sim.Kernel_sim.k_cycles
            interp.Hls_sim.Kernel_sim.k_stall_cycles interp.Hls_sim.Kernel_sim.k_squashed
            (List.length interp.Hls_sim.Kernel_sim.k_outputs)
            compiled.Hls_sim.Kernel_sim.k_iters compiled.Hls_sim.Kernel_sim.k_cycles
            compiled.Hls_sim.Kernel_sim.k_stall_cycles compiled.Hls_sim.Kernel_sim.k_squashed
            (List.length compiled.Hls_sim.Kernel_sim.k_outputs);
          exit 1
        end;
        Printf.printf "%-14s %-12s %d outputs, %d iterations, %d cycles — engines agree\n" name
          pname
          (List.length compiled.Hls_sim.Kernel_sim.k_outputs)
          compiled.Hls_sim.Kernel_sim.k_iters compiled.Hls_sim.Kernel_sim.k_cycles)
      patterns
  in
  Cmd.v (Cmd.info "cosim" ~doc)
    Term.(
      const run $ design_arg $ ii_arg $ clock_arg $ latency_arg $ robust_term $ nest_arg
      $ iters_arg $ seed_arg)

let emit_cmd =
  let doc = "Generate Verilog for a scheduled design." in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run name ii clock latency out robust =
    guarded @@ fun () ->
    let r = flow_result ~ii ~clock ~latency ~trace:false ~robust name in
    let src = Hls_rtl.Verilog.emit r.Hls_flow.Flow.f_elab r.Hls_flow.Flow.f_sched r.Hls_flow.Flow.f_fold in
    (match Hls_rtl.Verilog.lint src with
    | [] -> ()
    | errs ->
        List.iter (fun m -> prerr_endline ("lint: " ^ m)) errs;
        exit 1);
    match out with
    | Some path ->
        let oc = open_out path in
        output_string oc src;
        close_out oc;
        Printf.printf "wrote %s (%d bytes)\n" path (String.length src)
    | None -> print_string src
  in
  Cmd.v (Cmd.info "emit" ~doc)
    Term.(const run $ design_arg $ ii_arg $ clock_arg $ latency_arg $ out_arg $ robust_term)

let explore_cmd =
  let doc =
    "Design-space exploration: sweep a parameter grid through the flow on a worker pool and \
     report the swept points, profiling and the area/delay Pareto front."
  in
  let grid_arg =
    Arg.(
      value
      & opt string "ii=none;latency=none;clock=1600"
      & info [ "grid" ] ~docv:"SPEC"
          ~doc:
            "Parameter grid, e.g. $(b,ii=none,2,4;latency=8..8,16;clock=1200,1600).  Dimensions \
             are semicolon-separated, values comma-separated; $(b,none) means sequential (for \
             ii) or designer bounds (for latency); a bare latency $(b,n) means $(b,n..n); an II \
             of the form $(b,AxB) (e.g. $(b,4x1)) requests per-dimension IIs for a loop nest, \
             outermost first.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker-pool size (capped at the machine's recommended domain count; results are \
             identical for every N).")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the sweep as JSON to $(docv).")
  in
  let explore_feedback_arg =
    Arg.(
      value & flag
      & info [ "feedback" ]
          ~doc:
            "Thread the engine's cross-point hint store through the sweep: the first point of \
             a design seeds the store with portable mined hints, every later point warm-starts \
             from that snapshot (results stay identical for every $(b,--jobs) count), and the \
             stats line reports how many points were hint-warmed.")
  in
  let run name grid_spec jobs json robust feedback =
    guarded @@ fun () ->
    let jobs =
      match Hls_dse.Dse.validate_jobs jobs with
      | Ok j -> j
      | Error d ->
          if robust.diag_json then prerr_endline (Hls_diag.Diag.to_json d)
          else prerr_endline ("hlsc: " ^ Hls_diag.Diag.to_string d);
          exit 1
    in
    Hls_core.Scheduler.set_jobs jobs;
    let design = or_die (load_design name) in
    let grid = or_die (Hls_dse.Dse.parse_grid grid_spec) in
    let options =
      {
        Hls_flow.Flow.default_options with
        verify = false;
        degrade = not robust.no_degrade;
        paranoid = robust.paranoid;
        feedback;
        sched =
          {
            Hls_core.Scheduler.default_options with
            max_passes =
              Option.value robust.max_passes
                ~default:Hls_core.Scheduler.default_options.Hls_core.Scheduler.max_passes;
            timeout_s = robust.timeout;
          };
      }
    in
    (match Hls_flow.Flow.check_budget options.Hls_flow.Flow.sched with
    | Ok () -> ()
    | Error d ->
        if robust.diag_json then prerr_endline (Hls_diag.Diag.to_json d)
        else prerr_endline ("hlsc: " ^ Hls_diag.Diag.to_string d);
        exit 1);
    let engine = Hls_dse.Dse.create () in
    let sw = Hls_dse.Dse.sweep ~jobs engine ~options design (Hls_dse.Dse.grid_points grid) in
    Hls_report.Table.print (Hls_dse.Dse.table sw.Hls_dse.Dse.sw_results);
    let pts = Hls_dse.Dse.pareto_points sw.Hls_dse.Dse.sw_results in
    (match Hls_report.Pareto.front pts with
    | [] -> print_endline "area/delay Pareto front: (no successful points)"
    | front ->
        Printf.printf "area/delay Pareto front: %s\n"
          (String.concat ", "
             (List.map
                (fun p -> Hls_dse.Dse.point_label p.Hls_report.Pareto.p_tag.Hls_dse.Dse.r_point)
                front)));
    print_endline (Hls_dse.Dse.stats_to_string (Hls_dse.Dse.stats sw));
    match json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Hls_dse.Dse.sweep_to_json sw);
        output_string oc "\n";
        close_out oc;
        Printf.printf "wrote %s\n" path
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run $ design_arg $ grid_arg $ jobs_arg $ json_arg $ robust_term
      $ explore_feedback_arg)

(* ---- compile service ---- *)

let socket_arg =
  Arg.(
    value
    & opt string Server.default_config.Server.socket
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket of the daemon (default hlsc.sock).")

let serve_cmd =
  let doc =
    "Run the compile-service daemon: a supervising acceptor process over a fleet of forked \
     worker processes (crash isolation), a shared in-memory artifact cache, and optionally a \
     crash-safe on-disk artifact store ($(b,--store-dir)).  Workers that crash, hang (missed \
     heartbeats) or blow a job's wall deadline are killed and respawned with backoff; their \
     jobs are re-queued or answered with typed $(b,worker_lost)/$(b,deadline_exceeded) errors. \
     SIGTERM drains gracefully: queued and in-flight jobs finish, the store index is flushed, \
     and the final stats line reports queued-vs-completed counts."
  in
  let tcp_arg =
    Arg.(
      value & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Also listen on 127.0.0.1:$(docv).")
  in
  let jobs_arg =
    Arg.(
      value & opt int Server.default_config.Server.workers
      & info [ "workers"; "jobs"; "j" ] ~docv:"N" ~doc:"Worker-process count (default 2).")
  in
  let capacity_arg =
    Arg.(
      value & opt int Server.default_config.Server.queue_capacity
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:
            "Admission bound: with $(docv) jobs queued but not started, fresh work is refused \
             with a typed, retryable $(b,overloaded) error; cache hits and coalesced submits \
             are still served (default 48, minimum 1).")
  in
  let store_arg =
    Arg.(
      value & opt (some string) None
      & info [ "store-dir" ] ~docv:"DIR"
          ~doc:
            "Persist compile artifacts in a content-addressed store under $(docv): results \
             survive daemon restarts, corrupt entries are quarantined, writes are atomic.")
  in
  let cache_cap_arg =
    Arg.(
      value & opt int Server.default_config.Server.cache_cap
      & info [ "cache-cap" ] ~docv:"N"
          ~doc:
            "In-memory artifact-cache entry bound (default 512, minimum 1); oldest entries \
             are evicted first, falling back to the store when one is configured.")
  in
  let deadline_arg =
    Arg.(
      value & opt float Server.default_config.Server.deadline_s
      & info [ "deadline" ] ~docv:"SEC"
          ~doc:
            "Default hard per-job wall deadline: the worker is killed and the job answered \
             with $(b,deadline_exceeded) (default 300; a submit's own deadline overrides).")
  in
  let hb_timeout_arg =
    Arg.(
      value & opt float Server.default_config.Server.hb_timeout_s
      & info [ "hb-timeout" ] ~docv:"SEC"
          ~doc:"Heartbeat staleness before a worker counts as wedged (default 2).")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "chaos-seed" ] ~docv:"N" ~doc:"Fault-injection RNG seed (testing only).")
  in
  let chaos_kill_arg =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-kill" ] ~docv:"P"
          ~doc:"Per-job probability of the worker dying before work (testing only).")
  in
  let chaos_stall_arg =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-stall" ] ~docv:"P"
          ~doc:"Per-job probability of the worker hanging silently (testing only).")
  in
  let chaos_corrupt_arg =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-corrupt" ] ~docv:"P"
          ~doc:"Per-compile probability of corrupting the stored artifact (testing only).")
  in
  let run socket tcp_port jobs queue_capacity store_dir cache_cap deadline hb_timeout
      cz_seed cz_kill cz_stall cz_corrupt verbose =
    guarded @@ fun () ->
    (* --deadline, --hb-timeout and --queue-capacity are checked by [Server.create] *)
    if jobs < 1 then or_die (Error "at least one worker process is required (--workers)");
    if cache_cap < 1 then or_die (Error "the cache needs room for at least one entry (--cache-cap)");
    let chaos =
      if cz_kill > 0.0 || cz_stall > 0.0 || cz_corrupt > 0.0 then
        Some { Hls_server.Worker.cz_seed; cz_kill; cz_stall; cz_corrupt }
      else None
    in
    or_die
      (Server.run
         {
           Server.default_config with
           Server.socket;
           tcp_port;
           workers = jobs;
           queue_capacity;
           store_dir;
           cache_cap;
           deadline_s = deadline;
           hb_timeout_s = hb_timeout;
           chaos;
           verbose;
         })
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log connection and job lifecycle to stderr.")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ tcp_arg $ jobs_arg $ capacity_arg $ store_arg
      $ cache_cap_arg $ deadline_arg $ hb_timeout_arg $ chaos_seed_arg $ chaos_kill_arg
      $ chaos_stall_arg $ chaos_corrupt_arg $ verbose_arg)

let cmd_of_name s =
  match Proto.cmd_of_string s with
  | Some c -> Ok c
  | None -> Error (Printf.sprintf "unknown command '%s' (expected schedule, pipeline or flow)" s)

let submit_cmd =
  let doc =
    "Submit a compile job to a running daemon and print the result — byte-identical on stdout \
     to the offline $(b,schedule)/$(b,pipeline)/$(b,flow) commands."
  in
  let cmd_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CMD" ~doc:"One of $(b,schedule), $(b,pipeline), $(b,flow).")
  in
  let design_pos1 =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DESIGN" ~doc:"Built-in design name or .bhv file.")
  in
  let max_passes_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-passes" ] ~docv:"N" ~doc:"Relaxation pass budget (default 200).")
  in
  let timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "timeout" ] ~docv:"SEC" ~doc:"Per-job wall-clock budget in seconds.")
  in
  let no_verify_arg =
    Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip RTL-vs-reference verification.")
  in
  let diag_json_arg =
    Arg.(
      value & flag
      & info [ "diag-json" ] ~doc:"On failure, print the diagnostic as a JSON object on stderr.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SEC"
          ~doc:
            "Hard per-job wall deadline: the daemon kills the worker and answers \
             $(b,deadline_exceeded) when it trips.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry up to $(docv) times with jittered exponential backoff on transport faults \
             and transient typed errors ($(b,worker_lost), $(b,overloaded)); \
             jobs are idempotent by fingerprint (default 0).")
  in
  let run cmdname name socket ii clock latency trace max_passes timeout deadline retries
      no_verify diag_json =
    guarded @@ fun () ->
    let cmd = or_die (cmd_of_name cmdname) in
    Option.iter (fun d -> ignore (or_die (Proto.positive_seconds "--deadline" d))) deadline;
    let ii, ii_dims = or_die (parse_ii ii) in
    (match ii_dims with
    | Some _ ->
        or_die (Error "per-dimension --ii (AxB) is not supported over the daemon protocol yet")
    | None -> ());
    let min_latency, max_latency = or_die (parse_latency latency) in
    let spec_design = or_die (Design_db.local_spec name) in
    let spec =
      Proto.job_spec ?ii ?min_latency ?max_latency ?max_passes ?timeout_s:timeout
        ?deadline_s:deadline ~verify:(not no_verify) ~trace ~clock_ps:clock cmd spec_design
    in
    let on_event ~level text = Printf.eprintf "[%s] %s\n%!" level text in
    let outcome =
      if retries > 0 then
        let connect () = Client.connect ~socket () in
        match Client.submit_retrying ~on_event ~retries ~connect spec with
        | Ok (o, _attempts) -> o
        | Error m ->
            prerr_endline ("hlsc: " ^ m);
            exit 1
      else begin
        let client = or_die (Client.connect ~socket ()) in
        let o = or_die (Client.submit ~on_event client spec) in
        Client.close client;
        o
      end
    in
    List.iter (fun n -> prerr_endline ("hlsc: " ^ n)) outcome.Proto.o_notes;
    match outcome.Proto.o_status with
    | Proto.S_ok -> print_string outcome.Proto.o_output
    | Proto.S_cancelled ->
        prerr_endline "hlsc: job cancelled";
        exit 1
    | Proto.S_error ->
        (match (diag_json, outcome.Proto.o_diag_json, outcome.Proto.o_diag) with
        | true, Some j, _ -> prerr_endline j
        | _, _, Some d -> prerr_endline ("hlsc: " ^ d)
        | _, Some j, None -> prerr_endline j
        | _ -> prerr_endline "hlsc: job failed");
        exit 1
  in
  Cmd.v (Cmd.info "submit" ~doc)
    Term.(
      const run $ cmd_arg $ design_pos1 $ socket_arg $ ii_arg $ clock_arg $ latency_arg
      $ trace_arg $ max_passes_arg $ timeout_arg $ deadline_arg $ retries_arg $ no_verify_arg
      $ diag_json_arg)

let stats_cmd =
  let doc = "Print a running daemon's metrics snapshot (queue, cache, scheduler counters)." in
  let run socket =
    guarded @@ fun () ->
    let client = or_die (Client.connect ~socket ()) in
    let j = or_die (Client.stats client) in
    Client.close client;
    print_endline (Proto.to_string j)
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ socket_arg)

let health_cmd =
  let doc =
    "Probe a running daemon's health: prints the supervision snapshot (per-worker liveness, \
     queue depths, store health) and exits 0 when every worker is alive, 1 when the daemon is \
     degraded or unreachable — suitable as a liveness/readiness check."
  in
  let run socket =
    guarded @@ fun () ->
    let client = or_die (Client.connect ~socket ()) in
    let j = or_die (Client.health client) in
    Client.close client;
    print_endline (Proto.to_string j);
    match Option.bind (Proto.member "status" j) Proto.get_string with
    | Some "ok" -> ()
    | _ -> exit 1
  in
  Cmd.v (Cmd.info "health" ~doc) Term.(const run $ socket_arg)

let bench_chaos_cmd =
  let doc =
    "Chaos acceptance run against a (fault-injected) daemon: submit distinct compiles through \
     the retrying client, verify every completed job byte-identical to the offline compiler, \
     and report retry/shed/recovery statistics.  Exits nonzero on any wrong bytes or if the \
     daemon died."
  in
  let requests_arg =
    Arg.(
      value & opt int 24 & info [ "requests" ] ~docv:"N" ~doc:"Distinct compiles (default 24).")
  in
  let design_opt_arg =
    Arg.(
      value & opt string "fir8"
      & info [ "design" ] ~docv:"NAME" ~doc:"Built-in design to compile (default fir8).")
  in
  let cmd_opt_arg =
    Arg.(
      value & opt string "schedule"
      & info [ "cmd" ] ~docv:"CMD" ~doc:"schedule, pipeline or flow (default schedule).")
  in
  let retries_arg =
    Arg.(
      value & opt int 6
      & info [ "retries" ] ~docv:"N" ~doc:"Client retry budget per request (default 6).")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the result as JSON to $(docv).")
  in
  let run socket requests design cmdname retries json =
    guarded @@ fun () ->
    let cmd = or_die (cmd_of_name cmdname) in
    let design_ast = or_die (load_design design) in
    let spec_of i =
      Proto.job_spec ~verify:false ~clock_ps:(1600.0 +. float_of_int i) cmd (`Builtin design)
    in
    (* ground truth: the offline flow through the same render path the
       worker uses — byte-identity is the acceptance criterion *)
    let expected spec =
      let options = Hls_server.Artifact.options_of_spec spec in
      match Hls_flow.Flow.run ~options design_ast with
      | Ok r -> Some (Render.output cmd r)
      | Error _ -> None
    in
    let ok = ref 0 and wrong = ref 0 and typed = ref 0 and hard = ref 0 in
    let attempts_total = ref 0 and retried_jobs = ref 0 in
    let recovery = ref [] in
    let codes = Hashtbl.create 4 in
    for i = 0 to requests - 1 do
      let spec = spec_of i in
      let t0 = Unix.gettimeofday () in
      match
        Client.submit_retrying ~retries ~seed:i ~connect:(fun () -> Client.connect ~socket ())
          spec
      with
      | Ok (o, attempts) -> (
          attempts_total := !attempts_total + attempts;
          if attempts > 1 then begin
            incr retried_jobs;
            recovery := (Unix.gettimeofday () -. t0) :: !recovery
          end;
          match o.Proto.o_status with
          | Proto.S_ok -> (
              match expected spec with
              | Some want when want = o.Proto.o_output -> incr ok
              | Some _ ->
                  incr wrong;
                  Printf.eprintf "hlsc bench-chaos: WRONG BYTES for request %d\n%!" i
              | None ->
                  (* offline failed but daemon succeeded: count as wrong *)
                  incr wrong)
          | Proto.S_error ->
              incr typed;
              let c = Option.value o.Proto.o_code ~default:"unknown" in
              Hashtbl.replace codes c (1 + Option.value (Hashtbl.find_opt codes c) ~default:0)
          | Proto.S_cancelled -> incr typed)
      | Error m ->
          incr hard;
          Printf.eprintf "hlsc bench-chaos: request %d failed hard: %s\n%!" i m
    done;
    let daemon_alive, shed, crashes, respawns =
      match Client.connect ~socket () with
      | Error _ -> (false, -1, -1, -1)
      | Ok c ->
          let stat = Client.stats c in
          Client.close c;
          let geti path j =
            match path with
            | [ a; b ] ->
                Option.value
                  (Option.bind (Proto.member a j) (fun o ->
                       Option.bind (Proto.member b o) Proto.get_int))
                  ~default:(-1)
            | _ -> -1
          in
          (match stat with
          | Ok j ->
              (true, geti [ "jobs"; "shed" ] j, geti [ "supervisor"; "crashes" ] j,
               geti [ "supervisor"; "respawns" ] j)
          | Error _ -> (false, -1, -1, -1))
    in
    let recovery_arr = Array.of_list !recovery in
    Array.sort compare recovery_arr;
    let pct p =
      match Array.length recovery_arr with
      | 0 -> 0.0
      | n -> recovery_arr.(min (n - 1) (int_of_float (p *. float_of_int n))) *. 1000.0
    in
    let retry_rate = float_of_int !retried_jobs /. float_of_int (max 1 requests) in
    Printf.printf
      "chaos: %d request(s): %d ok (byte-identical), %d wrong-byte, %d typed failure(s), %d \
       hard error(s); %d attempt(s) total, %d job(s) retried (rate %.2f), recovery p50 %.0f ms \
       max %.0f ms; daemon %s, %d shed, %d crash(es), %d respawn(s)\n"
      requests !ok !wrong !typed !hard !attempts_total !retried_jobs retry_rate (pct 0.5)
      (pct 1.0)
      (if daemon_alive then "alive" else "DEAD")
      shed crashes respawns;
    Hashtbl.iter (fun c n -> Printf.printf "chaos: typed failure %s: %d\n" c n) codes;
    (match json with
    | None -> ()
    | Some path ->
        let code_fields =
          Hashtbl.fold (fun c n acc -> (c, Proto.Int n) :: acc) codes []
        in
        let j =
          Proto.Obj
            [
              ("requests", Proto.Int requests);
              ("ok_byte_identical", Proto.Int !ok);
              ("wrong_bytes", Proto.Int !wrong);
              ("typed_failures", Proto.Obj code_fields);
              ("typed_failures_total", Proto.Int !typed);
              ("hard_errors", Proto.Int !hard);
              ("attempts_total", Proto.Int !attempts_total);
              ("jobs_retried", Proto.Int !retried_jobs);
              ("retry_rate", Proto.Float retry_rate);
              ("recovery_p50_ms", Proto.Float (pct 0.5));
              ("recovery_max_ms", Proto.Float (pct 1.0));
              ("daemon_alive", Proto.Bool daemon_alive);
              ("shed", Proto.Int shed);
              ("crashes", Proto.Int crashes);
              ("respawns", Proto.Int respawns);
            ]
        in
        let oc = open_out path in
        output_string oc (Proto.to_string j);
        output_string oc "\n";
        close_out oc;
        Printf.printf "wrote %s\n" path);
    if !wrong > 0 || !hard > 0 || not daemon_alive then exit 1
  in
  Cmd.v (Cmd.info "bench-chaos" ~doc)
    Term.(
      const run $ socket_arg $ requests_arg $ design_opt_arg $ cmd_opt_arg $ retries_arg
      $ json_arg)

let version_cmd =
  let doc = "Print the binary and wire-protocol versions." in
  Cmd.v (Cmd.info "version" ~doc)
    Term.(
      const (fun () ->
          Printf.printf "hlsc %s (wire protocol %d)\n" Proto.binary_version Proto.version)
      $ const ())

let () =
  let doc = "performance-constrained pipelining HLS flow (Kondratyev et al., DATE'11 reproduction)" in
  let version = Printf.sprintf "%s (wire protocol %d)" Proto.binary_version Proto.version in
  let info = Cmd.info "hlsc" ~version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            designs_cmd; compile_cmd; schedule_cmd; pipeline_cmd; flow_cmd; fuzz_cmd; cosim_cmd;
            emit_cmd; explore_cmd;
            serve_cmd; submit_cmd; stats_cmd; health_cmd; bench_chaos_cmd;
            version_cmd;
          ]))
