(** Test entry point: aggregates every suite.  Run with [dune runtest]. *)

let () =
  Alcotest.run "hlspipe"
    [
      ("width", Test_width.suite);
      ("guard", Test_guard.suite);
      ("graph_algo", Test_graph_algo.suite);
      ("dfg", Test_dfg.suite);
      ("techlib", Test_techlib.suite);
      ("frontend", Test_frontend.suite);
      ("elaborate", Test_elaborate.suite);
      ("binding", Test_binding.suite);
      ("scheduler", Test_scheduler.suite);
      ("expert", Test_expert.suite);
      ("alloc", Test_alloc.suite);
      ("timing", Test_timing.suite);
      ("pipeline", Test_pipeline.suite);
      ("sim", Test_sim.suite);
      ("rtl", Test_rtl.suite);
      ("baseline", Test_baseline.suite);
      ("report", Test_report.suite);
      ("parser", Test_parser.suite);
      ("flow", Test_flow.suite);
      ("region", Test_region.suite);
      ("opkind", Test_opkind.suite);
      ("asap_alap", Test_asap_alap.suite);
      ("extensions", Test_extensions.suite);
      ("sched_props", Test_sched_props.suite);
      ("kernel_sim", Test_kernel_sim.suite);
      ("nest", Test_nest.suite);
      ("faults", Test_faults.suite);
      ("netlist", Test_netlist.suite);
      ("store", Test_store.suite);
      (* the server/chaos suites fork worker processes, and OCaml forbids
         [Unix.fork] while other domains run.  The process-wide domain
         pool behind [Hls_pool.Pool.map] lives until exit once spawned,
         so every suite that maps with more than one job (sched_perf's
         --jobs property, dse, pool, feedback) runs after them.
         fork_first checks that a jobs=1 map or sweep spawns nothing. *)
      ("fork_first", Test_pool.fork_suite);
      ("server", Test_server.suite);
      ("chaos", Test_chaos.suite);
      ("sched_perf", Test_sched_perf.suite);
      ("dse", Test_dse.suite);
      ("pool", Test_pool.suite);
      ("feedback", Test_feedback.suite);
    ]
