(** The design-space exploration engine: determinism across worker-pool
    sizes, memoization (no re-scheduling of swept points), and the Pareto
    front's dominance over the swept set. *)

module Dse = Hls_dse.Dse
module Flow = Hls_flow.Flow

let base_options = { Flow.default_options with Flow.verify = false }

let example1_points () =
  Dse.grid_points
    (Dse.grid ~iis:[ Dse.Seq; Dse.Flat 2 ] ~latencies:[ (Some 3, Some 4) ]
       ~clocks:[ 1600.0; 2000.0 ] ())

let design () = Hls_designs.Example1.design ()

(** Everything observable about a result except wall-clock times and cache
    provenance — the fields required to be identical across pool sizes. *)
let signature (r : Dse.result) =
  let pr = r.Dse.r_profile in
  Printf.sprintf "%s | %s | passes=%d actions=%d queries=%d" (Dse.point_label r.Dse.r_point)
    (match r.Dse.r_flow with
    | Ok f -> Flow.summary f
    | Error d -> "error: " ^ Hls_diag.Diag.to_string d)
    pr.pr_passes pr.pr_actions pr.pr_queries

let test_determinism_across_jobs () =
  let pts = example1_points () in
  let sw1 = Dse.sweep ~jobs:1 (Dse.create ()) ~options:base_options (design ()) pts in
  (* max_workers lifted so the domain pool genuinely runs multi-domain
     even on a single-core host *)
  let engine4 = Dse.create () in
  let sw4 = Dse.sweep ~jobs:4 ~max_workers:4 engine4 ~options:base_options (design ()) pts in
  Alcotest.(check int) "parallel pool actually used" 4 sw4.Dse.sw_jobs;
  Alcotest.(check (list string))
    "jobs=4 point results byte-identical to jobs=1"
    (List.map signature sw1.Dse.sw_results)
    (List.map signature sw4.Dse.sw_results)

let test_cache_hits () =
  let pts = example1_points () in
  let engine = Dse.create () in
  let sw1 = Dse.sweep ~jobs:1 engine ~options:base_options (design ()) pts in
  Alcotest.(check int) "first sweep runs every point" (List.length pts) sw1.Dse.sw_new_runs;
  let runs_after_first = Dse.runs_performed engine in
  let sw2 = Dse.sweep ~jobs:1 engine ~options:base_options (design ()) pts in
  Alcotest.(check int) "second sweep performs zero new runs" 0 sw2.Dse.sw_new_runs;
  Alcotest.(check int) "second sweep is all cache hits" (List.length pts) sw2.Dse.sw_cache_hits;
  Alcotest.(check int) "engine run counter unchanged" runs_after_first (Dse.runs_performed engine);
  Alcotest.(check bool) "every result marked cached" true
    (List.for_all (fun r -> r.Dse.r_profile.Dse.pr_cached) sw2.Dse.sw_results);
  Alcotest.(check (list string)) "cached results identical to fresh ones"
    (List.map signature sw1.Dse.sw_results)
    (List.map signature sw2.Dse.sw_results)

let test_overlapping_sweep () =
  let pts = example1_points () in
  let engine = Dse.create () in
  ignore (Dse.sweep engine ~options:base_options (design ()) pts);
  (* a sweep overlapping the first only schedules the genuinely new point *)
  let extra = Dse.point ~ii:3 ~min_latency:4 ~max_latency:4 ~clock_ps:1600.0 () in
  let sw = Dse.sweep engine ~options:base_options (design ()) (extra :: pts) in
  Alcotest.(check int) "only the new point runs" 1 sw.Dse.sw_new_runs;
  (* duplicate points inside one sweep are scheduled once *)
  let engine2 = Dse.create () in
  let sw2 = Dse.sweep engine2 ~options:base_options (design ()) (pts @ pts) in
  Alcotest.(check int) "duplicates deduplicated" (List.length pts) sw2.Dse.sw_new_runs;
  Alcotest.(check int) "all duplicates served" (2 * List.length pts)
    (List.length sw2.Dse.sw_results)

let test_grid_parse () =
  match Dse.parse_grid "ii=none,2;latency=3..4,8;clock=1600,2000" with
  | Error m -> Alcotest.fail m
  | Ok g ->
      Alcotest.(check int) "8 points" 8 (List.length (Dse.grid_points g));
      Alcotest.(check bool) "latency shorthand n means n..n" true
        (List.mem (Some 8, Some 8) g.Dse.g_latencies);
      (match Dse.parse_grid "ii=0" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "ii=0 must be rejected");
      (match Dse.parse_grid "volt=1.2" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unknown dimension must be rejected");
      (* per-dimension II specs for loop nests *)
      (match Dse.parse_grid "ii=4x1,2" with
      | Error m -> Alcotest.fail m
      | Ok g ->
          Alcotest.(check (list string))
            "AxB parses to a per-dimension spec" [ "ii=4x1"; "ii=2" ]
            (List.map Dse.ii_label g.Dse.g_iis));
      (match Dse.parse_grid "ii=4x" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "ii=4x must be rejected");
      (match Dse.parse_grid "ii=4x0" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "ii=4x0 must be rejected")

(* a small pool of candidate points; QCheck picks subsets by bitmask.  The
   shared engine makes repeated selections cache hits, so 30 iterations
   stay cheap. *)
let prop_front_dominates_sweep =
  let pool =
    Dse.grid_points
      (Dse.grid ~iis:[ Dse.Seq; Dse.Flat 2; Dse.Flat 3 ] ~latencies:[ (Some 3, Some 4) ]
         ~clocks:[ 1600.0; 2000.0 ] ())
    |> Array.of_list
  in
  let engine = Dse.create () in
  let d = design () in
  QCheck.Test.make ~name:"reported Pareto front dominates every swept point" ~count:30
    QCheck.(int_range 1 ((1 lsl Array.length pool) - 1))
    (fun mask ->
      let pts =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list pool)
      in
      let sw = Dse.sweep ~jobs:2 ~max_workers:2 engine ~options:base_options d pts in
      let swept = Dse.pareto_points sw.Dse.sw_results in
      let front = Hls_report.Pareto.front swept in
      List.for_all
        (fun p ->
          List.exists
            (fun f ->
              f.Hls_report.Pareto.p_x <= p.Hls_report.Pareto.p_x
              && f.Hls_report.Pareto.p_y <= p.Hls_report.Pareto.p_y)
            front)
        swept)

(* [--jobs 0] and negative counts are user errors, not something to clamp
   silently: the driver surfaces a typed Explore-phase diagnostic. *)
let test_validate_jobs () =
  let check_bad n =
    match Dse.validate_jobs n with
    | Ok _ -> Alcotest.failf "jobs=%d accepted" n
    | Error d ->
        Alcotest.(check string) "code" "bad_jobs" d.Hls_diag.Diag.d_code;
        Alcotest.(check bool) "phase" true (d.Hls_diag.Diag.d_phase = Hls_diag.Diag.Explore)
  in
  check_bad 0;
  check_bad (-3);
  List.iter
    (fun n ->
      match Dse.validate_jobs n with
      | Ok m -> Alcotest.(check int) "passes through" n m
      | Error _ -> Alcotest.failf "jobs=%d rejected" n)
    [ 1; 4 ]

(* [Dse.shutdown] drops the memo cache: a later sweep on the same engine
   runs every point again, with the same results. *)
let test_engine_shutdown_drops_cache () =
  let engine = Dse.create () in
  let pts = example1_points () in
  let s1 = Dse.sweep ~jobs:2 ~max_workers:2 engine ~options:base_options (design ()) pts in
  Dse.shutdown engine;
  let s2 = Dse.sweep ~jobs:2 ~max_workers:2 engine ~options:base_options (design ()) pts in
  Dse.shutdown engine;
  Alcotest.(check int) "every point runs fresh after shutdown" (List.length pts) s2.Dse.sw_new_runs;
  Alcotest.(check int) "no cache hit after shutdown" 0 s2.Dse.sw_cache_hits;
  Alcotest.(check int) "engine ran every point twice" (2 * List.length pts)
    (Dse.runs_performed engine);
  Alcotest.(check (list string)) "fresh results equal the first sweep's"
    (List.map signature s1.Dse.sw_results)
    (List.map signature s2.Dse.sw_results)

let suite =
  [
    Alcotest.test_case "determinism across worker counts" `Quick test_determinism_across_jobs;
    Alcotest.test_case "engine pool rebuild after shutdown" `Quick test_engine_shutdown_drops_cache;
    Alcotest.test_case "--jobs validation" `Quick test_validate_jobs;
    Alcotest.test_case "memo cache: zero re-runs" `Quick test_cache_hits;
    Alcotest.test_case "overlapping and duplicated sweeps" `Quick test_overlapping_sweep;
    Alcotest.test_case "grid parsing" `Quick test_grid_parse;
    QCheck_alcotest.to_alcotest prop_front_dominates_sweep;
  ]
