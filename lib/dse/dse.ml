(** Parallel design-space exploration engine.  See the interface for the
    contract; the implementation notes here cover the two load-bearing
    choices.

    {b Parallelism.}  Every grid point is an independent [Flow.run]
    (each elaborates its own graph, and the flow touches no global mutable
    state), so the sweep is one {!Hls_pool.Pool.map} over the points
    still to run.  The map returns results in index order, so the result
    list is independent of the worker count and of scheduling
    interleavings.

    {b Memoization.}  The cache key is two-level: one digest of the
    marshalled (design, point-neutralized options) pair per {e sweep} (the
    base fingerprint — both are pure data, so the digest is a stable
    description of everything outside the grid), paired with the point
    itself under structural equality.  A sweep therefore marshals the
    design once, not once per point.  The cache is read and written only
    by the spawning domain (workers see a pre-deduplicated work list),
    which keeps the memoization lock-free.  The engine owns no domains:
    the pool is process-wide, so an engine is garbage once unreachable. *)

module Flow = Hls_flow.Flow
module Diag = Hls_diag.Diag
module Feedback = Hls_feedback.Feedback

(* ------------------------------------------------------------------ *)
(* Grid *)

(** An initiation-interval request: sequential, one flat II, or a
    per-dimension vector for a loop nest (outermost first, e.g.
    [Dims [4; 1]] = outer initiation every 4 cycles, inner every 1). *)
type ii_spec = Seq | Flat of int | Dims of int list

let ii_label = function
  | Seq -> "seq"
  | Flat ii -> Printf.sprintf "ii=%d" ii
  | Dims ds -> Printf.sprintf "ii=%s" (String.concat "x" (List.map string_of_int ds))

type point = {
  pt_ii : ii_spec;
  pt_min_latency : int option;
  pt_max_latency : int option;
  pt_clock_ps : float;
}

let point ?ii ?ii_dims ?min_latency ?max_latency ~clock_ps () =
  let pt_ii =
    match (ii_dims, ii) with
    | Some ds, _ -> Dims ds
    | None, Some ii -> Flat ii
    | None, None -> Seq
  in
  { pt_ii; pt_min_latency = min_latency; pt_max_latency = max_latency; pt_clock_ps = clock_ps }

let point_label p =
  let lat =
    match (p.pt_min_latency, p.pt_max_latency) with
    | None, None -> "auto"
    | lo, hi ->
        let s = function None -> "_" | Some v -> string_of_int v in
        s lo ^ ".." ^ s hi
  in
  Printf.sprintf "%s lat=%s clk=%.0f" (ii_label p.pt_ii) lat p.pt_clock_ps

type grid = {
  g_iis : ii_spec list;
  g_latencies : (int option * int option) list;
  g_clocks : float list;
}

let grid ?(iis = [ Seq ]) ?(latencies = [ (None, None) ]) ?(clocks = [ 1600.0 ]) () =
  { g_iis = iis; g_latencies = latencies; g_clocks = clocks }

let grid_points g =
  List.concat_map
    (fun ii ->
      List.concat_map
        (fun (lo, hi) ->
          List.map
            (fun clk ->
              { pt_ii = ii; pt_min_latency = lo; pt_max_latency = hi; pt_clock_ps = clk })
            g.g_clocks)
        g.g_latencies)
    g.g_iis

let split_on_string ~sep s =
  (* only single-char separators needed *)
  String.split_on_char sep s |> List.map String.trim |> List.filter (fun x -> x <> "")

let parse_grid spec =
  let ( let* ) r f = match r with Error e -> Error e | Ok x -> f x in
  let parse_int what s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | _ -> Error (Printf.sprintf "bad %s value '%s' (expected a positive integer)" what s)
  in
  let parse_ii s =
    if s = "none" then Ok Seq
    else
      match String.index_opt s 'x' with
      | None -> Result.map (fun ii -> Flat ii) (parse_int "ii" s)
      | Some _ -> (
          let parts = String.split_on_char 'x' s |> List.map String.trim in
          if List.exists (fun p -> p = "") parts || List.length parts < 2 then
            Error (Printf.sprintf "bad ii value '%s' (expected N or AxB per-dimension spec)" s)
          else
            let rec all = function
              | [] -> Ok []
              | p :: ps -> (
                  match int_of_string_opt p with
                  | Some v when v >= 1 -> (
                      match all ps with Ok vs -> Ok (v :: vs) | Error e -> Error e)
                  | _ ->
                      Error
                        (Printf.sprintf "bad ii value '%s' (each dimension must be a positive integer)" s))
            in
            match all parts with Ok ds -> Ok (Dims ds) | Error e -> Error e)
  in
  let parse_latency s =
    if s = "none" then Ok (None, None)
    else
      match String.index_opt s '.' with
      | Some i when i + 1 < String.length s && s.[i + 1] = '.' ->
          let* lo = parse_int "latency" (String.sub s 0 i) in
          let* hi = parse_int "latency" (String.sub s (i + 2) (String.length s - i - 2)) in
          if lo > hi then Error (Printf.sprintf "empty latency range '%s'" s)
          else Ok (Some lo, Some hi)
      | _ ->
          let* n = parse_int "latency" s in
          Ok (Some n, Some n)
  in
  let parse_clock s =
    match float_of_string_opt s with
    | Some v when v > 0.0 -> Ok v
    | _ -> Error (Printf.sprintf "bad clock value '%s' (expected a positive number)" s)
  in
  let rec map_m f = function
    | [] -> Ok []
    | x :: xs ->
        let* y = f x in
        let* ys = map_m f xs in
        Ok (y :: ys)
  in
  let parse_dim acc dim =
    match String.index_opt dim '=' with
    | None -> Error (Printf.sprintf "bad grid dimension '%s' (expected key=v1,v2,...)" dim)
    | Some i -> (
        let key = String.trim (String.sub dim 0 i) in
        let vals = split_on_string ~sep:',' (String.sub dim (i + 1) (String.length dim - i - 1)) in
        if vals = [] then Error (Printf.sprintf "empty value list for '%s'" key)
        else
          match key with
          | "ii" ->
              let* iis = map_m parse_ii vals in
              Ok { acc with g_iis = iis }
          | "latency" | "lat" ->
              let* ls = map_m parse_latency vals in
              Ok { acc with g_latencies = ls }
          | "clock" | "clk" ->
              let* cs = map_m parse_clock vals in
              Ok { acc with g_clocks = cs }
          | _ -> Error (Printf.sprintf "unknown grid dimension '%s' (ii, latency, clock)" key))
  in
  List.fold_left
    (fun acc dim ->
      let* g = acc in
      parse_dim g dim)
    (Ok (grid ()))
    (split_on_string ~sep:';' spec)

(* ------------------------------------------------------------------ *)
(* Results *)

type profile = {
  pr_wall_s : float;
  pr_passes : int;
  pr_actions : int;
  pr_queries : int;
  pr_warm_passes : int;
  pr_cold_passes : int;
  pr_hints : int;
  pr_cached : bool;
}

type result = {
  r_point : point;
  r_flow : (Flow.t, Diag.t) Stdlib.result;
  r_profile : profile;
}

type sweep = {
  sw_results : result list;
  sw_wall_s : float;
  sw_jobs : int;
  sw_new_runs : int;
  sw_cache_hits : int;
  sw_hint_reuse : int;
      (** fresh runs that warm-started from the cross-point hint store *)
  sw_hints_extracted : int;
      (** distinct new hints this sweep mined into the store *)
}

(* ------------------------------------------------------------------ *)
(* Engine *)

type t = {
  cache : (string * point, (Flow.t, Diag.t) Stdlib.result * profile) Hashtbl.t;
      (** keyed by (base fingerprint, point) — see the module comment *)
  hints : (string, Feedback.Hints.t) Hashtbl.t;
      (** cross-point hint store, keyed by the hint-neutral design
          fingerprint; read and written only by the spawning domain *)
  mutable runs : int;
}

let create () = { cache = Hashtbl.create 64; hints = Hashtbl.create 8; runs = 0 }

let shutdown t =
  Hashtbl.reset t.cache;
  Hashtbl.reset t.hints

let runs_performed t = t.runs

let options_of ~(options : Flow.options) p =
  {
    options with
    Flow.ii = (match p.pt_ii with Flat ii -> Some ii | Seq | Dims _ -> None);
    ii_dims = (match p.pt_ii with Dims ds -> Some ds | Seq | Flat _ -> None);
    min_latency = p.pt_min_latency;
    max_latency = p.pt_max_latency;
    clock_ps = p.pt_clock_ps;
  }

(* the per-sweep half of the cache key: everything that can influence a
   run except the swept point itself (design and options are pure data,
   so the marshalled bytes are a complete, stable description).  The four point-carried fields are
   pinned to fixed values so the digest is point-independent — the point
   joins the key structurally, sparing one Marshal+Digest per point. *)
let base_fingerprint ~(options : Flow.options) (design : Hls_frontend.Ast.design) =
  let neutral =
    { options with Flow.ii = None; min_latency = None; max_latency = None; clock_ps = 0.0 }
  in
  Digest.to_hex (Digest.string (Marshal.to_string (design, neutral) []))

(* the hint store's key: like the base fingerprint, but additionally
   neutral in everything the feedback machinery itself varies — so the
   seed run (no warm hints) and the warm-started runs of one design all
   read and write the same store entry *)
let hint_store_key ~(options : Flow.options) design =
  base_fingerprint
    ~options:{ options with Flow.feedback = false; feedback_iters = 0; hints = Feedback.Hints.empty }
    design

let run_point ~options design p : (Flow.t, Diag.t) Stdlib.result * profile =
  let t0 = Unix.gettimeofday () in
  let r = Flow.run ~options:(options_of ~options p) design in
  let wall = Unix.gettimeofday () -. t0 in
  let profile =
    match r with
    | Ok f ->
        let st = f.Flow.f_stats in
        {
          pr_wall_s = wall;
          pr_passes = st.Hls_core.Scheduler.st_passes;
          pr_actions = st.Hls_core.Scheduler.st_actions;
          pr_queries = st.Hls_core.Scheduler.st_queries;
          pr_warm_passes = st.Hls_core.Scheduler.st_warm_passes;
          pr_cold_passes = st.Hls_core.Scheduler.st_cold_passes;
          pr_hints = st.Hls_core.Scheduler.st_hints;
          pr_cached = false;
        }
    | Error d ->
        { pr_wall_s = wall; pr_passes = d.Diag.d_passes; pr_actions = 0; pr_queries = 0;
          pr_warm_passes = 0; pr_cold_passes = d.Diag.d_passes; pr_hints = 0; pr_cached = false }
  in
  (r, profile)

let validate_jobs jobs =
  if jobs < 1 then
    Diag.error ~phase:Diag.Explore ~code:"bad_jobs"
      "--jobs must be a positive worker count, got %d" jobs
  else Ok jobs

(* one memoized batch run of [points] under a single effective [options];
   the public [sweep] composes these (a plain sweep is one batch, a
   feedback sweep is a seed batch plus a warm-started batch) *)
let sweep_batch ?(jobs = 1) ?max_workers t ~options design points =
  let max_workers =
    match max_workers with Some m -> max 1 m | None -> Domain.recommended_domain_count ()
  in
  let t0 = Unix.gettimeofday () in
  let pts = Array.of_list points in
  (* one Marshal+Digest for the whole sweep; each point keys structurally *)
  let base = base_fingerprint ~options design in
  let keys = Array.map (fun p -> (base, p)) pts in
  (* unique uncached keys, in first-occurrence order *)
  let owner = Hashtbl.create 16 in
  let todo = ref [] in
  Array.iteri
    (fun i key ->
      if not (Hashtbl.mem t.cache key) && not (Hashtbl.mem owner key) then begin
        Hashtbl.replace owner key ();
        todo := (key, pts.(i)) :: !todo
      end)
    keys;
  let todo = Array.of_list (List.rev !todo) in
  let n = Array.length todo in
  let workers = max 1 (min jobs (min n max_workers)) in
  let out = Hls_pool.Pool.map ~jobs:workers (fun (_, p) -> run_point ~options design p) todo in
  Array.iteri (fun i (key, _) -> Hashtbl.replace t.cache key out.(i)) todo;
  t.runs <- t.runs + n;
  (* assemble in input order; the first occurrence of a fresh key reports
     the live profile, every other occurrence is cache-served *)
  let fresh = Hashtbl.create 16 in
  Array.iteri (fun _ (key, _) -> Hashtbl.replace fresh key ()) todo;
  let results =
    Array.to_list
      (Array.mapi
         (fun i key ->
           let flow, profile = Hashtbl.find t.cache key in
           let cached = not (Hashtbl.mem fresh key) in
           if not cached then Hashtbl.remove fresh key;
           { r_point = pts.(i); r_flow = flow; r_profile = { profile with pr_cached = cached } })
         keys)
  in
  {
    sw_results = results;
    sw_wall_s = Unix.gettimeofday () -. t0;
    sw_jobs = workers;
    sw_new_runs = n;
    sw_cache_hits = Array.length keys - n;
    sw_hint_reuse = 0;
    sw_hints_extracted = 0;
  }

(* portable hints mined from a batch's fresh successful results, merged in
   input order (the merge is commutative, so the order is cosmetic — what
   matters for [--jobs]-invariance is that mining happens on the spawning
   domain, after the batch, from results that are themselves
   deterministic) *)
let mine_batch (sw : sweep) =
  List.fold_left
    (fun acc r ->
      match r.r_flow with
      | Ok f when not r.r_profile.pr_cached ->
          Feedback.Hints.merge acc (Feedback.Hints.portable (Feedback.extract f.Hls_flow.Flow.f_sched))
      | Ok _ | Error _ -> acc)
    Feedback.Hints.empty sw.sw_results

let sweep ?(jobs = 1) ?max_workers t ~options design points =
  if not options.Flow.feedback then sweep_batch ~jobs ?max_workers t ~options design points
  else begin
    (* Cross-point learning, [--jobs]-invariant by construction: when the
       store has nothing for this design yet, the first point runs alone
       (sequentially) to seed it; every remaining point then runs against
       that one frozen snapshot, so no point's hints depend on which
       worker finished first.  All fresh results are mined back into the
       store after the batch, in input order, on the spawning domain. *)
    let t0 = Unix.gettimeofday () in
    let key = hint_store_key ~options design in
    let snapshot0 =
      Option.value (Hashtbl.find_opt t.hints key) ~default:Feedback.Hints.empty
    in
    let seed_sw, rest, snapshot =
      if not (Feedback.Hints.is_empty snapshot0) then (None, points, snapshot0)
      else
        match points with
        | [] -> (None, [], snapshot0)
        | p0 :: rest ->
            let sw0 = sweep_batch ~jobs:1 ?max_workers t ~options design [ p0 ] in
            (Some sw0, rest, Feedback.Hints.merge snapshot0 (mine_batch sw0))
    in
    let warm_options =
      if Feedback.Hints.is_empty snapshot then options
      else { options with Flow.hints = Feedback.Hints.merge options.Flow.hints snapshot }
    in
    let rest_sw =
      if rest = [] then None
      else Some (sweep_batch ~jobs ?max_workers t ~options:warm_options design rest)
    in
    let final =
      List.fold_left Feedback.Hints.merge snapshot
        (List.filter_map (Option.map mine_batch) [ seed_sw; rest_sw ])
    in
    Hashtbl.replace t.hints key final;
    let part f d = function Some sw -> f sw | None -> d in
    let results = part (fun s -> s.sw_results) [] seed_sw @ part (fun s -> s.sw_results) [] rest_sw in
    let reused =
      if Feedback.Hints.is_empty snapshot then 0
      else part (fun s -> s.sw_new_runs) 0 rest_sw
    in
    {
      sw_results = results;
      sw_wall_s = Unix.gettimeofday () -. t0;
      sw_jobs =
        (match rest_sw with Some s -> s.sw_jobs | None -> part (fun s -> s.sw_jobs) 1 seed_sw);
      sw_new_runs = part (fun s -> s.sw_new_runs) 0 seed_sw + part (fun s -> s.sw_new_runs) 0 rest_sw;
      sw_cache_hits =
        part (fun s -> s.sw_cache_hits) 0 seed_sw + part (fun s -> s.sw_cache_hits) 0 rest_sw;
      sw_hint_reuse = reused;
      sw_hints_extracted = Feedback.Hints.size final - Feedback.Hints.size snapshot0;
    }
  end

(* ------------------------------------------------------------------ *)
(* Reporting *)

type stats = {
  s_points : int;
  s_ok : int;
  s_failed : int;
  s_cache_hits : int;
  s_new_runs : int;
  s_jobs : int;
  s_wall_s : float;
  s_points_per_s : float;
  s_cpu_s : float;
  s_passes : int;
  s_actions : int;
  s_queries : int;
  s_warm_passes : int;
  s_cold_passes : int;
  s_hints : int;
  s_hint_reuse : int;
  s_hints_extracted : int;
}

let stats sw =
  let rs = sw.sw_results in
  let count f = List.length (List.filter f rs) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  {
    s_points = List.length rs;
    s_ok = count (fun r -> Result.is_ok r.r_flow);
    s_failed = count (fun r -> Result.is_error r.r_flow);
    s_cache_hits = sw.sw_cache_hits;
    s_new_runs = sw.sw_new_runs;
    s_jobs = sw.sw_jobs;
    s_wall_s = sw.sw_wall_s;
    s_points_per_s =
      (if sw.sw_wall_s > 0.0 then float_of_int (List.length rs) /. sw.sw_wall_s else 0.0);
    s_cpu_s =
      List.fold_left
        (fun acc r -> if r.r_profile.pr_cached then acc else acc +. r.r_profile.pr_wall_s)
        0.0 rs;
    s_passes = sum (fun r -> r.r_profile.pr_passes);
    s_actions = sum (fun r -> r.r_profile.pr_actions);
    s_queries = sum (fun r -> r.r_profile.pr_queries);
    s_warm_passes = sum (fun r -> r.r_profile.pr_warm_passes);
    s_cold_passes = sum (fun r -> r.r_profile.pr_cold_passes);
    s_hints = sum (fun r -> r.r_profile.pr_hints);
    s_hint_reuse = sw.sw_hint_reuse;
    s_hints_extracted = sw.sw_hints_extracted;
  }

let stats_to_string s =
  Printf.sprintf
    "%d point(s): %d ok, %d failed; %d fresh run(s), %d cache hit(s); %d job(s), %.2fs wall \
     (%.1f points/s, %.2fs cpu); %d pass(es), %d action(s), %d timing queries%s"
    s.s_points s.s_ok s.s_failed s.s_new_runs s.s_cache_hits s.s_jobs s.s_wall_s s.s_points_per_s
    s.s_cpu_s s.s_passes s.s_actions s.s_queries
    (if s.s_hint_reuse > 0 || s.s_hints_extracted > 0 then
       Printf.sprintf "; feedback: %d point(s) hint-warmed, %d hint(s) applied, %d mined"
         s.s_hint_reuse s.s_hints s.s_hints_extracted
     else "")

let table rs =
  [ "config"; "tier"; "II"; "LI"; "delay (ns)"; "area"; "power (mW)"; "passes"; "queries";
    "wall (s)"; "cache" ]
  :: List.map
       (fun r ->
         let pr = r.r_profile in
         let base label rest =
           (point_label r.r_point :: label :: rest)
           @ [ string_of_int pr.pr_passes; string_of_int pr.pr_queries;
               Printf.sprintf "%.3f" pr.pr_wall_s; (if pr.pr_cached then "hit" else "-") ]
         in
         match r.r_flow with
         | Ok f ->
             base
               (Flow.tier_to_string f.Flow.f_tier)
               [ string_of_int f.Flow.f_cycles_per_iter;
                 string_of_int f.Flow.f_sched.Hls_core.Scheduler.s_li;
                 Printf.sprintf "%.1f" (f.Flow.f_delay_ps /. 1000.0);
                 Printf.sprintf "%.0f" f.Flow.f_area.Hls_rtl.Stats.a_total;
                 Printf.sprintf "%.2f" f.Flow.f_power_mw ]
         | Error d -> base ("FAILED: " ^ d.Diag.d_code) [ "-"; "-"; "-"; "-"; "-" ])
       rs

let pareto_points rs =
  List.filter_map
    (fun r ->
      match r.r_flow with
      | Ok f ->
          Some
            (Hls_report.Pareto.point ~x:f.Flow.f_delay_ps ~y:f.Flow.f_area.Hls_rtl.Stats.a_total r)
      | Error _ -> None)
    rs

let json_opt_int = function None -> "null" | Some v -> string_of_int v

let json_ii = function
  | Seq -> "null"
  | Flat ii -> string_of_int ii
  | Dims ds -> "[" ^ String.concat "," (List.map string_of_int ds) ^ "]"

let point_to_json p =
  Printf.sprintf {|{"ii":%s,"min_latency":%s,"max_latency":%s,"clock_ps":%.1f}|} (json_ii p.pt_ii)
    (json_opt_int p.pt_min_latency) (json_opt_int p.pt_max_latency) p.pt_clock_ps

let result_to_json r =
  let pr = r.r_profile in
  let profile =
    Printf.sprintf
      {|"passes":%d,"actions":%d,"queries":%d,"warm_passes":%d,"cold_passes":%d,"hints":%d,"wall_s":%.6f,"cached":%b|}
      pr.pr_passes pr.pr_actions pr.pr_queries pr.pr_warm_passes pr.pr_cold_passes pr.pr_hints
      pr.pr_wall_s pr.pr_cached
  in
  match r.r_flow with
  | Ok f ->
      Printf.sprintf
        {|{"point":%s,"status":"ok","tier":%s,"ii":%d,"li":%d,"delay_ps":%.1f,"area":%.1f,"power_mw":%.4f,%s}|}
        (point_to_json r.r_point)
        (Diag.json_string (Flow.tier_to_string f.Flow.f_tier))
        f.Flow.f_cycles_per_iter f.Flow.f_sched.Hls_core.Scheduler.s_li f.Flow.f_delay_ps
        f.Flow.f_area.Hls_rtl.Stats.a_total f.Flow.f_power_mw profile
  | Error d ->
      Printf.sprintf {|{"point":%s,"status":"error","code":%s,"message":%s,%s}|}
        (point_to_json r.r_point) (Diag.json_string d.Diag.d_code)
        (Diag.json_string d.Diag.d_message) profile

let stats_to_json s =
  Printf.sprintf
    {|{"points":%d,"ok":%d,"failed":%d,"cache_hits":%d,"new_runs":%d,"jobs":%d,"wall_s":%.6f,"points_per_s":%.3f,"cpu_s":%.6f,"passes":%d,"actions":%d,"queries":%d,"warm_passes":%d,"cold_passes":%d,"hints":%d,"hint_reuse":%d,"hints_extracted":%d}|}
    s.s_points s.s_ok s.s_failed s.s_cache_hits s.s_new_runs s.s_jobs s.s_wall_s s.s_points_per_s
    s.s_cpu_s s.s_passes s.s_actions s.s_queries s.s_warm_passes s.s_cold_passes s.s_hints
    s.s_hint_reuse s.s_hints_extracted

let sweep_to_json sw =
  Printf.sprintf {|{"stats":%s,"results":[%s]}|}
    (stats_to_json (stats sw))
    (String.concat "," (List.map result_to_json sw.sw_results))
