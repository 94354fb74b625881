(** The two closed-loop, in-process workloads: one client sends the next
    request when the previous one returns.

    - [designs]: the designer's edit-compile loop on small kernels, where
      fixed per-request costs and verification weigh as much as
      scheduling.
    - [scale]: synthetic designs where the scheduler and the netlist
      timing engine do 80–90% of the work. *)

module Stats = E2e_kit.Stats
module Speed = E2e_kit.Speed

let now = E2e_kit.Clock.now

let designs_requests () =
  let id = ref 0 in
  List.concat_map
    (fun (name, _, design) ->
      List.filter_map
        (fun ii ->
          if Inputs.designs_excluded name ii then None
          else begin
            incr id;
            Some
              {
                Req.id = !id;
                label =
                  Printf.sprintf "%s@%s" name
                    (match ii with None -> "seq" | Some i -> "ii" ^ string_of_int i);
                design;
                options = { Hls_flow.Flow.default_options with Hls_flow.Flow.ii; clock_ps = 1600.0 };
                emit = true;
              }
          end)
        Inputs.design_points)
    (Inputs.designs ())

let scale_requests () =
  List.mapi
    (fun i (design, ii, clock_ps) ->
      {
        Req.id = i + 1;
        label = design.Hls_frontend.Ast.d_name;
        design;
        options = { Hls_flow.Flow.default_options with Hls_flow.Flow.ii; clock_ps };
        emit = true;
      })
    (Inputs.scale_set ())

type state = { reqs : Req.t list }

(** Build the inputs and run the untimed warm-up: every request once for
    [designs]; one design of each size class for [scale].  [speed]
    samples the host after each warm-up request. *)
let setup workload speed =
  let reqs = match workload with `Designs -> designs_requests () | `Scale -> scale_requests () in
  let warm =
    match workload with
    | `Designs -> reqs
    | `Scale -> [ List.hd reqs; List.nth reqs (List.length reqs - 1) ]
  in
  List.iter (fun r -> Speed.after speed (Req.run r).Req.wall) warm;
  { reqs }

let untraced ctx st =
  let rng = Ctx.rng ctx 1 in
  let need = Stats.min_samples 0.9 in
  let t0 = now () in
  (* request times corrected by the host speed of their pass *)
  let walls = ref [] and speeds = ref [] and n = ref 0 and failed = ref 0 and passes = ref 0 in
  let notes = ref [] and repeats_ok = ref true and lint_failed = ref 0 and emitted = ref 0 in
  let first = Hashtbl.create 64 in
  while Ctx.another_pass ctx ~t0 ~passes:!passes ~enough:(!n >= need) do
    let speed = Speed.create () and pass = ref [] in
    List.iter
      (fun (r : Req.t) ->
        let o = Req.run r in
        Speed.after speed o.Req.wall;
        pass := o.Req.wall :: !pass;
        incr n;
        if Req.failed o.Req.verdict then begin
          incr failed;
          notes := (r.Req.label ^ ": " ^ Req.signature o.Req.verdict) :: !notes
        end;
        (match Hashtbl.find_opt first r.Req.id with
        | None -> Hashtbl.replace first r.Req.id o.Req.verdict
        | Some v when Req.signature v = Req.signature o.Req.verdict -> ()
        | Some _ ->
            repeats_ok := false;
            notes := (r.Req.label ^ ": a repeat gave a different result") :: !notes);
        (* lint the RTL once per request, outside its timed call *)
        if !passes = 0 then
          Option.iter
            (fun v ->
              incr emitted;
              if Hls_rtl.Verilog.lint v <> [] then incr lint_failed)
            o.Req.verilog)
      (Inputs.shuffle rng st.reqs);
    let f = Speed.factor speed in
    walls := List.rev_map (fun w -> w *. f) !pass @ !walls;
    speeds := f :: !speeds;
    incr passes
  done;
  let verdicts = Hashtbl.fold (fun id v l -> (id, v) :: l) first [] |> List.sort compare in
  let distinct = float_of_int (List.length verdicts) in
  let latency = Report.latency !walls in
  {
    Report.attempted = !n;
    failed = !failed;
    metrics =
      latency
      @ [
          (* over the whole run, not the median pass, which jumps
             between host speed levels *)
          Report.m "req_per_s" "1/s" (float_of_int !n /. Stats.sum !walls);
          Report.m "peak_rss_mb" "MiB" (Host.peak_rss_mb "self");
          Report.m "host_speed" "ratio" (Stats.median !speeds);
          Report.m "fail_ratio" "ratio" (float_of_int !failed /. float_of_int !n);
          Report.m "degraded_ratio" "ratio"
            (float_of_int (List.length (List.filter (fun (_, v) -> Req.degraded v) verdicts))
            /. distinct);
          Report.m "lint_failed_ratio" "ratio"
            (Stats.ratio (float_of_int !lint_failed) (float_of_int !emitted));
        ];
    layers = [];
    checks =
      Ctx.percentile_check ctx (List.length latency = 2)
      @ [
        ("repeats_identical", !repeats_ok);
      ];
    notes = List.rev !notes;
  }

let traced ctx st =
  let rng = Ctx.rng ctx 1 in
  let acc = Req.acc () in
  let speed = Speed.create () in
  let t0 = now () in
  let n = ref 0 and failed = ref 0 and passes = ref 0 and notes = ref [] in
  while Ctx.another_pass ctx ~t0 ~passes:!passes ~enough:true do
    List.iter
      (fun r ->
        let t1 = now () in
        let u = Req.step acc r in
        Speed.after speed (now () -. t1);
        incr n;
        if Req.failed u.Req.verdict then begin
          incr failed;
          notes := (r.Req.label ^ ": " ^ Req.signature u.Req.verdict) :: !notes
        end)
      (Inputs.shuffle rng st.reqs);
    incr passes
  done;
  ( {
      Report.empty with
      Report.attempted = !n;
      failed = !failed;
      layers = Report.with_workload_layers (Req.layer_metrics ~speed:(Speed.factor speed) acc);
      checks = [ ("replay_equals_flow", acc.Req.disagreements = []) ];
      notes = List.rev !notes @ List.rev acc.Req.disagreements;
    },
    E2e_kit.Span.spans acc.Req.sp )

let measure ctx st = if ctx.Ctx.trace then traced ctx st else (untraced ctx st, [])
