(** [e2e compare A.json B.json]: per workload and metric, each side's
    median and quartiles over its runs, a regression flag where B is worse
    than A by more than the metric's bound in BENCHMARK.json (on the
    workloads BENCHMARK.json lists), and a
    mismatch flag where a metric that must repeat exactly (QoR and
    counters) differs between runs of the same seed. *)

module P = Hls_server.Protocol
module Stats = E2e_kit.Stats

(** Deterministic for a given seed and code: QoR, scheduler and netlist
    counters, DSE cache and hint accounting. *)
let exact =
  [
    "qor.area_geomean"; "qor.ii_geomean"; "qor.li_geomean";
    "flow.degraded_ratio"; "frontend.ops"; "core.passes"; "core.actions"; "core.warm_passes";
    "core.cold_passes"; "netlist.queries"; "netlist.trials"; "netlist.rollback_ratio"; "netlist.visits";
    "rtl.verilog_kb"; "dse.cache_hit_ratio"; "feedback.hint_reuse"; "feedback.hints_extracted";
  ]

(** (workload, seed, metric name, value) of every row in a result file
    (one JSON object per line, as [e2e run] appends them). *)
let load path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.concat_map (fun line ->
         match P.of_string line with
         | Error m -> failwith (path ^ ": " ^ m)
         | Ok j -> (
             match P.member "rows" j with
             | Some (P.List rows) ->
                 List.concat_map
                   (fun row ->
                     let w = Option.value (Option.bind (P.member "workload" row) P.get_string) ~default:"?" in
                     let seed = Option.value (Option.bind (P.member "seed" row) P.get_int) ~default:0 in
                     let r = Report.of_json row in
                     List.map
                       (fun (x : Report.metric) -> (w, seed, x.Report.name, x.Report.value))
                       (r.Report.metrics @ r.Report.layers))
                   rows
             | _ -> []))

let summary vs =
  match vs with
  | [] -> "-"
  | [ v ] -> Printf.sprintf "%.6g" v
  | _ ->
      let q1, m, q3 = Stats.quartiles vs in
      Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3

let main a_path b_path =
  let end_to_end, _ = Front.read_spec "BENCHMARK.json" in
  let gated = Front.gated_workloads "BENCHMARK.json" in
  let a = load a_path and b = load b_path in
  let keys =
    List.sort_uniq compare (List.map (fun (w, _, n, _) -> (w, n)) (a @ b))
  in
  let values side w n = List.filter_map (fun (w', _, n', v) -> if w' = w && n' = n then Some v else None) side in
  let by_seed side w n =
    List.filter_map (fun (w', s, n', v) -> if w' = w && n' = n then Some (s, v) else None) side
  in
  let bad = ref 0 in
  Printf.printf "%-8s %-26s %-36s %-36s %8s  %s\n" "workload" "metric" ("A: " ^ a_path) ("B: " ^ b_path)
    "change" "verdict";
  List.iter
    (fun (w, n) ->
      let va = values a w n and vb = values b w n in
      let change, verdict =
        match (va, vb) with
        | [], _ | _, [] -> ("", "one side only")
        | _ ->
            let ma = Stats.median va and mb = Stats.median vb in
            let rel = Stats.ratio (mb -. ma) (Float.abs ma) in
            let change = Printf.sprintf "%+.1f%%" (100.0 *. rel) in
            if List.mem n exact then
              let sa = by_seed a w n and sb = by_seed b w n in
              let same =
                List.for_all
                  (fun (s, v) ->
                    List.for_all (fun (s', v') -> s' <> s || v' = v) (sa @ sb))
                  (sa @ sb)
              in
              if same then (change, "exact") else (incr bad; (change, "EXACT MISMATCH"))
            else if not (List.mem w gated) then (change, "not gated")
            else
              match List.find_opt (fun s -> s.Front.s_name = n) end_to_end with
              | Some { Front.s_bound = Some bound; s_better; _ } ->
                  let worse = if s_better = "higher" then -.rel else rel in
                  if worse > bound then (incr bad; (change, Printf.sprintf "REGRESSION (bound %.0f%%)" (100.0 *. bound)))
                  else (change, Printf.sprintf "ok (bound %.0f%%)" (100.0 *. bound))
              | _ -> (change, "")
      in
      Printf.printf "%-8s %-26s %-36s %-36s %8s  %s\n" w n (summary va) (summary vb) change verdict)
    keys;
  if !bad > 0 then begin
    Printf.printf "%d metric(s) flagged\n" !bad;
    exit 1
  end
