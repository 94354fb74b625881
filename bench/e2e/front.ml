(** The parent side: spawn workload children, take set-up time from the
    outside (spawn to ready line, less the child's host sampling, corrected
    by the host speed the child found), and print or record their
    reports. *)

module P = Hls_server.Protocol
module Stats = E2e_kit.Stats

let now = E2e_kit.Clock.now

type child = { setup_s : float; report : Report.t }

(** Run one workload child to completion.  [Error] when it dies or never
    reports. *)
let spawn ~hlsc ~workload ~seed ~seconds ~trace ?(setup_only = false) ?trace_file () =
  let exe = Sys.executable_name in
  let argv =
    [ exe; "child"; workload; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
      "--trace"; (if trace then "1" else "0"); "--hlsc"; hlsc ]
    @ (if setup_only then [ "--setup-only" ] else [])
    @ match trace_file with Some f -> [ "--trace-file"; f ] | None -> []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process exe (Array.of_list argv) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let ready = ref None and result = ref None in
  let prefix = Child.result_prefix in
  (try
     while true do
       let line = input_line ic in
       if String.starts_with ~prefix:Child.ready_line line then begin
         (* set-up time without the host sampling, at nominal speed *)
         let elapsed = now () -. t0 in
         ready :=
           Scanf.sscanf_opt line "%s %f %f" (fun _ spent factor -> (elapsed -. spent) *. factor)
       end
       else if String.starts_with ~prefix line then
         result := Some (String.sub line (String.length prefix) (String.length line - String.length prefix))
       else prerr_endline line
     done
   with End_of_file -> ());
  close_in ic;
  let rec reap () = try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> reap () in
  let status = reap () in
  match (status, !ready, !result, setup_only) with
  | Unix.WEXITED 0, Some setup_s, _, true -> Ok { setup_s; report = Report.empty }
  | Unix.WEXITED 0, Some setup_s, Some json, false -> (
      match P.of_string json with
      | Ok j -> Ok { setup_s; report = Report.of_json j }
      | Error m -> Error (workload ^ ": unreadable report: " ^ m))
  | _ -> Error (Printf.sprintf "%s child (seed %d) died or did not report" workload seed)

(** Set-up runs per measurement; set-up time is their median. *)
let setup_samples = 5

(** One untraced measurement with its set-up time: [setup_samples - 1]
    set-up-only children, then the measuring child. *)
let untraced ~hlsc ~workload ~seed ~seconds =
  let ( let* ) = Result.bind in
  let rec probes k acc =
    if k = 0 then Ok acc
    else
      let* c = spawn ~hlsc ~workload ~seed ~seconds ~trace:false ~setup_only:true () in
      probes (k - 1) (c.setup_s :: acc)
  in
  let* setups = probes (setup_samples - 1) [] in
  let* c = spawn ~hlsc ~workload ~seed ~seconds ~trace:false () in
  let setup_s = Stats.median (c.setup_s :: setups) in
  Ok { c with report = { c.report with Report.metrics = Report.m "setup_s" "s" setup_s :: c.report.Report.metrics } }

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json *)

type spec_metric = { s_name : string; s_unit : string; s_better : string; s_bound : float option }

let spec_json path =
  match P.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Error m -> failwith (path ^ ": " ^ m)
  | Ok j -> j

(** The end-to-end and per-layer metrics BENCHMARK.json declares. *)
let read_spec path =
  let j = spec_json path in
  let list k =
    match P.member k j with
    | Some (P.List l) ->
        List.map
          (fun e ->
            let s k = Option.value (Option.bind (P.member k e) P.get_string) ~default:"" in
            {
              s_name = s "name";
              s_unit = s "unit";
              s_better = s "better";
              s_bound = Option.bind (P.member "bound" e) P.get_float;
            })
          l
    | _ -> []
  in
  (list "end_to_end", list "per_layer")

(** The workloads BENCHMARK.json gates; [serve] runs but is not one. *)
let gated_workloads path =
  match P.member "workloads" (spec_json path) with
  | Some (P.List l) -> List.filter_map (fun w -> Option.bind (P.member "name" w) P.get_string) l
  | _ -> []

(** BENCHMARK.json's [run_seconds]. *)
let run_seconds path =
  match Option.bind (P.member "run_seconds" (spec_json path)) P.get_float with
  | Some s -> s
  | None -> failwith (path ^ ": no run_seconds")

(** Pick [wanted] out of [have], failing on a metric the report lacks or
    reports in another unit. *)
let select wanted (have : Report.metric list) =
  List.map
    (fun s ->
      match List.find_opt (fun (x : Report.metric) -> x.Report.name = s.s_name) have with
      | None -> failwith ("the report has no metric " ^ s.s_name)
      | Some x when x.Report.unit_ <> s.s_unit ->
          failwith (Printf.sprintf "%s: reported in %s, declared in %s" s.s_name x.Report.unit_ s.s_unit)
      | Some x -> x)
    wanted

let result_line (report : Report.t) metrics =
  P.to_string
    (P.Obj
       [
         ("correct", P.Bool (Report.correct report));
         ("attempted", P.Int report.Report.attempted);
         ("failed", P.Int report.Report.failed);
         ("metrics", Report.metrics_json metrics);
       ])

let die m =
  prerr_endline ("e2e: " ^ m);
  exit 1

(** BENCHMARK.json's command: one run of one workload; the last line of
    stdout is the result object, with the end-to-end metrics of
    BENCHMARK.json, or with [trace] its per-layer metrics. *)
let one_run ~hlsc ~workload ~seed ~seconds ~trace =
  let end_to_end, per_layer = read_spec "BENCHMARK.json" in
  let run =
    if trace then spawn ~hlsc ~workload ~seed ~seconds ~trace:true ()
    else untraced ~hlsc ~workload ~seed ~seconds
  in
  match run with
  | Error m -> die m
  | Ok { report; _ } -> (
      List.iter (fun n -> prerr_endline ("e2e: " ^ n)) report.Report.notes;
      List.iter
        (fun (k, ok) -> if not ok then prerr_endline ("e2e: check failed: " ^ k))
        report.Report.checks;
      match
        if trace then select per_layer report.Report.layers
        else select end_to_end report.Report.metrics
      with
      | exception Failure m -> die m
      | metrics -> print_endline (result_line report metrics))

(* ------------------------------------------------------------------ *)
(* run / smoke *)

let print_row ~workload ~seed (r : Report.t) =
  Printf.printf "\n== %s (seed %d): %s, %d attempted, %d failed\n" workload seed
    (if Report.correct r then "correct" else "INCORRECT")
    r.Report.attempted r.Report.failed;
  List.iter
    (fun (x : Report.metric) -> Printf.printf "  %-28s %14.6g %s\n" x.Report.name x.Report.value x.Report.unit_)
    (r.Report.metrics @ r.Report.layers);
  List.iter (fun (k, ok) -> Printf.printf "  check %-40s %s\n" k (if ok then "ok" else "FAILED")) r.Report.checks;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) r.Report.notes;
  flush stdout

let row_json ~workload ~seed (r : Report.t) =
  match Report.to_json r with
  | P.Obj kvs -> P.Obj (("workload", P.String workload) :: ("seed", P.Int seed) :: kvs)
  | j -> j

(** Both runs of one workload: untraced (end-to-end metrics and set-up
    time) then traced (the per-layer split), merged into one report. *)
let both ~hlsc ~workload ~seed ~seconds ~probes ?trace_file () =
  let ( let* ) = Result.bind in
  let* u =
    if probes then untraced ~hlsc ~workload ~seed ~seconds
    else spawn ~hlsc ~workload ~seed ~seconds ~trace:false ()
  in
  let* t = spawn ~hlsc ~workload ~seed ~seconds ~trace:true ?trace_file () in
  let a = u.report and b = t.report in
  Ok
    {
      Report.attempted = a.Report.attempted + b.Report.attempted;
      failed = a.Report.failed + b.Report.failed;
      metrics = a.Report.metrics;
      layers = b.Report.layers;
      checks = a.Report.checks @ b.Report.checks;
      notes = a.Report.notes @ b.Report.notes;
    }

let host_fields ~seed ~seconds =
  [
    ("bench", P.String "e2e");
    ("git_rev", P.String (Host.git_rev ()));
    ("nproc", P.Int (Host.nproc ()));
    ("recommended_domain_count", P.Int (Domain.recommended_domain_count ()));
    ("ocaml", P.String Sys.ocaml_version);
    ("seed", P.Int seed);
    ("seconds", P.Float seconds);
    ("setup_samples", P.Int setup_samples);
  ]

(** [e2e run]: every workload, untraced then traced, for one seed and
    BENCHMARK.json's [run_seconds]; one result object appended to
    [out]/result.json and the spans in [out]/trace-<workload>.json. *)
let run ~hlsc ~seed ~out =
  let seconds = run_seconds "BENCHMARK.json" in
  Host.mkdir_p out;
  let ok = ref true in
  let rows =
    List.map
      (fun workload ->
        let trace_file = Filename.concat out ("trace-" ^ workload ^ ".json") in
        match both ~hlsc ~workload ~seed ~seconds ~probes:true ~trace_file () with
        | Ok r ->
            print_row ~workload ~seed r;
            if not (Report.correct r) then ok := false;
            row_json ~workload ~seed r
        | Error m ->
            ok := false;
            Printf.printf "\n== %s (seed %d): %s\n%!" workload seed m;
            P.Obj [ ("workload", P.String workload); ("seed", P.Int seed); ("error", P.String m) ])
      Child.workloads
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 (Filename.concat out "result.json")
    (fun oc ->
      output_string oc (P.to_string (P.Obj (host_fields ~seed ~seconds @ [ ("rows", P.List rows) ])));
      output_char oc '\n');
  Printf.printf "\nwrote %s\n" (Filename.concat out "result.json");
  if not !ok then exit 1

(** [e2e smoke]: one short pass of every workload, untraced and traced,
    with every correctness check. *)
let smoke ~hlsc =
  let bad =
    List.filter
      (fun workload ->
        match both ~hlsc ~workload ~seed:1 ~seconds:0.0 ~probes:false () with
        | Ok r ->
            Printf.printf "smoke %-8s %s (%d attempted)\n%!" workload
              (if Report.correct r then "ok" else "INCORRECT")
              r.Report.attempted;
            if not (Report.correct r) then print_row ~workload ~seed:1 r;
            not (Report.correct r)
        | Error m ->
            Printf.printf "smoke %-8s %s\n%!" workload m;
            true)
      Child.workloads
  in
  if bad <> [] then exit 1
