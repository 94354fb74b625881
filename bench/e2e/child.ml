(** A workload child: one fresh process per workload run, so peak RSS and
    GC state belong to that workload alone, and the daemon's fork never
    meets a process that has started domains.

    Protocol on stdout: {!ready_line} once set-up (including the untimed
    warm-up) is done, followed by the seconds set-up spent sampling the
    host's speed and the {!E2e_kit.Speed.factor} it found; then
    {!result_prefix} and the report as JSON. *)

module P = Hls_server.Protocol
module Span = E2e_kit.Span
module Speed = E2e_kit.Speed

let workloads = [ "designs"; "scale"; "explore"; "serve" ]
let ready_line = "e2e-ready"
let result_prefix = "e2e-result "

type started = { measure : unit -> Report.t * Span.span list; stop : unit -> unit }

(* [speed] samples the host during set-up; [serve]'s set-up is mostly
   waiting on the daemon, so it is not corrected *)
let start ctx speed = function
  | "designs" ->
      let st = Closed.setup `Designs speed in
      { measure = (fun () -> Closed.measure ctx st); stop = ignore }
  | "scale" ->
      let st = Closed.setup `Scale speed in
      { measure = (fun () -> Closed.measure ctx st); stop = ignore }
  | "explore" ->
      let st = Explore.setup speed in
      { measure = (fun () -> Explore.measure ctx st); stop = ignore }
  | "serve" ->
      let st = Serve.setup ctx in
      { measure = (fun () -> Serve.measure ctx st); stop = (fun () -> Serve.stop_daemon st) }
  | w -> invalid_arg ("unknown workload " ^ w)

let trace_json ~workload spans =
  let base = List.fold_left (fun a s -> Float.min a s.Span.t0) infinity spans in
  P.Obj
    [
      ("workload", P.String workload);
      ( "spans",
        P.List
          (List.map
             (fun s ->
               P.Obj
                 [
                   ("id", P.Int s.Span.id);
                   ("name", P.String s.Span.name);
                   ("parent", match s.Span.parent with Some p -> P.Int p | None -> P.Null);
                   ("req", P.Int s.Span.req);
                   ("start_s", P.Float (s.Span.t0 -. base));
                   ("end_s", P.Float (s.Span.t1 -. base));
                 ])
             spans) );
    ]

let main ~workload ~ctx ~setup_only ~trace_file =
  (* a parent that goes away must not kill this process before it has
     stopped what it started (the daemon): writes then fail instead *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let speed = Speed.create () in
  let started = start ctx speed workload in
  Printf.printf "%s %.9f %.9f\n%!" ready_line speed.Speed.spent_s (Speed.factor speed);
  Fun.protect ~finally:started.stop (fun () ->
      if not setup_only then begin
        let report, spans = started.measure () in
        let report =
          if Report.finite report then report
          else { report with Report.checks = report.Report.checks @ [ ("metrics_finite", false) ] }
        in
        Option.iter
          (fun f ->
            Out_channel.with_open_bin f (fun oc ->
                output_string oc (P.to_string (trace_json ~workload spans));
                output_char oc '\n'))
          trace_file;
        print_string (result_prefix ^ P.to_string (Report.to_json report) ^ "\n")
      end)
