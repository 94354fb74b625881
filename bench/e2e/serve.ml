(** The [serve] workload: the latency a daemon user sees.  A fresh
    [hlsc serve --workers N --store-dir <fresh dir>] takes [flow] submits
    from one load-generating process: first a closed loop that keeps
    {!depth} submits in flight (the capacity), then an open loop at three
    fixed Poisson rates.  Three submits in ten use a key not sent before
    (a cold compile plus a store publish); the rest repeat a key already
    sent (a memory-cache hit, or a store hit once the key has been
    evicted).  The scheduler sets p90 here but hardly touches p50, which
    cache hits serve.

    The load uses two threads and two connections: one protocol
    connection per phase, written by the calling thread at each submit's
    due time and read by a second thread, so a send never waits for an
    answer; and one {!Hls_server.Client} connection for health and
    statistics.

    BENCHMARK.json does not gate this workload: on the two-CPU VM the
    README records, its run-to-run spread (14–45% over ten runs) exceeds
    any bound a metric may have.  [e2e run] and [e2e compare] still
    report it. *)

module P = Hls_server.Protocol
module Client = Hls_server.Client
module Stats = E2e_kit.Stats
module Span = E2e_kit.Span
module Openloop = E2e_kit.Openloop

let now = E2e_kit.Clock.now

(** Open-loop rates (submits/s), frozen so every run offers the same
    load: about 0.14, 0.28 and 0.5 of the capacity on the host the README
    records. *)
let rates = [ ("low", 125.0); ("mid", 250.0); ("high", 450.0) ]

(** Share of the run each phase gets: the capacity phase, then the rates
    in order.  The mid rate, whose latencies are the end-to-end metrics,
    gets the most. *)
let closed_share = 0.2
let shares = [ ("low", 0.2); ("mid", 0.4); ("high", 0.2) ]

(** The phases run in this many interleaved rounds, so that every phase
    samples the whole run: on a host whose speed drifts over seconds, one
    contiguous phase per metric made each metric depend on when it ran. *)
let rounds = 5

(** Submits the capacity phase keeps in flight: enough to keep the
    workers and the acceptor busy, so capacity measures work done rather
    than round trips. *)
let depth = 8

(** Worker processes: one CPU is left to the acceptor and the load
    generator.  With a worker per CPU, the four busy processes on two
    CPUs made capacity swing by ±25% between runs. *)
let workers = max 1 (Host.nproc () - 1)

(* each phase draws clocks from its own residue class mod 5 (the fifth
   is the warm-up's), so a key new to one phase is new to the daemon *)
let clock_classes = 5
let clock_steps = 240

(** A seeded stream of submits whose mix does not depend on the seed:
    every block of ten submits has exactly three new keys, and new keys
    walk the (design, II) points in cycles — each cycle visits every point
    once, in a seeded order, at one clock (cycle c at step 97c mod 240 of
    the phase's clock class, spreading cycles over 1200–2400 ps).  The
    seed decides the order, the arrival times and which sent key a repeat
    picks; the cold compiles a run pays for are the same for every seed. *)
type keygen = {
  rng : Random.State.t;
  points : (string * Inputs.spec * int option) array;
  cls : int;
  mutable sent : P.job_spec array;
  mutable n_sent : int;
  mutable cycle : int;
  mutable order : int list;  (** points still due a new key this cycle *)
  mutable block : bool list;  (** new-key pattern of the current block *)
}

let keygen ~points ~rng ~cls =
  { rng; points; cls; sent = [||]; n_sent = 0; cycle = -1; order = []; block = [] }

let rec take_point kg =
  match kg.order with
  | [] ->
      kg.cycle <- kg.cycle + 1;
      if kg.cycle >= clock_steps then failwith "serve: a phase ran out of new keys";
      kg.order <- Inputs.shuffle kg.rng (List.init (Array.length kg.points) Fun.id);
      take_point kg
  | i :: rest ->
      kg.order <- rest;
      kg.points.(i)

let rec take_new kg =
  match kg.block with
  | [] ->
      kg.block <- Inputs.shuffle kg.rng (List.init 10 (fun i -> i < 3));
      take_new kg
  | b :: rest ->
      kg.block <- rest;
      b

(** A submit with a key not sent before. *)
let fresh_key kg =
  let _, spec, ii = take_point kg in
  let clock = 1200 + kg.cls + (clock_classes * (kg.cycle * 97 mod clock_steps)) in
  let js = P.job_spec ?ii ~clock_ps:(float_of_int clock) P.C_flow spec in
  if kg.n_sent = Array.length kg.sent then
    kg.sent <- Array.append kg.sent (Array.make (max 16 kg.n_sent) js);
  kg.sent.(kg.n_sent) <- js;
  kg.n_sent <- kg.n_sent + 1;
  js

(** The next submit and whether its key is new. *)
let next_key kg =
  if take_new kg || kg.n_sent = 0 then (fresh_key kg, true)
  else (kg.sent.(Random.State.int kg.rng kg.n_sent), false)

type state = {
  pid : int;
  log : Unix.file_descr;  (** the daemon's stderr *)
  dir : string;
  socket : string;
  points : (string * Inputs.spec * int option) array;
  client : Client.t option;
}

(* Block until the daemon's stderr carries its listening line (sockets
   bound, workers forked, signal handlers installed): a blocking read, so
   set-up time carries no polling granularity. *)
let await_listening fd ~until =
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let marker = "hlsc serve: listening" in
  let contains () =
    let s = Buffer.contents buf and m = String.length marker in
    let rec go i = i + m <= String.length s && (String.sub s i m = marker || go (i + 1)) in
    go 0
  in
  while not (contains ()) do
    let left = until -. now () in
    if left <= 0.0 then failwith "daemon did not start listening";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> failwith ("daemon exited before listening: " ^ Buffer.contents buf)
        | n -> Buffer.add_subbytes buf chunk 0 n)
  done

let healthy c =
  match Client.health c with
  | Ok j -> Option.bind (P.member "status" j) P.get_string = Some "ok"
  | Error _ -> false

let client st = match st.client with Some c -> c | None -> invalid_arg "serve: no client connection"

(** Drain the daemon (SIGTERM), reap it, pass its log on, and remove its
    socket and store. *)
let stop_daemon st =
  Option.iter Client.close st.client;
  (try Unix.kill st.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let until = now () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] st.pid with
    | 0, _ when now () < until ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        Unix.kill st.pid Sys.sigkill;
        ignore (Unix.waitpid [] st.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  (* the daemon has exited, so its log reads to end of file *)
  let ic = Unix.in_channel_of_descr st.log in
  (try
     while true do
       prerr_endline (input_line ic)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr ic;
  Host.rm_rf st.dir;
  try Unix.rmdir (Filename.dirname st.dir) with Unix.Unix_error _ -> ()

(** Start the daemon, wait until it listens and every worker is up, then
    send one untimed warm-up submit per point. *)
let setup ctx =
  (* relative paths keep the socket path short whatever the checkout's
     depth; the daemon shares this process's working directory *)
  let dir = Printf.sprintf ".e2e_tmp/%d" (Unix.getpid ()) in
  Host.rm_rf dir;
  Host.mkdir_p dir;
  let socket = Filename.concat dir "d.sock" in
  let argv =
    [|
      ctx.Ctx.hlsc; "serve"; "--socket"; socket; "--workers"; string_of_int workers; "--store-dir";
      Filename.concat dir "store";
    |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log, log_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process ctx.Ctx.hlsc argv devnull devnull log_w in
  Unix.close devnull;
  Unix.close log_w;
  let points = Array.of_list (Inputs.serve_points ()) in
  let st = { pid; log; dir; socket; points; client = None } in
  try
    let until = now () +. 20.0 in
    await_listening log ~until;
    let c = match Client.connect ~socket () with Ok c -> c | Error m -> failwith ("connect: " ^ m) in
    let st = { st with client = Some c } in
    while not (healthy c) do
      if now () > until then failwith "daemon workers did not come up";
      Unix.sleepf 0.0005
    done;
    (* the same keys for every seed, so set-up time does not depend on it *)
    let kg = keygen ~points ~rng:(Random.State.make [| 40 |]) ~cls:4 in
    for _ = 1 to Array.length points do
      match Client.submit c (fresh_key kg) with
      | Ok _ -> ()
      | Error m -> failwith ("warm-up submit failed: " ^ m)
    done;
    st
  with e ->
    stop_daemon st;
    raise e

(* ------------------------------------------------------------------ *)
(* One phase on a raw protocol connection *)

type answer = {
  spec : P.job_spec;
  fresh_key : bool;
  sample : Openloop.sample;  (** due, sent, answered *)
  accepted : float;  (** when the daemon admitted it *)
  result : (P.outcome, string) result;
}

(* A phase's connection: submits are written in order, and the daemon
   admits (or refuses) them in that order, so the k-th admission frame
   belongs to the k-th submit; results carry the job id.  A coalesced
   submit's result can overtake its admission frame, so results of jobs
   not yet admitted wait in [early]. *)
type conn = {
  fd : Unix.file_descr;
  mutable admitted : int;
  mutable answered : int;
  jobs : (int, int) Hashtbl.t;  (** job id -> submit index *)
  early : (int, float * (P.outcome, string) result) Hashtbl.t;
}

let connect_raw socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  P.write_frame fd (P.request_to_json (P.Hello P.version));
  (match P.read_frame fd with
  | Ok j when Option.bind (P.member "proto" j) P.get_int = Some P.version -> ()
  | _ -> failwith "serve: handshake refused");
  { fd; admitted = 0; answered = 0; jobs = Hashtbl.create 256; early = Hashtbl.create 8 }

let error_text j =
  let s k = Option.value (Option.bind (P.member k j) P.get_string) ~default:"" in
  s "code" ^ ": " ^ s "message"

(** A daemon that answers nothing for this long has failed the run. *)
let answer_timeout_s = 30.0

(** Read one frame and hand it on: [admit i t] when submit [i] is
    admitted, [answer i t r] when it is answered. *)
let pump c ~admit ~answer =
  let answered i t r =
    answer i t r;
    c.answered <- c.answered + 1
  in
  (match Unix.select [ c.fd ] [] [] answer_timeout_s with
  | [], _, _ -> failwith "serve: the daemon stopped answering"
  | _ -> ());
  match P.read_frame c.fd with
  | Error e -> failwith ("serve: " ^ P.frame_error_to_string e)
  | Ok j -> (
      let t = now () in
      let ty = Option.bind (P.member "type" j) P.get_string in
      match (ty, Option.bind (P.member "job" j) P.get_int) with
      | Some "accepted", Some job -> (
          let i = c.admitted in
          c.admitted <- i + 1;
          admit i t;
          match Hashtbl.find_opt c.early job with
          | Some (t', r) ->
              Hashtbl.remove c.early job;
              answered i t' r
          | None -> Hashtbl.replace c.jobs job i)
      | Some "error", None ->
          (* refused at admission: the answer to the next submit in line *)
          let i = c.admitted in
          c.admitted <- i + 1;
          admit i t;
          answered i t (Error (error_text j))
      | Some (("result" | "error") as ty), Some job -> (
          let r = if ty = "result" then P.outcome_of_json j else Error (error_text j) in
          match Hashtbl.find_opt c.jobs job with
          | None -> Hashtbl.replace c.early job (t, r)
          | Some i ->
              Hashtbl.remove c.jobs job;
              answered i t r)
      | _ -> ())

(* what a phase records per submit *)
type entry = {
  key : P.job_spec * bool;
  due : float;
  mutable sent : float;
  mutable admitted_at : float;
  mutable answered_at : float;
  mutable outcome : (P.outcome, string) result;
}

let entry key due = { key; due; sent = due; admitted_at = 0.0; answered_at = 0.0; outcome = Error "no answer" }

let answer_of e =
  {
    spec = fst e.key;
    fresh_key = snd e.key;
    sample = { Openloop.due = e.due; sent = e.sent; done_ = e.answered_at };
    accepted = e.admitted_at;
    result = e.outcome;
  }

let on_admit entries i t = (entries i).admitted_at <- t

let on_answer entries i t r =
  let e = entries i in
  e.answered_at <- t;
  e.outcome <- r

let send c (js : P.job_spec) = P.write_frame c.fd (P.request_to_json (P.Submit js))

(** Closed loop with {!depth} submits in flight for [duration]; returns
    the answers and the completions per second of each half-second
    window. *)
let closed_phase st ~kg ~duration =
  let c = connect_raw st.socket in
  let entries = Hashtbl.create 4096 in
  let get i = Hashtbl.find entries i in
  let t0 = now () in
  let t_end = t0 +. duration in
  let n = ref 0 in
  while now () < t_end || c.answered < !n do
    while now () < t_end && !n - c.answered < depth do
      let key = next_key kg in
      Hashtbl.replace entries !n (entry key (now ()));
      send c (fst key);
      incr n
    done;
    pump c ~admit:(on_admit get) ~answer:(on_answer get)
  done;
  Unix.close c.fd;
  let answers = List.init !n (fun i -> answer_of (get i)) in
  let window = 0.5 in
  let windows = max 1 (int_of_float (duration /. window)) in
  let per_window = Array.make windows 0 in
  List.iter
    (fun a ->
      let w = int_of_float ((a.sample.Openloop.done_ -. t0) /. window) in
      if w >= 0 && w < windows then per_window.(w) <- per_window.(w) + 1)
    answers;
  (answers, Array.to_list (Array.map (fun n -> float_of_int n /. window) per_window))

(** Open loop at [rate] for [duration]: submits and due times are drawn
    up front from the seed, sent when due whatever is still in flight, and
    timed from when they were due. *)
let open_phase st ~kg ~rng ~rate ~duration ~min_count =
  let offsets = Openloop.arrivals ~rng ~rate ~duration ~min_count () in
  let n = Array.length offsets in
  let c = connect_raw st.socket in
  let t0 = now () +. 0.005 in
  let entries = Array.map (fun o -> entry (next_key kg) (t0 +. o)) offsets in
  let get i = entries.(i) in
  let receiver =
    Thread.create
      (fun () ->
        while c.answered < n do
          pump c ~admit:(on_admit get) ~answer:(on_answer get)
        done)
      ()
  in
  let sent =
    Openloop.send_on_schedule ~now ~sleep:Unix.sleepf
      ~due:(Array.map (fun e -> e.due) entries)
      ~send:(fun i -> send c (fst entries.(i).key))
  in
  Array.iteri (fun i t -> entries.(i).sent <- t) sent;
  Thread.join receiver;
  Unix.close c.fd;
  Array.to_list (Array.map answer_of entries)

let stats_counter j path =
  let rec go j = function
    | [] -> P.get_int j
    | k :: rest -> Option.bind (P.member k j) (fun v -> go v rest)
  in
  float_of_int (Option.value (go j path) ~default:0)

let counters =
  [
    ("store_hits", [ "cache"; "store_hits" ]);
    ("coalesced", [ "jobs"; "coalesced" ]);
    ("shed", [ "jobs"; "shed" ]);
    ("passes", [ "sched"; "passes" ]);
  ]

let snapshot conn =
  match Client.stats conn with
  | Ok j -> List.map (fun (k, path) -> (k, stats_counter j path)) counters
  | Error m -> failwith ("stats failed: " ^ m)

let spec_key (js : P.job_spec) =
  let d = match js.P.js_design with `Builtin n -> n | `Source s -> Digest.to_hex (Digest.string s) in
  Printf.sprintf "%s ii=%s clk=%.0f" d
    (match js.P.js_ii with None -> "seq" | Some i -> string_of_int i)
    js.P.js_clock_ps

(* Refused at admission because the daemon is shedding load (the
   [overloaded] code, as {!error_text} renders it): a typed refusal when
   the offered rate outruns the daemon, as the high rate can on a slow
   host, not a wrong answer. *)
let shed a = match a.result with Error m -> String.starts_with ~prefix:"overloaded: " m | Ok _ -> false

let failed a =
  match a.result with
  | Error _ -> not (shed a)
  | Ok o -> (
      o.P.o_status <> P.S_ok
      && match o.P.o_code with Some ("worker_lost" | "deadline_exceeded" | "internal") | None -> true | Some _ -> false)

let degraded a =
  match a.result with Ok o -> o.P.o_status <> P.S_ok || o.P.o_tier <> "requested" | Error _ -> shed a

let offline_render (js : P.job_spec) =
  match Hls_server.Design_db.load js.P.js_design with
  | Error m -> Error m
  | Ok design -> (
      match Hls_flow.Flow.run ~options:(Hls_server.Artifact.options_of_spec js) design with
      | Ok f -> Ok (Hls_server.Render.flow f)
      | Error d -> Error (Hls_diag.Diag.to_string d))

(** Every answer for one key must carry the same bytes, and 32 cold keys
    must match what the offline compiler renders. *)
let check_bytes answers =
  let by_key = Hashtbl.create 512 and problems = ref [] in
  List.iter
    (fun a ->
      match a.result with
      | Ok o when o.P.o_status = P.S_ok -> (
          let k = spec_key a.spec in
          match Hashtbl.find_opt by_key k with
          | None -> Hashtbl.replace by_key k (a.spec, o.P.o_output)
          | Some (_, out) ->
              if out <> o.P.o_output then problems := (k ^ ": answers differ") :: !problems)
      | _ -> ())
    answers;
  let cold =
    List.filter_map
      (fun a ->
        match a.result with
        | Ok o when a.fresh_key && o.P.o_status = P.S_ok && not o.P.o_cached -> Some (a.spec, o.P.o_output)
        | _ -> None)
      answers
  in
  let sampled = List.filteri (fun i _ -> i < 32) cold in
  List.iter
    (fun (js, out) ->
      match offline_render js with
      | Ok off when off = out -> ()
      | Ok _ -> problems := (spec_key js ^ ": differs from the offline render") :: !problems
      | Error m -> problems := (spec_key js ^ ": offline compile failed: " ^ m) :: !problems)
    sampled;
  (List.length sampled, List.rev !problems)

let latencies answers = List.map (fun a -> Openloop.latency a.sample) answers

let measure ctx st =
  let c = client st in
  let before = snapshot c in
  let n_rounds = if Ctx.one_pass ctx then 1 else rounds in
  let span share = if Ctx.one_pass ctx then 0.5 else ctx.Ctx.seconds *. share /. float_of_int rounds in
  (* each rate's rounds together get enough submits for a p90 *)
  let min_count =
    if Ctx.one_pass ctx then 0 else (Stats.min_samples 0.9 + rounds - 1) / rounds
  in
  let closed_kg = keygen ~points:st.points ~rng:(Ctx.rng ctx 30) ~cls:0 in
  let open_phases =
    List.mapi
      (fun i (name, rate) ->
        let cls = i + 1 in
        (name, rate, keygen ~points:st.points ~rng:(Ctx.rng ctx (30 + cls)) ~cls, Ctx.rng ctx (20 + cls)))
      rates
  in
  let closed = ref [] and capacity = ref [] and opened = Hashtbl.create 3 in
  for _ = 1 to n_rounds do
    let answers, windows = closed_phase st ~kg:closed_kg ~duration:(span closed_share) in
    closed := !closed @ answers;
    capacity := !capacity @ windows;
    List.iter
      (fun (name, rate, kg, rng) ->
        let answers =
          open_phase st ~kg ~rng ~rate ~duration:(span (List.assoc name shares)) ~min_count
        in
        Hashtbl.replace opened name (Option.value (Hashtbl.find_opt opened name) ~default:[] @ answers))
      open_phases
  done;
  let closed = !closed and capacity = !capacity in
  let phases = List.map (fun (name, _) -> (name, Hashtbl.find opened name)) rates in
  let after = snapshot c in
  let still_healthy = healthy c in
  let peak = Host.tree_peak_rss_mb st.pid in
  let all = closed @ List.concat_map snd phases in
  let phase name = List.assoc name phases in
  let fails = List.filter failed all in
  let n_checked, byte_problems = check_bytes all in
  let pct q name = Stats.percentile q (latencies (phase name)) in
  let ms = Option.map (fun s -> s *. 1000.0) in
  let all_pcts = List.concat_map (fun (n, _) -> [ pct 0.5 n; pct 0.9 n ]) rates in
  let opt_metric name v = Option.to_list (Option.map (Report.m name "ms") v) in
  let delta k = List.assoc k after -. List.assoc k before in
  let ok = List.filter_map (fun a -> match a.result with Ok o when o.P.o_status = P.S_ok -> Some o | _ -> None) all in
  let cold = List.length (List.filter (fun o -> not o.P.o_cached) ok) in
  (* how late the generator sent the mid phase's submits *)
  let late_p90_ms =
    1000.0
    *. Option.value ~default:0.0
         (Stats.percentile 0.9 (List.map (fun a -> Openloop.lateness a.sample) (phase "mid")))
  in
  let report =
    {
      Report.attempted = List.length all;
      failed = List.length fails;
      metrics =
        opt_metric "req_p50_ms" (ms (pct 0.5 "mid"))
        @ opt_metric "req_p90_ms" (ms (pct 0.9 "mid"))
        @ [
            Report.m "req_per_s" "1/s" (Stats.median capacity);
            Report.m "peak_rss_mb" "MiB" peak;
          ]
        @ opt_metric "req_p50_ms_low" (ms (pct 0.5 "low"))
        @ opt_metric "req_p90_ms_low" (ms (pct 0.9 "low"))
        @ opt_metric "req_p50_ms_high" (ms (pct 0.5 "high"))
        @ opt_metric "req_p90_ms_high" (ms (pct 0.9 "high"))
        @ [
            Report.m "fail_ratio" "ratio" (float_of_int (List.length fails) /. float_of_int (List.length all));
            Report.m "degraded_ratio" "ratio"
              (float_of_int (List.length (List.filter degraded all)) /. float_of_int (List.length all));
            Report.m "gen_late_p90_ms" "ms" late_p90_ms;
          ];
      layers = [];
      checks =
        Ctx.percentile_check ctx (List.for_all Option.is_some all_pcts)
        @ [
          ("answers_byte_identical", byte_problems = [] && n_checked = 32);
          ("daemon_healthy", still_healthy);
        ];
      notes =
        byte_problems
        @ List.map
            (fun a ->
              spec_key a.spec ^ ": "
              ^ match a.result with Error m -> m | Ok o -> Option.value o.P.o_diag ~default:"error")
            fails;
    }
  in
  if not ctx.Ctx.trace then (report, [])
  else
    (* the daemon-side spans, from the frames' arrival times: admission
       (submit to accepted) and result (accepted to answer) *)
    let sp = Span.create ~first_id:1_000_000_000 () in
    List.iteri
      (fun i a ->
        let s = a.sample in
        let root = Span.add sp ~req:i "request" s.Openloop.sent s.Openloop.done_ in
        ignore (Span.add sp ~parent:root ~req:i "server.admit" s.Openloop.sent a.accepted);
        ignore (Span.add sp ~parent:root ~req:i "server.result" a.accepted s.Openloop.done_))
      (List.concat_map snd phases);
    let spans = Span.spans sp in
    let span_ms q name =
      1000.0
      *. Option.value ~default:0.0
           (Stats.percentile q
              (List.filter_map (fun s -> if s.Span.name = name then Some (Span.duration s) else None) spans))
    in
    (* the layer split: replay the mid phase's first 48 cold keys in process *)
    let acc = Req.acc () in
    let cold_specs =
      List.filter_map (fun a -> if a.fresh_key then Some a.spec else None) (phase "mid")
      |> List.filteri (fun i _ -> i < 48)
    in
    List.iteri
      (fun i (js : P.job_spec) ->
        match Hls_server.Design_db.load js.P.js_design with
        | Error _ -> ()
        | Ok design ->
            ignore
              (Req.step acc
                 {
                   Req.id = i;
                   label = spec_key js;
                   design;
                   options = Hls_server.Artifact.options_of_spec js;
                   emit = false;
                 }))
      cold_specs;
    let own =
      [
        Report.m "server.admit_ms_p50" "ms" (span_ms 0.5 "server.admit");
        Report.m "server.result_ms_p50" "ms" (span_ms 0.5 "server.result");
        Report.m "server.result_ms_p90" "ms" (span_ms 0.9 "server.result");
        Report.m "server.hit_ratio" "ratio"
          (Stats.ratio (float_of_int (List.length ok - cold)) (float_of_int (List.length ok)));
        Report.m "server.store_hits" "count" (delta "store_hits");
        Report.m "server.coalesced" "count" (delta "coalesced");
        Report.m "server.shed" "count" (delta "shed");
        Report.m "server.sched_passes" "count" (Stats.ratio (delta "passes") (float_of_int cold));
        Report.m "gen.late_p90_ms" "ms" late_p90_ms;
      ]
    in
    ( {
        report with
        Report.metrics = [];
        attempted = report.Report.attempted + acc.Req.replayed;
        layers = Report.with_workload_layers (Req.layer_metrics ~speed:1.0 acc @ own);
        checks = report.Report.checks @ [ ("replay_equals_flow", acc.Req.disagreements = []) ];
        notes = report.Report.notes @ List.rev acc.Req.disagreements;
      },
      spans @ Span.spans acc.Req.sp )
