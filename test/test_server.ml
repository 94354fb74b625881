(** Compile-service daemon tests: run a real [Server.t] in-process on a
    throwaway Unix socket and exercise it through [Client] plus raw
    frames — byte-identity with the offline CLI rendering, cache-hit
    determinism, cancellation, and the protocol fault matrix (malformed
    frame, oversized frame, version mismatch). *)

module Server = Hls_server.Server
module Client = Hls_server.Client
module P = Hls_server.Protocol
module Render = Hls_server.Render
module Design_db = Hls_server.Design_db
module Flow = Hls_flow.Flow

let sock_counter = ref 0

let fresh_socket () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "hlsc_test_%d_%d.sock" (Unix.getpid ()) !sock_counter)

let with_server ?(workers = 2) ?queue_capacity ?cache_cap f =
  (* the daemon runs in-process: a test that makes it write to a reset
     peer (e.g. slow-client eviction) must not die of SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socket = fresh_socket () in
  let queue_capacity =
    Option.value queue_capacity ~default:Server.default_config.Server.queue_capacity
  in
  let cache_cap =
    Option.value cache_cap ~default:Server.default_config.Server.cache_cap
  in
  let cfg =
    {
      Server.default_config with
      Server.socket;
      workers;
      queue_capacity;
      cache_cap;
    }
  in
  match Server.create cfg with
  | Error m -> Alcotest.failf "server create: %s" m
  | Ok srv ->
      let th = Thread.create Server.serve srv in
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv;
          Thread.join th;
          if Sys.file_exists socket then Alcotest.fail "socket left bound after drain")
        (fun () -> f socket)

let connect socket =
  match Client.connect ~socket () with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

let ok_outcome = function
  | Ok (o : P.outcome) ->
      if o.P.o_status <> P.S_ok then
        Alcotest.failf "job %d not ok: %s" o.P.o_job
          (Option.value o.P.o_diag ~default:(P.status_to_string o.P.o_status));
      o
  | Error m -> Alcotest.failf "submit: %s" m

(* the offline CLI's stdout for a spec: same options the daemon derives,
   same shared renderer — what [hlsc schedule/pipeline/flow] prints *)
let offline_output (spec : P.job_spec) =
  let design =
    match Design_db.load spec.P.js_design with
    | Ok d -> d
    | Error m -> Alcotest.failf "load: %s" m
  in
  let options =
    {
      Flow.default_options with
      Flow.ii = spec.P.js_ii;
      clock_ps = spec.P.js_clock_ps;
      min_latency = spec.P.js_min_latency;
      max_latency = spec.P.js_max_latency;
      verify = spec.P.js_verify;
    }
  in
  match Flow.run ~options design with
  | Ok r -> Render.output spec.P.js_cmd r
  | Error d -> Alcotest.failf "offline flow failed: %s" (Hls_diag.Diag.to_string d)

let test_byte_identity () =
  with_server @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter
    (fun (cmd, design, ii) ->
      let spec = P.job_spec ?ii cmd (`Builtin design) in
      let o = ok_outcome (Client.submit c spec) in
      Alcotest.(check string)
        (Printf.sprintf "%s %s" (P.cmd_to_string cmd) design)
        (offline_output spec) o.P.o_output)
    [ (P.C_schedule, "example1", Some 2); (P.C_pipeline, "fir8", Some 1); (P.C_flow, "fft", None) ]

let test_cache_hit_determinism () =
  with_server @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let spec = P.job_spec ~ii:2 P.C_schedule (`Builtin "example1") in
  let first = ok_outcome (Client.submit c spec) in
  Alcotest.(check bool) "first is a cold compile" false first.P.o_cached;
  let second = ok_outcome (Client.submit c spec) in
  Alcotest.(check bool) "second served from cache" true second.P.o_cached;
  Alcotest.(check string) "identical bytes" first.P.o_output second.P.o_output;
  (* same design, different command: flow reuses the cached schedule entry *)
  let flow_spec = P.job_spec ~ii:2 P.C_flow (`Builtin "example1") in
  let third = ok_outcome (Client.submit c flow_spec) in
  Alcotest.(check bool) "other command re-renders the cached flow" true third.P.o_cached

let test_inline_source () =
  with_server @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let src =
    "design wire_acc {\n" ^ "  in  sample : 12;\n" ^ "  out total  : 16;\n"
    ^ "  var acc    : 16;\n" ^ "  acc = 0;\n" ^ "  wait();\n"
    ^ "  do [name=main, latency=1..6, ii=2] {\n" ^ "    acc = acc + $sample;\n"
    ^ "    wait();\n" ^ "    $total = acc;\n" ^ "  } while (1);\n" ^ "}\n"
  in
  let spec = P.job_spec P.C_schedule (`Source src) in
  match Client.submit c spec with
  | Ok o ->
      Alcotest.(check bool)
        ("inline source compiles: " ^ Option.value o.P.o_diag ~default:"")
        true (o.P.o_status = P.S_ok)
  | Error m -> Alcotest.failf "inline submit: %s" m

let test_bad_design () =
  with_server @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.submit c (P.job_spec P.C_schedule (`Builtin "no_such_design")) with
  | Ok _ -> Alcotest.fail "unknown design accepted"
  | Error m ->
      Alcotest.(check bool) ("typed bad_design error: " ^ m) true
        (String.length m >= 10 && String.sub m 0 10 = "bad_design");
      (* the daemon must still be serving *)
      ignore (ok_outcome (Client.submit c (P.job_spec ~ii:2 P.C_schedule (`Builtin "example1"))))

let test_cancellation () =
  (* one worker: the first job occupies it, the second sits in the queue
     where cancellation is deterministic *)
  with_server ~workers:1 @@ fun socket ->
  let c1 = connect socket in
  let c2 = connect socket in
  Fun.protect
    ~finally:(fun () ->
      Client.close c1;
      Client.close c2)
  @@ fun () ->
  (* ~0.1 s of work, so the queued job is still queued when cancelled *)
  let long = P.job_spec ~verify:true P.C_flow (`Builtin "idct8x8") in
  let quick = P.job_spec ~ii:2 P.C_schedule (`Builtin "example1") in
  let id1 =
    match Client.submit_nowait c1 long with
    | Ok id -> id
    | Error m -> Alcotest.failf "submit long: %s" m
  in
  ignore id1;
  let id2 =
    match Client.submit_nowait c1 quick with
    | Ok id -> id
    | Error m -> Alcotest.failf "submit queued: %s" m
  in
  (match Client.cancel c2 id2 with
  | Ok found -> Alcotest.(check bool) "queued job was found" true found
  | Error m -> Alcotest.failf "cancel: %s" m);
  let o1 = match Client.await c1 with Ok o -> o | Error m -> Alcotest.failf "await 1: %s" m in
  let o2 = match Client.await c1 with Ok o -> o | Error m -> Alcotest.failf "await 2: %s" m in
  (* results arrive in completion order on this connection; sort by id *)
  let long_o, quick_o = if o1.P.o_job = id2 then (o2, o1) else (o1, o2) in
  Alcotest.(check bool) "long job completed" true (long_o.P.o_status = P.S_ok);
  Alcotest.(check bool) "queued job cancelled" true (quick_o.P.o_status = P.S_cancelled);
  (* daemon keeps serving after a cancellation *)
  ignore (ok_outcome (Client.submit c2 quick))

let test_concurrent_clients () =
  with_server ~workers:2 @@ fun socket ->
  let errors = Atomic.make 0 in
  let worker i =
    match Client.connect ~socket () with
    | Error _ -> Atomic.incr errors
    | Ok c ->
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let spec =
          P.job_spec ~ii:2 ~verify:false
            ~clock_ps:(1600.0 +. float_of_int i)
            P.C_schedule (`Builtin "example1")
        in
        (match Client.submit c spec with
        | Ok o when o.P.o_status = P.S_ok -> ()
        | _ -> Atomic.incr errors)
  in
  let threads = List.init 6 (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no client failed" 0 (Atomic.get errors)

(* ---- raw-frame fault matrix ---- *)

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let raw_hello fd =
  P.write_frame fd (P.request_to_json (P.Hello P.version));
  match P.read_frame fd with
  | Ok j when P.member "type" j = Some (P.String "hello") -> ()
  | _ -> Alcotest.fail "no hello answer"

let expect_error_code fd expected =
  match P.read_frame fd with
  | Ok j -> (
      match (P.member "type" j, Option.bind (P.member "code" j) P.get_string) with
      | Some (P.String "error"), Some code -> Alcotest.(check string) "error code" expected code
      | _ -> Alcotest.failf "expected %s error, got %s" expected (P.to_string j))
  | Error e -> Alcotest.failf "expected %s error, got frame error %s" expected
                 (P.frame_error_to_string e)

let write_raw_frame fd payload =
  let n = String.length payload in
  let hdr = Bytes.create 4 in
  Bytes.set_uint8 hdr 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 hdr 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 hdr 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 hdr 3 (n land 0xff);
  ignore (Unix.write fd hdr 0 4);
  ignore (Unix.write_substring fd payload 0 n)

let test_malformed_frame () =
  with_server @@ fun socket ->
  let fd = raw_connect socket in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  raw_hello fd;
  write_raw_frame fd "{this is not json";
  expect_error_code fd "bad_json";
  (* the stream stays framed: a well-formed request still works *)
  P.write_frame fd (P.request_to_json P.Stats);
  match P.read_frame fd with
  | Ok j -> Alcotest.(check bool) "stats after bad frame" true
              (P.member "type" j = Some (P.String "stats"))
  | Error e -> Alcotest.failf "stats after bad frame: %s" (P.frame_error_to_string e)

let test_oversized_frame () =
  with_server @@ fun socket ->
  let fd = raw_connect socket in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  raw_hello fd;
  (* declare an over-limit length; ship the payload so the daemon can
     drain it and keep the connection framed *)
  let n = P.max_frame + 1 in
  let hdr = Bytes.create 4 in
  Bytes.set_uint8 hdr 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 hdr 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 hdr 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 hdr 3 (n land 0xff);
  ignore (Unix.write fd hdr 0 4);
  (* the daemon discards the payload as it arrives, so shipping the whole
     oversized body cannot deadlock *)
  let chunk = Bytes.make 65536 ' ' in
  let rec ship left =
    if left > 0 then begin
      let k = min left (Bytes.length chunk) in
      ignore (Unix.write fd chunk 0 k);
      ship (left - k)
    end
  in
  ship n;
  expect_error_code fd "frame_too_large";
  (* connection survives *)
  P.write_frame fd (P.request_to_json P.Stats);
  match P.read_frame fd with
  | Ok j -> Alcotest.(check bool) "stats after oversized frame" true
              (P.member "type" j = Some (P.String "stats"))
  | Error e -> Alcotest.failf "stats after oversized: %s" (P.frame_error_to_string e)

let test_proto_mismatch_and_hello_required () =
  with_server @@ fun socket ->
  (* wrong protocol version is refused and the connection closed *)
  let fd = raw_connect socket in
  P.write_frame fd (P.request_to_json (P.Hello 9999));
  expect_error_code fd "proto_mismatch";
  (match P.read_frame fd with
  | Error P.F_eof -> ()
  | Ok j -> Alcotest.failf "expected close after mismatch, got %s" (P.to_string j)
  | Error e -> Alcotest.failf "expected clean close, got %s" (P.frame_error_to_string e));
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* requests before hello are refused *)
  let fd2 = raw_connect socket in
  Fun.protect ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
  @@ fun () ->
  P.write_frame fd2 (P.request_to_json P.Stats);
  expect_error_code fd2 "hello_required"

let test_disconnect_mid_stream () =
  with_server ~workers:1 @@ fun socket ->
  (* submit with trace streaming, then vanish mid-job: the daemon must
     swallow the dead peer and keep serving *)
  let fd = raw_connect socket in
  raw_hello fd;
  P.write_frame fd
    (P.request_to_json (P.Submit (P.job_spec ~trace:true P.C_flow (`Builtin "idct"))));
  (match P.read_frame fd with
  | Ok j when P.member "type" j = Some (P.String "accepted") -> ()
  | _ -> Alcotest.fail "no accepted frame");
  Unix.close fd;
  (* a fresh client still gets served, after the orphaned job finishes *)
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore (ok_outcome (Client.submit c (P.job_spec ~ii:2 P.C_schedule (`Builtin "example1"))))

(* ---- admission-control error paths, observed by a real client ---- *)

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* poll until [n] jobs are in flight, so queue depth is deterministic
   for the admission and dispatch tests *)
let wait_in_flight socket n =
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let infl =
      match Client.stats c with
      | Ok j -> Option.value (Option.bind (P.member "in_flight" j) P.get_int) ~default:0
      | Error m -> Alcotest.failf "stats: %s" m
    in
    if infl >= n then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "worker never reached %d in-flight job(s)" n
    else begin
      Thread.yield ();
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

(* a job that keeps a worker busy for ~0.1 s: long enough for
   [wait_in_flight]'s 10 ms polls to see it in flight (idct's ~10 ms flow
   could finish between two polls) *)
let long_spec ?(clock = 1600.0) () =
  P.job_spec ~verify:true ~clock_ps:clock P.C_flow (`Builtin "idct8x8")

(* at the queue bound fresh work is shed with the typed, retryable
   [overloaded] reject; cache hits are still served and the admitted
   jobs still complete *)
let test_overloaded_shed_but_cache_served () =
  with_server ~workers:1 ~queue_capacity:1 @@ fun socket ->
  let c1 = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c1) @@ fun () ->
  (* warm the cache before saturating the daemon *)
  let quick = P.job_spec ~ii:2 P.C_schedule (`Builtin "example1") in
  ignore (ok_outcome (Client.submit c1 quick));
  (match Client.submit_nowait c1 (long_spec ()) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "submit long: %s" m);
  wait_in_flight socket 1;
  (match Client.submit_nowait c1 (long_spec ~clock:1601.0 ()) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "submit queued: %s" m);
  (* the queue is at its bound: fresh work is shed, with a retry hint… *)
  let fd = raw_connect socket in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  raw_hello fd;
  P.write_frame fd (P.request_to_json (P.Submit (long_spec ~clock:1602.0 ())));
  (match P.read_frame fd with
  | Ok j ->
      Alcotest.(check (option string)) "typed overloaded" (Some "overloaded")
        (Option.bind (P.member "code" j) P.get_string);
      Alcotest.(check bool) "carries retry_after_ms" true
        (Option.bind (P.member "retry_after_ms" j) P.get_int <> None)
  | Error e -> Alcotest.failf "shed submit: %s" (P.frame_error_to_string e));
  (* …but a cache hit is served even at the bound *)
  let c2 = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  (match Client.submit c2 quick with
  | Ok o ->
      Alcotest.(check bool) "cache hit served under shed" true
        (o.P.o_status = P.S_ok && o.P.o_cached)
  | Error m -> Alcotest.failf "cache hit shed: %s" m);
  (* both admitted jobs still complete *)
  let o1 = match Client.await c1 with Ok o -> o | Error m -> Alcotest.failf "await 1: %s" m in
  let o2 = match Client.await c1 with Ok o -> o | Error m -> Alcotest.failf "await 2: %s" m in
  Alcotest.(check bool) "admitted jobs completed" true
    (o1.P.o_status = P.S_ok && o2.P.o_status = P.S_ok)

(* workers are interchangeable: two distinct jobs run side by side on
   two workers, even when their fingerprints hash alike (a per-slot
   [Hashtbl.hash key mod workers] routing would serialise them) *)
let test_idle_worker_takes_queued_job () =
  let design =
    match Design_db.load (`Builtin "idct8x8") with
    | Ok d -> d
    | Error m -> Alcotest.failf "load: %s" m
  in
  let slot_of clock =
    Hashtbl.hash (Hls_server.Artifact.key_of_spec ~design (long_spec ~clock ())) mod 2
  in
  let clock2 =
    List.init 32 (fun i -> 1601.0 +. float_of_int i)
    |> List.find_opt (fun c -> slot_of c = slot_of 1600.0)
    |> function
    | Some c -> c
    | None -> Alcotest.fail "no clock whose fingerprint shares the first one's slot"
  in
  with_server ~workers:2 @@ fun socket ->
  let c1 = connect socket in
  let c2 = connect socket in
  Fun.protect
    ~finally:(fun () ->
      Client.close c1;
      Client.close c2)
  @@ fun () ->
  List.iter
    (fun (c, clock) ->
      match Client.submit_nowait c (long_spec ~clock ()) with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "submit %.0f: %s" clock m)
    [ (c1, 1600.0); (c2, clock2) ];
  wait_in_flight socket 2;
  List.iter (fun c -> ignore (ok_outcome (Client.await c))) [ c1; c2 ]

(* a deadline the supervisor would trip at once is refused at the door:
   no worker is killed for it *)
let test_bad_deadline_refused () =
  with_server ~workers:1 @@ fun socket ->
  let fd = raw_connect socket in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  raw_hello fd;
  List.iter
    (fun d ->
      P.write_frame fd
        (P.request_to_json (P.Submit (P.job_spec ~deadline_s:d P.C_flow (`Builtin "idct"))));
      expect_error_code fd "bad_request")
    [ -1.0; 0.0 ];
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore (ok_outcome (Client.submit c (P.job_spec ~ii:2 P.C_schedule (`Builtin "example1"))));
  match Client.stats c with
  | Ok j ->
      Alcotest.(check (option int)) "no worker crashed" (Some 0)
        (Option.bind (P.member "supervisor" j) (fun o ->
             Option.bind (P.member "crashes" o) P.get_int))
  | Error m -> Alcotest.failf "stats: %s" m

(* [Server.create] refuses config values that would misbehave rather
   than fail, before binding anything *)
let test_create_checks_config () =
  List.iter
    (fun (label, cfg) ->
      let socket = fresh_socket () in
      match Server.create { cfg with Server.socket } with
      | Ok _ -> Alcotest.failf "%s accepted" label
      | Error _ -> Alcotest.(check bool) (label ^ ": nothing bound") false (Sys.file_exists socket))
    (let d = Server.default_config in
     [
       ("negative deadline", { d with Server.deadline_s = -1.0 });
       ("nan deadline", { d with Server.deadline_s = Float.nan });
       ("infinite deadline", { d with Server.deadline_s = Float.infinity });
       ("zero heartbeat timeout", { d with Server.hb_timeout_s = 0.0 });
       ("zero queue capacity", { d with Server.queue_capacity = 0 });
     ])

let test_draining_observed () =
  with_server ~workers:1 @@ fun socket ->
  let c1 = connect socket in
  let c2 = connect socket in
  Fun.protect
    ~finally:(fun () ->
      Client.close c1;
      Client.close c2)
  @@ fun () ->
  (match Client.submit_nowait c1 (long_spec ()) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "submit long: %s" m);
  wait_in_flight socket 1;
  (match Client.shutdown_server c2 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "shutdown verb: %s" m);
  (* the daemon is now draining: established connections get the typed
     refusal on new work… *)
  (match Client.submit c2 (P.job_spec ~ii:2 P.C_schedule (`Builtin "example1")) with
  | Ok _ -> Alcotest.fail "submit accepted while draining"
  | Error m -> Alcotest.(check bool) ("typed draining: " ^ m) true (has_prefix "draining" m));
  (* …while the in-flight job still completes *)
  match Client.await c1 with
  | Ok o -> Alcotest.(check bool) "in-flight job finished during drain" true (o.P.o_status = P.S_ok)
  | Error m -> Alcotest.failf "await during drain: %s" m

(* ---- wire-shape roundtrips for the new frames ---- *)

let test_new_frame_roundtrips () =
  (* health request *)
  (match P.request_of_json (P.request_to_json P.Health) with
  | Ok P.Health -> ()
  | Ok _ -> Alcotest.fail "health roundtrip changed the request kind"
  | Error m -> Alcotest.failf "health roundtrip: %s" m);
  (* deadline_s travels with the spec *)
  let spec = P.job_spec ~deadline_s:1.5 P.C_schedule (`Builtin "example1") in
  (match P.request_of_json (P.request_to_json (P.Submit spec)) with
  | Ok (P.Submit spec2) ->
      Alcotest.(check (option (float 1e-9))) "deadline_s preserved" (Some 1.5) spec2.P.js_deadline_s
  | Ok _ -> Alcotest.fail "roundtrip changed the request kind"
  | Error m -> Alcotest.failf "deadline roundtrip: %s" m);
  (* service-tier failures are result frames a stock client decodes *)
  List.iter
    (fun code ->
      let frame =
        P.Obj
          [
            ("type", P.String "result");
            ("job", P.Int 7);
            ("status", P.String "error");
            ("diag", P.String ("serve error [" ^ code ^ "]: lost it"));
            ("code", P.String code);
            ("cached", P.Bool false);
            ("wall_s", P.Float 0.25);
          ]
      in
      match P.outcome_of_json frame with
      | Ok o ->
          Alcotest.(check bool) (code ^ " decodes as error") true (o.P.o_status = P.S_error);
          Alcotest.(check (option string)) (code ^ " code survives") (Some code) o.P.o_code
      | Error m -> Alcotest.failf "%s outcome: %s" code m)
    [ "worker_lost"; "deadline_exceeded" ];
  (* the overloaded reject carries its retry hint *)
  let j = P.error_frame ~job:3 ~extra:[ ("retry_after_ms", P.Int 200) ] ~code:"overloaded" "shed" in
  Alcotest.(check (option int)) "retry_after_ms" (Some 200)
    (Option.bind (P.member "retry_after_ms" j) P.get_int);
  Alcotest.(check (option string)) "code" (Some "overloaded")
    (Option.bind (P.member "code" j) P.get_string)

let test_stats_shape () =
  with_server @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore (ok_outcome (Client.submit c (P.job_spec ~ii:2 P.C_schedule (`Builtin "example1"))));
  let j = match Client.stats c with Ok j -> j | Error m -> Alcotest.failf "stats: %s" m in
  let geti path =
    match Option.bind (P.member path j) P.get_int with
    | Some n -> n
    | None -> Alcotest.failf "stats field %s missing" path
  in
  Alcotest.(check int) "proto" P.version (geti "proto");
  Alcotest.(check bool) "workers >= 1" true (geti "workers" >= 1);
  let jobs = Option.get (P.member "jobs" j) in
  Alcotest.(check bool) "submitted >= 1" true
    (match Option.bind (P.member "submitted" jobs) P.get_int with Some n -> n >= 1 | None -> false);
  let cache = Option.get (P.member "cache" j) in
  Alcotest.(check bool) "cache entries >= 1" true
    (match Option.bind (P.member "entries" cache) P.get_int with Some n -> n >= 1 | None -> false)

(* a client that submits requests but never reads a reply must fill its
   bounded outbox and be evicted — and the daemon must keep serving
   everyone else meanwhile (regression: result writes used to happen
   under the global mutex, so one such client wedged the whole tier) *)
let test_slow_client_evicted () =
  with_server @@ fun socket ->
  let fd = raw_connect socket in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  raw_hello fd;
  (* ~4000 stats replies ≫ socket buffers + the 256-frame outbox, so the
     daemon is guaranteed to hit the overflow path; the eviction surfaces
     to us as EPIPE/ECONNRESET on a later request write *)
  let stats_req = P.to_string (P.request_to_json P.Stats) in
  let evicted = ref false in
  (try
     for _ = 1 to 4000 do
       write_raw_frame fd stats_req
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> evicted := true);
  Alcotest.(check bool) "never-reading client evicted" true !evicted;
  (* the daemon must answer a well-behaved client promptly afterwards *)
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.stats c with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "daemon wedged by a slow client: %s" m);
  ignore (ok_outcome (Client.submit c (P.job_spec ~ii:2 P.C_schedule (`Builtin "example1"))))

(* the in-memory cache is bounded: beyond [cache_cap] entries the oldest
   is evicted, and an evicted key recompiles to byte-identical output *)
let test_cache_bounded () =
  with_server ~cache_cap:2 @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let spec1 = P.job_spec ~ii:2 P.C_schedule (`Builtin "example1") in
  let first = ok_outcome (Client.submit c spec1) in
  ignore (ok_outcome (Client.submit c (P.job_spec ~ii:1 P.C_pipeline (`Builtin "fir8"))));
  ignore (ok_outcome (Client.submit c (P.job_spec P.C_flow (`Builtin "fft"))));
  let j = match Client.stats c with Ok j -> j | Error m -> Alcotest.failf "stats: %s" m in
  let entries =
    match
      Option.bind (P.member "cache" j) (fun cj -> Option.bind (P.member "entries" cj) P.get_int)
    with
    | Some n -> n
    | None -> Alcotest.fail "stats cache.entries missing"
  in
  Alcotest.(check int) "cache capped at 2 entries" 2 entries;
  (* the first key was evicted: a resubmit is a cold compile again, and
     its bytes are identical to the original answer *)
  let again = ok_outcome (Client.submit c spec1) in
  Alcotest.(check bool) "evicted key recompiles (not a cache hit)" false again.P.o_cached;
  Alcotest.(check string) "recompile is byte-identical" first.P.o_output again.P.o_output

(* two clients racing identical submits of one design fingerprint must
   trigger exactly one compile: the second rides the first's in-flight
   job and both answers are byte-identical *)
let test_coalesced_submits () =
  with_server ~workers:1 @@ fun socket ->
  let c1 = connect socket in
  let c2 = connect socket in
  let c3 = connect socket in
  Fun.protect
    ~finally:(fun () ->
      Client.close c1;
      Client.close c2;
      Client.close c3)
  @@ fun () ->
  (* occupy the only worker so the racing submits both sit in admission *)
  (match Client.submit_nowait c1 (long_spec ()) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "submit long: %s" m);
  wait_in_flight socket 1;
  let spec = P.job_spec ~verify:true P.C_flow (`Builtin "fft") in
  (match Client.submit_nowait c2 spec with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "submit racer 1: %s" m);
  (match Client.submit_nowait c3 spec with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "submit racer 2: %s" m);
  (* both admitted: the daemon must have coalesced the second before any
     of them compiles (the worker is still busy) *)
  let stats_int path =
    let c = connect socket in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    match Client.stats c with
    | Ok j ->
        Option.value
          (Option.bind (P.member "jobs" j) (fun o ->
               Option.bind (P.member path o) P.get_int))
          ~default:(-1)
    | Error m -> Alcotest.failf "stats: %s" m
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_coalesced () =
    if stats_int "coalesced" >= 1 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "racing submit was never coalesced"
    else begin
      Unix.sleepf 0.01;
      wait_coalesced ()
    end
  in
  wait_coalesced ();
  ignore (Client.await c1);
  let o2 = match Client.await c2 with Ok o -> o | Error m -> Alcotest.failf "await 2: %s" m in
  let o3 = match Client.await c3 with Ok o -> o | Error m -> Alcotest.failf "await 3: %s" m in
  Alcotest.(check bool) "both racers ok" true (o2.P.o_status = P.S_ok && o3.P.o_status = P.S_ok);
  Alcotest.(check string) "byte-identical answers" o2.P.o_output o3.P.o_output;
  Alcotest.(check bool) "exactly one compiled fresh, one rode it" true
    (o2.P.o_cached <> o3.P.o_cached);
  Alcotest.(check int) "one submit coalesced" 1 (stats_int "coalesced");
  Alcotest.(check string) "matches the offline CLI" (offline_output spec) o2.P.o_output

let test_json_roundtrip () =
  let samples =
    [
      {|{"a":1,"b":[true,false,null],"c":"x\"y\\z","d":-2.5,"e":{"nested":"é\n"}}|};
      {|[1,2,3]|};
      {|"just a string"|};
      {|-42|};
    ]
  in
  List.iter
    (fun s ->
      match P.of_string s with
      | Error m -> Alcotest.failf "parse %s: %s" s m
      | Ok j -> (
          match P.of_string (P.to_string j) with
          | Ok j2 -> Alcotest.(check bool) ("roundtrip " ^ s) true (j = j2)
          | Error m -> Alcotest.failf "reparse: %s" m))
    samples;
  (match P.of_string "{broken" with
  | Ok _ -> Alcotest.fail "accepted broken json"
  | Error _ -> ());
  let spec =
    P.job_spec ~ii:3 ~min_latency:4 ~max_latency:9 ~max_passes:50 ~timeout_s:1.5 ~verify:false
      ~trace:true ~clock_ps:1200.0 P.C_pipeline (`Source "design d {}")
  in
  match P.request_of_json (P.request_to_json (P.Submit spec)) with
  | Ok (P.Submit spec2) -> Alcotest.(check bool) "job_spec roundtrip" true (spec = spec2)
  | Ok _ -> Alcotest.fail "roundtrip changed the request kind"
  | Error m -> Alcotest.failf "request roundtrip: %s" m

(* the one JSON escaper: every control character (and the two JSON
   metacharacters) written by [Diag.json_string] reads back unchanged *)
let test_json_string_control_chars () =
  let s = String.init 32 Char.chr ^ "\"\\/ tail" in
  let lit = Hls_diag.Diag.json_string s in
  Alcotest.(check bool) "no raw control byte in the literal" true
    (String.for_all (fun c -> Char.code c >= 0x20) lit);
  Alcotest.(check string) "tab uses its short escape" "\"\\t\"" (Hls_diag.Diag.json_string "\t");
  match P.of_string lit with
  | Ok (P.String s') -> Alcotest.(check string) "reads back the original" s s'
  | Ok _ -> Alcotest.fail "not a JSON string"
  | Error m -> Alcotest.failf "parse: %s" m

let suite =
  [
    Alcotest.test_case "json + request roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json string escapes every control character" `Quick
      test_json_string_control_chars;
    Alcotest.test_case "submit is byte-identical to offline CLI" `Quick test_byte_identity;
    Alcotest.test_case "cache hits are deterministic" `Quick test_cache_hit_determinism;
    Alcotest.test_case "inline .bhv source over the wire" `Quick test_inline_source;
    Alcotest.test_case "unknown design: typed error, daemon survives" `Quick test_bad_design;
    Alcotest.test_case "cancellation leaves the daemon serving" `Quick test_cancellation;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "malformed frame: typed error, stream survives" `Quick test_malformed_frame;
    Alcotest.test_case "oversized frame: typed error, stream survives" `Quick test_oversized_frame;
    Alcotest.test_case "version mismatch + hello-first" `Quick test_proto_mismatch_and_hello_required;
    Alcotest.test_case "disconnect mid-stream" `Quick test_disconnect_mid_stream;
    Alcotest.test_case "overloaded shed; cache hits still served" `Quick
      test_overloaded_shed_but_cache_served;
    Alcotest.test_case "idle worker takes a queued job" `Quick test_idle_worker_takes_queued_job;
    Alcotest.test_case "bad deadline: typed bad_request, no worker killed" `Quick
      test_bad_deadline_refused;
    Alcotest.test_case "create checks the config" `Quick test_create_checks_config;
    Alcotest.test_case "draining observed by a client" `Quick test_draining_observed;
    Alcotest.test_case "racing identical submits coalesce to one compile" `Quick
      test_coalesced_submits;
    Alcotest.test_case "new frame roundtrips" `Quick test_new_frame_roundtrips;
    Alcotest.test_case "stats shape" `Quick test_stats_shape;
    Alcotest.test_case "slow client evicted, daemon unharmed" `Quick test_slow_client_evicted;
    Alcotest.test_case "cache bounded with FIFO eviction" `Quick test_cache_bounded;
  ]
