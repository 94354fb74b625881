(** Daemon implementation.  See the interface for the process model;
    the invariants that matter here:

    - [t.mutex] guards the job table, the shared queue, the slot array,
      statistics and the in-memory artifact cache.  Lock order is
      [t.mutex] → [conn.c_wmutex]; nothing takes them the other way.
    - No thread ever performs socket I/O to a client while holding
      [t.mutex].  [send] only enqueues the frame on the connection's
      bounded outbox (an O(1) step under [c_wmutex]); a per-connection
      writer thread drains the outbox and does the actual (possibly
      blocking, multi-MB) [write_frame].  A client that disconnects
      mid-stream turns into silently dropped frames, never an unhandled
      [EPIPE]; a client that stops *reading* fills its outbox and is
      evicted (socket shut down, frames dropped) instead of wedging the
      daemon.  Writes to a worker pipe may fail when the worker just
      died; they are deliberately ignored — the slot's reader thread
      owns the death and will re-queue the job.
    - Workers are interchangeable: every job waits on one FIFO
      [t.queue] and goes to whichever live worker idles first.
    - Exactly one thread retires a worker: its reader.  The supervisor
      only ever SIGKILLs (recording why in [s_kill_reason]); the kill
      surfaces to the reader as EOF, which closes the fd, reaps the pid,
      re-queues or fails the in-hand job, and schedules the respawn.
    - [stop] is just an atomic flag plus one self-pipe byte: safe from a
      signal handler.  The listener thread notices and runs the drain. *)

module Diag = Hls_diag.Diag
module Store = Hls_store.Store
module P = Protocol

type config = {
  socket : string;
  tcp_port : int option;
  workers : int;
  queue_capacity : int;
  store_dir : string option;
  deadline_s : float;
  hb_interval_s : float;
  hb_timeout_s : float;
  max_requeues : int;
  backoff_base_s : float;
  backoff_cap_s : float;
  cache_cap : int;
  chaos : Worker.chaos option;
  verbose : bool;
}

let default_config =
  {
    socket = "hlsc.sock";
    tcp_port = None;
    workers = 2;
    queue_capacity = 48;
    store_dir = None;
    deadline_s = 300.0;
    hb_interval_s = 0.05;
    hb_timeout_s = 2.0;
    max_requeues = 1;
    backoff_base_s = 0.05;
    backoff_cap_s = 2.0;
    cache_cap = 512;
    chaos = None;
    verbose = false;
  }

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_wmutex : Mutex.t;  (** guards [c_outq], [c_writing], [c_alive], [c_closing] *)
  c_wcv : Condition.t;  (** outbox activity (frame queued, state change) *)
  c_outq : P.json Queue.t;  (** bounded outbox, drained by [c_writer] *)
  mutable c_writing : bool;  (** the writer holds a frame taken off [c_outq] *)
  mutable c_alive : bool;  (** cleared on write failure or outbox overflow *)
  mutable c_closing : bool;  (** read side done; writer exits once drained *)
  mutable c_writer : Thread.t option;
}

type job = {
  j_id : int;
  j_spec : P.job_spec;
  j_conn : conn;
  j_key : string;  (** two-level fingerprint: cache and store key *)
  mutable j_cancelled : bool;  (** guarded by [t.mutex] *)
  mutable j_waiters : (int * conn) list;
      (** coalesced submits of the same fingerprint, newest first: each
          gets its own job id and a copy of this job's answer (guarded by
          [t.mutex]).  A job with waiters ignores cancellation — the
          compile is shared. *)
  mutable j_requeues : int;  (** re-dispatches after a lost worker *)
  mutable j_started : float;  (** when last dispatched *)
  mutable j_deadline : float;  (** absolute kill deadline once dispatched *)
}

type slot_state = W_idle | W_busy of job | W_dead
type kill_reason = K_none | K_deadline | K_hang

(* one supervised worker process; all fields guarded by [t.mutex] *)
type slot = {
  s_idx : int;
  mutable s_state : slot_state;
  mutable s_pid : int;  (** 0 when no process *)
  mutable s_fd : Unix.file_descr;  (** meaningful only when [s_pid <> 0] *)
  mutable s_gen : int;  (** respawn generation *)
  mutable s_last_beat : float;
  mutable s_crashes : int;  (** consecutive losses; reset on a completion *)
  mutable s_respawn_at : float;  (** earliest respawn when [W_dead] *)
  mutable s_kill_reason : kill_reason;  (** why the supervisor shot it *)
}

type t = {
  cfg : config;
  listeners : Unix.file_descr list;
  store : Store.t option;
  mutex : Mutex.t;
  drain_cv : Condition.t;  (** signalled whenever a job leaves the system *)
  cache : (string, Artifact.t) Hashtbl.t;
  cache_order : string Queue.t;  (** insertion order, for FIFO eviction *)
  jobs : (int, job) Hashtbl.t;  (** queued or in flight *)
  inflight_keys : (string, job) Hashtbl.t;
      (** fingerprint → the queued/in-flight job computing it; a second
          submit of the same key rides this one instead of compiling *)
  queue : job Queue.t;  (** admitted jobs not yet dispatched, FIFO *)
  slots : slot array;
  mutable next_job : int;
  mutable next_conn : int;
  mutable in_flight : int;
  mutable conns : (Thread.t * conn) list;
  mutable readers : Thread.t list;
  mutable supervisor : Thread.t option;
  mutable stopping_workers : bool;  (** drain: readers stop respawn bookkeeping *)
  sup_stop : bool Atomic.t;
  (* statistics *)
  mutable n_submitted : int;
  mutable n_ok : int;
  mutable n_failed : int;
  mutable n_cancelled : int;
  mutable n_rejected : int;
  mutable n_shed : int;
  mutable n_cache_hits : int;
  mutable n_coalesced : int;
  mutable n_store_hits : int;
  mutable n_conns_total : int;
  mutable n_crashes : int;
  mutable n_respawns : int;
  mutable n_requeued : int;
  mutable n_deadline_kills : int;
  mutable n_hang_kills : int;
  mutable st_passes : int;
  mutable st_warm : int;
  mutable st_cold : int;
  mutable st_queries : int;
  mutable st_actions : int;
  started : float;
  stop_flag : bool Atomic.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
}

let logv t fmt =
  Printf.ksprintf (fun s -> if t.cfg.verbose then Printf.eprintf "hlsc serve: %s\n%!" s) fmt

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let quiet_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Frame output.

   Result frames can carry multi-MB renders, and a client is free to
   stop reading; if the daemon wrote frames synchronously from whatever
   thread produced them (often while holding [t.mutex]), one such client
   would wedge dispatch, supervision and every other connection.  So
   [send] never touches the socket: it enqueues on a bounded outbox and
   the connection's writer thread performs the blocking writes.  A peer
   whose outbox overflows [outbox_cap] is declared dead and its socket
   shut down — eviction, not backpressure, because nothing upstream of a
   result frame can usefully wait. *)

let outbox_cap = 256

let mark_dead_locked conn =
  conn.c_alive <- false;
  Queue.clear conn.c_outq;
  Condition.broadcast conn.c_wcv

let send conn frame =
  Mutex.lock conn.c_wmutex;
  (if conn.c_alive && not conn.c_closing then
     if Queue.length conn.c_outq >= outbox_cap then begin
       mark_dead_locked conn;
       (* unwedge the writer (blocked on a full socket buffer) and the
          reader (blocked on a peer that sends nothing either) *)
       try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
     end
     else begin
       Queue.push frame conn.c_outq;
       Condition.broadcast conn.c_wcv
     end);
  Mutex.unlock conn.c_wmutex

(* the writer thread: drains the outbox in order; exits when the peer is
   dead or the connection is closing with nothing left to flush *)
let conn_writer conn =
  let rec loop () =
    Mutex.lock conn.c_wmutex;
    while Queue.is_empty conn.c_outq && conn.c_alive && not conn.c_closing do
      Condition.wait conn.c_wcv conn.c_wmutex
    done;
    match Queue.take_opt conn.c_outq with
    | None -> Mutex.unlock conn.c_wmutex
    | Some frame ->
        conn.c_writing <- true;
        Mutex.unlock conn.c_wmutex;
        let ok =
          try
            P.write_frame conn.c_fd frame;
            true
          with
          | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) | Sys_error _ ->
            false
        in
        Mutex.lock conn.c_wmutex;
        conn.c_writing <- false;
        if not ok then mark_dead_locked conn;
        Mutex.unlock conn.c_wmutex;
        loop ()
  in
  loop ()

(* retire a connection: give the writer a bounded grace to flush what a
   live peer is still owed, then shut the socket (unwedging a writer
   blocked on a peer that stopped reading), join the writer, close *)
let close_conn conn =
  let deadline = Unix.gettimeofday () +. 5.0 in
  Mutex.lock conn.c_wmutex;
  conn.c_closing <- true;
  Condition.broadcast conn.c_wcv;
  (* poll, not [Condition.wait]: there is no timed wait, and a writer
     wedged inside [write_frame] would never signal *)
  while
    conn.c_alive
    && (conn.c_writing || not (Queue.is_empty conn.c_outq))
    && Unix.gettimeofday () < deadline
  do
    Mutex.unlock conn.c_wmutex;
    Thread.delay 0.005;
    Mutex.lock conn.c_wmutex
  done;
  mark_dead_locked conn;
  Mutex.unlock conn.c_wmutex;
  (try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (match conn.c_writer with Some th -> Thread.join th | None -> ());
  quiet_close conn.c_fd

let cancelled_frame job_id =
  P.Obj
    [
      ("type", P.String "result");
      ("job", P.Int job_id);
      ("status", P.String "cancelled");
      ("cached", P.Bool false);
      ("wall_s", P.Float 0.0);
    ]

(* a service-tier failure is still a [result] frame (the job was accepted
   and has an answer) — just one whose diagnostic the daemon authored *)
let failed_result_frame ~job_id ~wall ~code msg =
  let d = Diag.make ~phase:Diag.Serve ~code "%s" msg in
  P.Obj
    [
      ("type", P.String "result");
      ("job", P.Int job_id);
      ("status", P.String "error");
      ("diag", P.String (Diag.to_string d));
      ("diag_json", P.String (Diag.to_json d));
      ("code", P.String code);
      ("cached", P.Bool false);
      ("wall_s", P.Float wall);
    ]

(* ------------------------------------------------------------------ *)
(* In-memory cache (guarded by [t.mutex]).

   Bounded at [cache_cap] entries with FIFO eviction — artifacts carry
   every rendered output and can run to megabytes, so an unbounded table
   is a slow leak on any long-lived daemon.  FIFO (not LRU) is enough:
   the persistent store keeps durable copies, so evicting a hot key only
   costs a store read on its next submit. *)

let cache_put_locked t key a =
  if not (Hashtbl.mem t.cache key) then begin
    while Hashtbl.length t.cache >= t.cfg.cache_cap do
      match Queue.take_opt t.cache_order with
      | Some victim -> Hashtbl.remove t.cache victim
      | None -> Hashtbl.reset t.cache (* unreachable: order mirrors the table *)
    done;
    Queue.push key t.cache_order
  end;
  Hashtbl.replace t.cache key a

(* ------------------------------------------------------------------ *)
(* Accounting *)

let account t (a : Artifact.t) ~store_hit =
  if a.Artifact.a_ok then begin
    t.n_ok <- t.n_ok + 1;
    if not store_hit then begin
      (* the st_* pass counters track scheduling actually performed *)
      t.st_passes <- t.st_passes + a.Artifact.a_passes;
      t.st_warm <- t.st_warm + a.Artifact.a_warm;
      t.st_cold <- t.st_cold + a.Artifact.a_cold;
      t.st_queries <- t.st_queries + a.Artifact.a_queries;
      t.st_actions <- t.st_actions + a.Artifact.a_actions
    end
  end
  else t.n_failed <- t.n_failed + 1

(* ------------------------------------------------------------------ *)
(* Dispatch (all _locked functions require [t.mutex] held) *)

let job_frame job =
  P.Obj
    [
      ("type", P.String "job");
      ("job", P.Int job.j_id);
      ("spec", P.request_to_json (P.Submit job.j_spec));
    ]

let dispatch_locked t slot job =
  let now = Unix.gettimeofday () in
  slot.s_state <- W_busy job;
  t.in_flight <- t.in_flight + 1;
  job.j_started <- now;
  job.j_deadline <-
    now +. Option.value job.j_spec.P.js_deadline_s ~default:t.cfg.deadline_s;
  (* a failed write means the worker just died: leave the job in
     [W_busy] — the slot's reader owns the death and will re-queue it *)
  try P.write_frame slot.s_fd (job_frame job)
  with Unix.Unix_error _ | Sys_error _ -> ()

(* a slot can take a job when it idles and the supervisor has not
   already SIGKILLed it (its wresult may still have raced in and idled
   the slot): a job handed to that corpse would be mis-billed for the
   *previous* job's kill reason when the death is processed *)
let takes_work slot = slot.s_state = W_idle && slot.s_kill_reason = K_none

(* hand queued jobs, oldest first, to idle workers until either runs out *)
let rec pump_locked t =
  match Array.find_opt takes_work t.slots with
  | None -> ()
  | Some slot -> (
      match Queue.take_opt t.queue with
      | None -> ()
      | Some job ->
          (* cancellation is honoured only when nobody else rides the
             job: coalesced waiters keep the compile alive *)
          if job.j_cancelled && job.j_waiters = [] then begin
            t.n_cancelled <- t.n_cancelled + 1;
            Hashtbl.remove t.jobs job.j_id;
            Hashtbl.remove t.inflight_keys job.j_key;
            send job.j_conn (cancelled_frame job.j_id);
            Condition.broadcast t.drain_cv
          end
          else dispatch_locked t slot job;
          pump_locked t)

(* the crashed slot stays [W_dead] until its respawn, so another worker
   picks the job up first whenever one is alive *)
let requeue_locked t job =
  job.j_requeues <- job.j_requeues + 1;
  t.n_requeued <- t.n_requeued + 1;
  t.in_flight <- t.in_flight - 1;
  Queue.push job t.queue;
  pump_locked t

let fail_inflight_locked t job ~code msg =
  t.in_flight <- t.in_flight - 1;
  t.n_failed <- t.n_failed + 1;
  Hashtbl.remove t.jobs job.j_id;
  Hashtbl.remove t.inflight_keys job.j_key;
  let wall = Unix.gettimeofday () -. job.j_started in
  send job.j_conn (failed_result_frame ~job_id:job.j_id ~wall ~code msg);
  (* coalesced waiters share the owner's fate *)
  List.iter
    (fun (wid, wconn) ->
      t.n_failed <- t.n_failed + 1;
      send wconn (failed_result_frame ~job_id:wid ~wall ~code msg))
    (List.rev job.j_waiters);
  job.j_waiters <- []

(* ------------------------------------------------------------------ *)
(* Worker frames (reader threads, one per live worker generation) *)

let handle_wresult t slot frame =
  let job_id = Option.value (Option.bind (P.member "job" frame) P.get_int) ~default:(-1) in
  let store_hit =
    Option.value (Option.bind (P.member "store_hit" frame) P.get_bool) ~default:false
  in
  let artifact =
    match P.member "artifact" frame with
    | Some j -> Artifact.of_json j
    | None -> Error "wresult frame without artifact"
  in
  locked t (fun () ->
      slot.s_crashes <- 0;
      (match slot.s_state with
      | W_busy j when j.j_id = job_id -> slot.s_state <- W_idle
      | _ -> ());
      (match Hashtbl.find_opt t.jobs job_id with
      | None -> ()
      | Some job -> (
          t.in_flight <- t.in_flight - 1;
          Hashtbl.remove t.jobs job_id;
          Hashtbl.remove t.inflight_keys job.j_key;
          let waiters = List.rev job.j_waiters in
          job.j_waiters <- [];
          match artifact with
          | Error m ->
              let wall = Unix.gettimeofday () -. job.j_started in
              let msg = "worker returned an undecodable artifact: " ^ m in
              t.n_failed <- t.n_failed + 1;
              send job.j_conn (failed_result_frame ~job_id ~wall ~code:"worker_lost" msg);
              List.iter
                (fun (wid, wconn) ->
                  t.n_failed <- t.n_failed + 1;
                  send wconn (failed_result_frame ~job_id:wid ~wall ~code:"worker_lost" msg))
                waiters
          | Ok a ->
              cache_put_locked t job.j_key a;
              if store_hit then t.n_store_hits <- t.n_store_hits + 1;
              if job.j_cancelled && waiters = [] then begin
                t.n_cancelled <- t.n_cancelled + 1;
                send job.j_conn (cancelled_frame job_id)
              end
              else begin
                account t a ~store_hit;
                send job.j_conn
                  (Artifact.result_frame ~job:job_id ~cmd:job.j_spec.P.js_cmd ~cached:store_hit a)
              end;
              (* coalesced waiters get the same artifact, marked cached:
                 exactly one compile happened for the whole cohort *)
              List.iter
                (fun (wid, wconn) ->
                  if a.Artifact.a_ok then t.n_ok <- t.n_ok + 1 else t.n_failed <- t.n_failed + 1;
                  send wconn
                    (Artifact.result_frame ~job:wid ~cmd:job.j_spec.P.js_cmd ~cached:true a))
                waiters));
      pump_locked t;
      Condition.broadcast t.drain_cv)

let handle_worker_death t slot ~gen ~pid ~fd =
  Mutex.lock t.mutex;
  if slot.s_gen = gen then begin
    quiet_close fd;
    let status =
      match Unix.waitpid [] pid with
      | _, st -> st
      | exception Unix.Unix_error _ -> Unix.WEXITED 0
    in
    let reason = slot.s_kill_reason in
    slot.s_kill_reason <- K_none;
    slot.s_pid <- 0;
    let busy = match slot.s_state with W_busy j -> Some j | _ -> None in
    slot.s_state <- W_dead;
    if t.stopping_workers then () (* drain retirement: nothing to book-keep *)
    else begin
      t.n_crashes <- t.n_crashes + 1;
      slot.s_crashes <- slot.s_crashes + 1;
      let backoff =
        Float.min t.cfg.backoff_cap_s
          (t.cfg.backoff_base_s *. (2.0 ** float_of_int (slot.s_crashes - 1)))
      in
      slot.s_respawn_at <- Unix.gettimeofday () +. backoff;
      let status_str =
        match status with
        | Unix.WEXITED n -> Printf.sprintf "exit %d" n
        | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
        | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n
      in
      (match busy with
      | None -> ()
      | Some job -> (
          match reason with
          | K_deadline ->
              t.n_deadline_kills <- t.n_deadline_kills + 1;
              fail_inflight_locked t job ~code:"deadline_exceeded"
                (Printf.sprintf "job exceeded its %.1fs wall deadline and its worker was killed"
                   (job.j_deadline -. job.j_started))
          | K_hang | K_none ->
              if reason = K_hang then t.n_hang_kills <- t.n_hang_kills + 1;
              if job.j_cancelled && job.j_waiters = [] then begin
                t.in_flight <- t.in_flight - 1;
                t.n_cancelled <- t.n_cancelled + 1;
                Hashtbl.remove t.jobs job.j_id;
                Hashtbl.remove t.inflight_keys job.j_key;
                send job.j_conn (cancelled_frame job.j_id)
              end
              else if job.j_requeues < t.cfg.max_requeues then
                requeue_locked t job
              else
                fail_inflight_locked t job ~code:"worker_lost"
                  (Printf.sprintf
                     "worker died %d time(s) running this job (%s); giving up after %d \
                      re-dispatch(es)"
                     (job.j_requeues + 1) status_str job.j_requeues)));
      logv t "slot %d worker (pid %d) lost: %s, %s; respawn in %.0f ms" slot.s_idx pid
        status_str
        (match reason with
        | K_deadline -> "deadline kill"
        | K_hang -> "hang kill"
        | K_none -> "crash")
        (backoff *. 1000.0)
    end;
    Condition.broadcast t.drain_cv
  end;
  (* this reader is about to return: drop its handle so [t.readers] does
     not grow by one thread per respawn for the daemon's lifetime (the
     drain joins whatever is still listed; a thread that unlisted itself
     here has nothing left to do but return) *)
  (let self_id = Thread.id (Thread.self ()) in
   t.readers <- List.filter (fun th -> Thread.id th <> self_id) t.readers);
  Mutex.unlock t.mutex

let reader t slot ~gen ~pid ~fd =
  let rec loop () =
    match P.read_frame fd with
    | Error (P.F_eof | P.F_oversized _ | P.F_bad_json _) ->
        handle_worker_death t slot ~gen ~pid ~fd
    | Ok frame -> (
        (match Option.bind (P.member "type" frame) P.get_string with
        | Some "heartbeat" | Some "ready" ->
            locked t (fun () -> slot.s_last_beat <- Unix.gettimeofday ())
        | Some "event" -> (
            let job_id =
              Option.value (Option.bind (P.member "job" frame) P.get_int) ~default:(-1)
            in
            match locked t (fun () -> Hashtbl.find_opt t.jobs job_id) with
            | Some job -> send job.j_conn frame
            | None -> ())
        | Some "wresult" -> handle_wresult t slot frame
        | Some _ | None -> ());
        loop ())
  in
  loop ()

(* requires [t.mutex] held (or a single-threaded process, in [create]).
   The child inherits the parent image mid-lock: it must touch nothing of
   [t] beyond reading the snapshot of descriptors to close, and must
   leave through [Worker.main]'s [_exit] paths only. *)
let spawn_locked t slot =
  let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
      quiet_close parent_fd;
      List.iter quiet_close t.listeners;
      quiet_close t.stop_r;
      quiet_close t.stop_w;
      Array.iter (fun s -> if s.s_pid <> 0 then quiet_close s.s_fd) t.slots;
      List.iter (fun (_, c) -> quiet_close c.c_fd) t.conns;
      Worker.main
        {
          Worker.w_slot = slot.s_idx;
          w_gen = slot.s_gen + 1;
          w_hb_interval_s = t.cfg.hb_interval_s;
          w_store_dir = t.cfg.store_dir;
          w_chaos = t.cfg.chaos;
        }
        child_fd
  | pid ->
      Unix.close child_fd;
      slot.s_gen <- slot.s_gen + 1;
      slot.s_pid <- pid;
      slot.s_fd <- parent_fd;
      slot.s_state <- W_idle;
      slot.s_last_beat <- Unix.gettimeofday ();
      slot.s_kill_reason <- K_none;
      let gen = slot.s_gen in
      let th = Thread.create (fun () -> reader t slot ~gen ~pid ~fd:parent_fd) () in
      t.readers <- th :: t.readers;
      logv t "slot %d worker spawned (pid %d, gen %d)" slot.s_idx pid gen

(* ------------------------------------------------------------------ *)
(* Supervisor *)

let supervise t =
  while not (Atomic.get t.sup_stop) do
    Unix.sleepf 0.02;
    locked t (fun () ->
        let now = Unix.gettimeofday () in
        Array.iter
          (fun slot ->
            match slot.s_state with
            | W_busy job when slot.s_kill_reason = K_none && now > job.j_deadline ->
                slot.s_kill_reason <- K_deadline;
                logv t "slot %d: job %d blew its deadline; killing pid %d" slot.s_idx job.j_id
                  slot.s_pid;
                (try Unix.kill slot.s_pid Sys.sigkill with Unix.Unix_error _ -> ())
            | W_busy _ | W_idle ->
                if
                  slot.s_kill_reason = K_none
                  && now -. slot.s_last_beat > t.cfg.hb_timeout_s
                then begin
                  slot.s_kill_reason <- K_hang;
                  logv t "slot %d: heartbeat %.2fs stale; killing pid %d" slot.s_idx
                    (now -. slot.s_last_beat) slot.s_pid;
                  try Unix.kill slot.s_pid Sys.sigkill with Unix.Unix_error _ -> ()
                end
            | W_dead ->
                if (not t.stopping_workers) && slot.s_pid = 0 && now >= slot.s_respawn_at
                then begin
                  t.n_respawns <- t.n_respawns + 1;
                  spawn_locked t slot;
                  pump_locked t
                end)
          t.slots;
        if Atomic.get t.stop_flag then Condition.broadcast t.drain_cv)
  done

(* ------------------------------------------------------------------ *)
(* Request handling (connection threads) *)

(* [Store.stats] walks the object tree on a cold scan (O(entries) stats;
   the store caches the result, but even a cached miss is disk I/O):
   take it OUTSIDE [t.mutex] so a monitoring poller can never stall
   dispatch or supervision.  [t.n_store_hits] is a single immediate
   field read — benign outside the lock for an advisory counter. *)
let store_stats_unlocked t =
  match t.store with
  | None -> None
  | Some st -> Some (Store.stats st)

let stats_frame t =
  let store_json =
    match store_stats_unlocked t with
    | None -> P.Obj [ ("enabled", P.Bool false) ]
    | Some s ->
        P.Obj
          [
            ("enabled", P.Bool true);
            ("entries", P.Int s.Store.st_entries);
            ("bytes", P.Int s.Store.st_bytes);
            ("quarantined", P.Int s.Store.st_quarantined);
            ("hits", P.Int t.n_store_hits);
          ]
  in
  locked t (fun () ->
      P.Obj
        [
          ("type", P.String "stats");
          ("proto", P.Int P.version);
          ("version", P.String P.binary_version);
          ("uptime_s", P.Float (Unix.gettimeofday () -. t.started));
          ("workers", P.Int t.cfg.workers);
          ("queue_depth", P.Int (Queue.length t.queue));
          ("in_flight", P.Int t.in_flight);
          ("queue_capacity", P.Int t.cfg.queue_capacity);
          ("draining", P.Bool (Atomic.get t.stop_flag));
          ("connections_active", P.Int (List.length t.conns));
          ("connections_total", P.Int t.n_conns_total);
          ( "jobs",
            P.Obj
              [
                ("submitted", P.Int t.n_submitted);
                ("ok", P.Int t.n_ok);
                ("failed", P.Int t.n_failed);
                ("cancelled", P.Int t.n_cancelled);
                ("rejected", P.Int t.n_rejected);
                ("shed", P.Int t.n_shed);
                ("coalesced", P.Int t.n_coalesced);
              ] );
          ( "cache",
            P.Obj
              [
                ("entries", P.Int (Hashtbl.length t.cache));
                ("hits", P.Int t.n_cache_hits);
                ("store_hits", P.Int t.n_store_hits);
              ] );
          ("store", store_json);
          ( "supervisor",
            P.Obj
              [
                ("crashes", P.Int t.n_crashes);
                ("respawns", P.Int t.n_respawns);
                ("requeued", P.Int t.n_requeued);
                ("deadline_kills", P.Int t.n_deadline_kills);
                ("hang_kills", P.Int t.n_hang_kills);
              ] );
          ( "sched",
            P.Obj
              [
                ("passes", P.Int t.st_passes);
                ("warm_passes", P.Int t.st_warm);
                ("cold_passes", P.Int t.st_cold);
                ("queries", P.Int t.st_queries);
                ("actions", P.Int t.st_actions);
              ] );
        ])

let health_frame t =
  let store_json =
    match store_stats_unlocked t with
    | None -> P.Obj [ ("enabled", P.Bool false) ]
    | Some s ->
        P.Obj
          [
            ("enabled", P.Bool true);
            ("entries", P.Int s.Store.st_entries);
            ("quarantined", P.Int s.Store.st_quarantined);
          ]
  in
  locked t (fun () ->
      let now = Unix.gettimeofday () in
      let degraded = ref false in
      let workers =
        Array.to_list t.slots
        |> List.map (fun s ->
               let state, inflight =
                 match s.s_state with
                 | W_idle -> ("idle", 0)
                 | W_busy _ -> ("busy", 1)
                 | W_dead ->
                     degraded := true;
                     ("dead", 0)
               in
               P.Obj
                 [
                   ("slot", P.Int s.s_idx);
                   ("pid", P.Int s.s_pid);
                   ("alive", P.Bool (s.s_pid <> 0));
                   ("state", P.String state);
                   ("inflight", P.Int inflight);
                   ("crashes", P.Int s.s_crashes);
                   ( "heartbeat_age_s",
                     P.Float (if s.s_pid = 0 then -1.0 else now -. s.s_last_beat) );
                 ])
      in
      P.Obj
        [
          ("type", P.String "health");
          ("status", P.String (if !degraded then "degraded" else "ok"));
          ("draining", P.Bool (Atomic.get t.stop_flag));
          ("workers", P.List workers);
          ( "queue",
            P.Obj
              [
                ("depth", P.Int (Queue.length t.queue));
                ("in_flight", P.Int t.in_flight);
                ("capacity", P.Int t.cfg.queue_capacity);
              ] );
          ("store", store_json);
        ])

let stop t =
  if not (Atomic.exchange t.stop_flag true) then
    (* one byte down the self-pipe wakes the listener's select; writing
       to a pipe is async-signal-safe, so this is the SIGTERM body *)
    try ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ()

type admission =
  | A_hit of int * Artifact.t
  | A_queued of int
  | A_coalesced of int  (** riding another job's in-flight compile *)
  | A_rejected of string * string * (string * P.json) list

let handle_submit t conn spec =
  match Design_db.load spec.P.js_design with
  | Error m ->
      (* still a per-job answer: accept, then fail with a typed code, so
         the client's submit/await pair sees the same sequence as any
         other failing job *)
      let id =
        locked t (fun () ->
            let id = t.next_job in
            t.next_job <- t.next_job + 1;
            t.n_submitted <- t.n_submitted + 1;
            t.n_failed <- t.n_failed + 1;
            id)
      in
      send conn (P.Obj [ ("type", P.String "accepted"); ("job", P.Int id) ]);
      send conn (P.error_frame ~job:id ~code:"bad_design" m)
  | Ok design -> (
      let key = Artifact.key_of_spec ~design spec in
      let verdict =
        locked t (fun () ->
            if Atomic.get t.stop_flag then
              A_rejected ("draining", "daemon is draining; resubmit elsewhere", [])
            else
              match Hashtbl.find_opt t.cache key with
              | Some a ->
                  (* cache hits are served even at the queue bound: they
                     cost microseconds and relieve pressure *)
                  let id = t.next_job in
                  t.next_job <- t.next_job + 1;
                  t.n_submitted <- t.n_submitted + 1;
                  t.n_cache_hits <- t.n_cache_hits + 1;
                  if a.Artifact.a_ok then t.n_ok <- t.n_ok + 1
                  else t.n_failed <- t.n_failed + 1;
                  A_hit (id, a)
              | None -> (
                match Hashtbl.find_opt t.inflight_keys key with
                | Some owner ->
                    (* an identical compile is already queued or running:
                       ride it.  Like cache hits, coalesced submits are
                       admitted even at the queue bound — they add no
                       work, only one more recipient of the answer. *)
                    let id = t.next_job in
                    t.next_job <- t.next_job + 1;
                    t.n_submitted <- t.n_submitted + 1;
                    t.n_coalesced <- t.n_coalesced + 1;
                    owner.j_waiters <- (id, conn) :: owner.j_waiters;
                    A_coalesced id
                | None ->
                  let pending = Queue.length t.queue in
                  if pending >= t.cfg.queue_capacity then begin
                    t.n_shed <- t.n_shed + 1;
                    A_rejected
                      ( "overloaded",
                        Printf.sprintf
                          "daemon is shedding load (%d job(s) pending); retry with backoff"
                          pending,
                        [ ("retry_after_ms", P.Int 200) ] )
                  end
                  else begin
                    let id = t.next_job in
                    t.next_job <- t.next_job + 1;
                    t.n_submitted <- t.n_submitted + 1;
                    let job =
                      {
                        j_id = id;
                        j_spec = spec;
                        j_conn = conn;
                        j_key = key;
                        j_cancelled = false;
                        j_waiters = [];
                        j_requeues = 0;
                        j_started = 0.0;
                        j_deadline = 0.0;
                      }
                    in
                    Hashtbl.replace t.jobs id job;
                    Hashtbl.replace t.inflight_keys key job;
                    Queue.push job t.queue;
                    pump_locked t;
                    A_queued id
                  end))
      in
      match verdict with
      | A_rejected (code, msg, extra) ->
          locked t (fun () -> t.n_rejected <- t.n_rejected + 1);
          send conn (P.error_frame ~extra ~code msg)
      | A_hit (id, a) ->
          send conn (P.Obj [ ("type", P.String "accepted"); ("job", P.Int id) ]);
          send conn (Artifact.result_frame ~job:id ~cmd:spec.P.js_cmd ~cached:true a)
      | A_queued id | A_coalesced id ->
          send conn (P.Obj [ ("type", P.String "accepted"); ("job", P.Int id) ]))

let handle_cancel t conn id =
  let found =
    locked t (fun () ->
        match Hashtbl.find_opt t.jobs id with
        | Some job ->
            job.j_cancelled <- true;
            true
        | None -> false)
  in
  send conn (P.Obj [ ("type", P.String "cancelling"); ("job", P.Int id); ("found", P.Bool found) ])

let hello_frame =
  P.Obj
    [
      ("type", P.String "hello");
      ("proto", P.Int P.version);
      ("version", P.String P.binary_version);
    ]

let conn_loop t conn =
  let greeted = ref false in
  let continue = ref true in
  while !continue && conn.c_alive do
    match P.read_frame conn.c_fd with
    | Error P.F_eof -> continue := false
    | Error (P.F_oversized n) ->
        send conn
          (P.error_frame ~code:"frame_too_large"
             (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n P.max_frame))
    | Error (P.F_bad_json m) -> send conn (P.error_frame ~code:"bad_json" m)
    | Ok json -> (
        match P.request_of_json json with
        | Error m -> send conn (P.error_frame ~code:"bad_request" m)
        | Ok (P.Hello v) ->
            if v = P.version then begin
              greeted := true;
              send conn hello_frame
            end
            else begin
              send conn
                (P.error_frame ~code:"proto_mismatch"
                   (Printf.sprintf "daemon speaks protocol %d, client sent %d" P.version v));
              continue := false
            end
        | Ok _ when not !greeted ->
            send conn (P.error_frame ~code:"hello_required" "open the session with a hello frame")
        | Ok (P.Submit spec) -> handle_submit t conn spec
        | Ok (P.Cancel id) -> handle_cancel t conn id
        | Ok P.Stats -> send conn (stats_frame t)
        | Ok P.Health -> send conn (health_frame t)
        | Ok P.Shutdown ->
            send conn (P.Obj [ ("type", P.String "draining") ]);
            stop t)
  done;
  close_conn conn;
  locked t (fun () -> t.conns <- List.filter (fun (_, c) -> c.c_id <> conn.c_id) t.conns);
  logv t "connection %d closed" conn.c_id

(* ------------------------------------------------------------------ *)
(* Listener + lifecycle *)

let bind_unix path =
  if Sys.file_exists path then begin
    (* a previous daemon may have crashed without unlinking; refuse only
       if something is still accepting there *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      try
        Unix.connect probe (Unix.ADDR_UNIX path);
        true
      with Unix.Unix_error _ -> false
    in
    quiet_close probe;
    if live then failwith (Printf.sprintf "socket %s is already served by a live daemon" path);
    Sys.remove path
  end;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let bind_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

(* values that would misbehave rather than fail: a non-positive deadline
   kills every worker that takes a job, a non-positive heartbeat timeout
   kills idle ones, and a queue bound below 1 sheds all fresh work *)
let check_config cfg =
  let ( let* ) = Result.bind in
  let* _ = P.positive_seconds "deadline_s (--deadline)" cfg.deadline_s in
  let* _ = P.positive_seconds "hb_timeout_s (--hb-timeout)" cfg.hb_timeout_s in
  if cfg.queue_capacity < 1 then
    Error
      (Printf.sprintf "queue_capacity (--queue-capacity) must be at least 1 (got %d)"
         cfg.queue_capacity)
  else Ok ()

let create cfg =
  try
    Result.iter_error failwith (check_config cfg);
    let cfg = { cfg with workers = max 1 cfg.workers; cache_cap = max 1 cfg.cache_cap } in
    let store =
      match cfg.store_dir with
      | None -> None
      | Some dir -> (
          (* recovery scan: wipe stale tmp files, quarantine damage *)
          match Store.open_ dir with
          | Ok st -> Some st
          | Error m -> failwith (Printf.sprintf "artifact store %s: %s" dir m))
    in
    let unix_l = bind_unix cfg.socket in
    let listeners =
      match cfg.tcp_port with
      | None -> [ unix_l ]
      | Some port -> (
          try [ unix_l; bind_tcp port ]
          with e ->
            quiet_close unix_l;
            (try Sys.remove cfg.socket with Sys_error _ -> ());
            raise e)
    in
    let stop_r, stop_w = Unix.pipe () in
    let now = Unix.gettimeofday () in
    let slots =
      Array.init cfg.workers (fun i ->
          {
            s_idx = i;
            s_state = W_dead;
            s_pid = 0;
            s_fd = Unix.stdin (* placeholder; meaningless while s_pid = 0 *);
            s_gen = 0;
            s_last_beat = now;
            s_crashes = 0;
            s_respawn_at = now;
            s_kill_reason = K_none;
          })
    in
    let t =
      {
        cfg;
        listeners;
        store;
        mutex = Mutex.create ();
        drain_cv = Condition.create ();
        cache = Hashtbl.create 64;
        cache_order = Queue.create ();
        jobs = Hashtbl.create 16;
        inflight_keys = Hashtbl.create 16;
        queue = Queue.create ();
        slots;
        next_job = 1;
        next_conn = 1;
        in_flight = 0;
        conns = [];
        readers = [];
        supervisor = None;
        stopping_workers = false;
        sup_stop = Atomic.make false;
        n_submitted = 0;
        n_ok = 0;
        n_failed = 0;
        n_cancelled = 0;
        n_rejected = 0;
        n_shed = 0;
        n_cache_hits = 0;
        n_coalesced = 0;
        n_store_hits = 0;
        n_conns_total = 0;
        n_crashes = 0;
        n_respawns = 0;
        n_requeued = 0;
        n_deadline_kills = 0;
        n_hang_kills = 0;
        st_passes = 0;
        st_warm = 0;
        st_cold = 0;
        st_queries = 0;
        st_actions = 0;
        started = now;
        stop_flag = Atomic.make false;
        stop_r;
        stop_w;
      }
    in
    (* the first worker generation forks here, before any other thread
       exists, so these children are born from a single-threaded image.
       Respawn forks later come from the supervisor thread of a
       multi-threaded parent, and those children are NOT minimal: each
       runs a full [Worker.main] — heartbeat thread, store I/O, whole
       compiles.  That leans on the C library's atfork handling to leave
       malloc/stdio usable in the child (the standard pre-fork-server
       bargain, exercised heavily by the chaos suite).  If stronger
       isolation is ever needed, respawn via fork+exec of the hlsc
       binary in a worker mode so children start from a clean image. *)
    Array.iter (fun slot -> spawn_locked t slot) t.slots;
    t.supervisor <- Some (Thread.create supervise t);
    Ok t
  with
  | Failure m -> Error m
  | Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))
  | Sys_error m -> Error m

let accept_one t listener =
  match Unix.accept listener with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.ECONNABORTED), _, _) -> ()
  | fd, _ ->
      let conn =
        locked t (fun () ->
            let id = t.next_conn in
            t.next_conn <- t.next_conn + 1;
            t.n_conns_total <- t.n_conns_total + 1;
            {
              c_id = id;
              c_fd = fd;
              c_wmutex = Mutex.create ();
              c_wcv = Condition.create ();
              c_outq = Queue.create ();
              c_writing = false;
              c_alive = true;
              c_closing = false;
              c_writer = None;
            })
      in
      logv t "connection %d accepted" conn.c_id;
      conn.c_writer <- Some (Thread.create conn_writer conn);
      let th = Thread.create (fun () -> conn_loop t conn) () in
      locked t (fun () -> t.conns <- (th, conn) :: t.conns)

let drain t =
  (* 0. snapshot what the signal interrupted, for the final report *)
  let outstanding, done_before =
    locked t (fun () -> (Queue.length t.queue + t.in_flight, t.n_ok + t.n_failed + t.n_cancelled))
  in
  logv t "draining: %d job(s) outstanding" outstanding;
  (* 1. no new connections *)
  List.iter quiet_close t.listeners;
  (try Sys.remove t.cfg.socket with Sys_error _ -> ());
  (* 2. let the supervised fleet answer every queued and in-flight job
     (the supervisor keeps respawning crashed workers meanwhile) *)
  Mutex.lock t.mutex;
  while not (Queue.is_empty t.queue) || t.in_flight > 0 do
    Condition.wait t.drain_cv t.mutex
  done;
  t.stopping_workers <- true;
  Mutex.unlock t.mutex;
  (* 3. stop the supervisor, then retire the workers: half-close their
     pipes so they read EOF and [_exit 0]; each reader reaps its pid *)
  Atomic.set t.sup_stop true;
  (match t.supervisor with Some th -> Thread.join th | None -> ());
  locked t (fun () ->
      Array.iter
        (fun s ->
          if s.s_pid <> 0 then
            try Unix.shutdown s.s_fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
        t.slots);
  List.iter Thread.join (locked t (fun () -> t.readers));
  (* 4. persist the store index *)
  (match t.store with
  | None -> ()
  | Some st -> (
      match Store.flush_index st with
      | Ok () -> ()
      | Error m -> Printf.eprintf "hlsc serve: store index flush failed: %s\n%!" m));
  (* 5. unblock and join the connection threads.  Receive side only:
     each [conn_loop] wakes on the EOF and runs [close_conn], which
     still flushes the result frames its writer owes the client before
     shutting the send side *)
  let conns = locked t (fun () -> t.conns) in
  List.iter
    (fun (_, c) -> try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    conns;
  List.iter (fun (th, _) -> Thread.join th) conns;
  quiet_close t.stop_r;
  quiet_close t.stop_w;
  (* 6. final report: queued-vs-completed across the drain, plus store
     and supervision accounting *)
  let done_during = t.n_ok + t.n_failed + t.n_cancelled - done_before in
  let store_line =
    match t.store with
    | None -> "store: disabled"
    | Some st ->
        let s = Store.stats st in
        Printf.sprintf "store: %d entr(ies), %d quarantined, %d hit(s), index flushed"
          s.Store.st_entries s.Store.st_quarantined t.n_store_hits
  in
  Printf.eprintf
    "hlsc serve: drained after %.1fs — %d job(s) outstanding at signal, %d completed during \
     drain; %d job(s): %d ok, %d failed, %d cancelled, %d rejected (%d shed); cache: %d \
     entries, %d hit(s); %s; supervision: %d crash(es), %d respawn(s), %d requeue(s), %d \
     deadline kill(s), %d hang kill(s); passes: %d (%d warm / %d cold)\n\
     %!"
    (Unix.gettimeofday () -. t.started)
    outstanding done_during t.n_submitted t.n_ok t.n_failed t.n_cancelled t.n_rejected t.n_shed
    (Hashtbl.length t.cache) t.n_cache_hits store_line t.n_crashes t.n_respawns t.n_requeued
    t.n_deadline_kills t.n_hang_kills t.st_passes t.st_warm t.st_cold

let serve t =
  let rec loop () =
    if not (Atomic.get t.stop_flag) then begin
      match Unix.select (t.stop_r :: t.listeners) [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, _, _ ->
          if List.mem t.stop_r readable then () (* drain request *)
          else begin
            List.iter (fun l -> if List.mem l readable then accept_one t l) t.listeners;
            loop ()
          end
    end
  in
  loop ();
  Atomic.set t.stop_flag true;
  drain t

let run cfg =
  match create cfg with
  | Error m -> Error m
  | Ok t ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop t));
      Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop t));
      Printf.eprintf
        "hlsc serve: listening on %s%s (%d worker process(es), protocol %d%s%s)\n%!" cfg.socket
        (match cfg.tcp_port with
        | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
        | None -> "")
        (max 1 cfg.workers) P.version
        (match cfg.store_dir with
        | Some d -> Printf.sprintf ", store %s" d
        | None -> "")
        (match cfg.chaos with Some _ -> ", CHAOS INJECTION ON" | None -> "");
      serve t;
      Ok ()
