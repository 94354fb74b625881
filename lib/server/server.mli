(** The compile-service daemon behind [hlsc serve] — crash-only,
    supervised edition.

    The daemon is split across process boundaries so that no compile
    job, however pathological, can take the service down:

    - The {b acceptor} (this process) owns the listening sockets, a
      reader and a writer thread per client connection (outbound frames
      queue on a bounded per-connection outbox, so a client that stops
      reading is evicted rather than allowed to wedge the daemon),
      admission control, the bounded in-memory artifact cache, and the
      supervisor.  It never runs a compile.
    - [workers] forked {b worker processes} (see {!Worker}) each own one
      socketpair to the acceptor and run jobs one at a time.  Each job
      is a fresh compile, so the workers are interchangeable: admitted
      jobs wait on one FIFO queue and the oldest goes to whichever live
      worker idles first.  Repeated fingerprints never reach a worker
      twice — the acceptor's cache and in-flight coalescing absorb them.
    - A {b supervisor thread} watches every slot: a worker that misses
      heartbeats for [hb_timeout_s] (wedged) or blows its per-job wall
      deadline is SIGKILLed; the dead slot is respawned after an
      exponential backoff.  The victim's job goes back on the shared
      queue once (crash, hang) — the dead slot takes no work until it
      respawns, so another worker runs it — or is failed with a typed [deadline_exceeded]/[worker_lost]
      result — clients always get an answer.
    - An optional {b on-disk artifact store} ({!Hls_store.Store}) keyed
      by the two-level design fingerprint makes results survive daemon
      restarts: workers consult it before compiling and publish after;
      the acceptor scans it for damage at startup and flushes its index
      on drain.

    Admission control is one bound: while [queue_capacity] jobs wait in
    the queue, fresh work is shed with a typed, retryable [overloaded]
    reject carrying [retry_after_ms].  In-memory cache hits and submits
    that coalesce onto a queued or running job are still admitted: they
    add no compile.

    Drain (SIGTERM/SIGINT/shutdown verb): stop accepting, let the
    supervised fleet finish every queued and in-flight job (respawning
    crashed workers as needed), retire the workers, flush the store
    index, close connections, and report queued-vs-completed counts in
    the final stats line. *)

type config = {
  socket : string;  (** Unix-domain socket path (created; unlinked on drain) *)
  tcp_port : int option;  (** also listen on 127.0.0.1:port *)
  workers : int;  (** worker-process count (≥ 1) *)
  queue_capacity : int;
      (** admission bound (≥ 1): with this many jobs queued-but-not-started,
          fresh work is refused with a typed [overloaded] error carrying a
          [retry_after_ms] hint *)
  store_dir : string option;
      (** root of the persistent artifact store; [None] = memory only *)
  deadline_s : float;
      (** default hard per-job wall deadline, positive and finite (a
          submit's [deadline_s] overrides); the worker is killed and the
          job answered with [deadline_exceeded] when it trips *)
  hb_interval_s : float;  (** worker heartbeat period *)
  hb_timeout_s : float;
      (** heartbeats older than this (positive and finite) mark the
          worker wedged: SIGKILL, re-queue the job, respawn the slot *)
  max_requeues : int;
      (** how many times one job may be re-dispatched after losing its
          worker before it is failed with [worker_lost] *)
  backoff_base_s : float;  (** first respawn delay after a crash *)
  backoff_cap_s : float;  (** respawn delay ceiling (doubles per crash) *)
  cache_cap : int;
      (** in-memory artifact-cache entry bound (≥ 1); the oldest entry
          is evicted first — with a store configured an evicted key is
          one store read away, so the daemon's memory stays bounded
          without losing durable warm state *)
  chaos : Worker.chaos option;  (** fault injection (tests only) *)
  verbose : bool;  (** log connection/job/supervision lifecycle to stderr *)
}

val default_config : config
(** [{socket = "hlsc.sock"; tcp_port = None; workers = 2;
     queue_capacity = 48; store_dir = None;
     deadline_s = 300.0; hb_interval_s = 0.05; hb_timeout_s = 2.0;
     max_requeues = 1; backoff_base_s = 0.05; backoff_cap_s = 2.0;
     cache_cap = 512; chaos = None; verbose = false}] *)

type t

val create : config -> (t, string) result
(** Bind the listening sockets, open (and recovery-scan) the artifact
    store, and fork the initial worker fleet — before any thread exists,
    so the first generation of workers is born from a single-threaded
    image.  Fails with a one-line message if [deadline_s] or
    [hb_timeout_s] is not a positive, finite number, if [queue_capacity]
    is below 1, if a socket cannot be bound or if the store is
    unusable. *)

val serve : t -> unit
(** Run the accept loop until {!stop} (or a handled signal) triggers the
    drain; returns only after the drain completes: all jobs answered,
    workers retired and reaped, store index flushed, sockets closed and
    unlinked. *)

val stop : t -> unit
(** Request a graceful drain.  Async-signal-safe (a flag plus a self-pipe
    write), so it is also the SIGTERM/SIGINT handler body; callable from
    any thread.  Idempotent. *)

val run : config -> (unit, string) result
(** [create], install SIGTERM/SIGINT handlers (and ignore SIGPIPE), log
    the listening address, then {!serve}. *)
