(** The compile-worker process: the code that runs in each forked child
    of the serve daemon's acceptor.

    A worker owns one end of a socketpair to the acceptor and speaks
    {!Protocol} frames over it:

    - acceptor → worker: [{"type":"job","job":I,"spec":{...submit...}}]
    - worker → acceptor: [ready] (once, with its pid), [heartbeat]
      (periodic liveness), [event] (relayed scheduling trace),
      [wresult] [{"job":I,"store_hit":B,"artifact":{...}}]

    Crash-only discipline: the worker {e never} returns to the forked
    copy of the acceptor — every exit path is [Unix._exit], so inherited
    stdio buffers are never flushed twice and the parent image's exit
    hooks never run in the child.  EOF from the acceptor means
    "drain finished, die": the worker exits 0.  Any job may legitimately
    die mid-run (chaos injection, OOM, a scheduler bug): the acceptor
    detects it via EOF/waitpid and re-queues or fails the job — workers
    hold no state a crash can lose beyond the job in hand, and artifact
    store writes are atomic. *)

(** Fault injection, seeded and per-worker deterministic: each job first
    draws kill (immediate [_exit 70]), then stall (silence heartbeats
    and sleep forever — exercises hang detection), and after a fresh
    compile draws corrupt (damage the just-written store entry — the
    in-hand result is unaffected, so clients still get correct bytes and
    the damage must be caught by quarantine on the next read). *)
type chaos = {
  cz_seed : int;
  cz_kill : float;  (** probability per job of dying before work *)
  cz_stall : float;  (** probability per job of hanging silently *)
  cz_corrupt : float;  (** probability per fresh compile of store damage *)
}

type config = {
  w_slot : int;
      (** worker slot index: seeds this worker's chaos RNG stream; it
          does not select jobs (any idle worker takes the queue's head) *)
  w_gen : int;  (** respawn generation of this slot *)
  w_hb_interval_s : float;  (** heartbeat period *)
  w_store_dir : string option;  (** artifact store root; [None] = no store *)
  w_chaos : chaos option;
}

val main : config -> Unix.file_descr -> 'a
(** Run the worker loop on this acceptor pipe.  Never returns (every
    path ends in [Unix._exit]).  Call only in a freshly forked child. *)
