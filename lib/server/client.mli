(** Client half of the compile-service protocol: connection + handshake,
    blocking submit with live event streaming, job cancellation, stats,
    health and the retrying submit. *)

type t
(** One connection to a daemon (handshake already verified). *)

val connect : ?tcp:string * int -> socket:string -> unit -> (t, string) result
(** Connect over the Unix-domain [socket] (or [tcp] when given), perform
    the hello handshake and verify the daemon speaks {!Protocol.version};
    a mismatched daemon is refused with a one-line error. *)

val close : t -> unit

val submit_nowait : t -> Protocol.job_spec -> (int, string) result
(** Send a submit request and return the daemon-assigned job id as soon
    as the [accepted] frame arrives (admission errors come back as
    [Error]).  Follow with {!await}. *)

val await :
  ?on_event:(level:string -> string -> unit) -> t -> (Protocol.outcome, string) result
(** Read frames until this connection's next [result] frame; [on_event]
    fires for each streamed scheduling event in arrival order. *)

val submit :
  ?on_event:(level:string -> string -> unit) ->
  t ->
  Protocol.job_spec ->
  (Protocol.outcome, string) result
(** {!submit_nowait} then {!await}. *)

val cancel : t -> int -> (bool, string) result
(** Ask the daemon to cancel a job; [Ok found] reflects whether the job
    was still known (queued or running). *)

val stats : t -> (Protocol.json, string) result
(** Fetch the daemon's metrics snapshot (the raw [stats] frame). *)

val shutdown_server : t -> (unit, string) result
(** Ask the daemon to drain (the SIGTERM path, but over the wire). *)

val health : t -> (Protocol.json, string) result
(** Fetch the daemon's supervision snapshot (the raw [health] frame):
    overall [status] ("ok"/"degraded"), per-worker liveness, queue
    depths and store health. *)

val submit_retrying :
  ?on_event:(level:string -> string -> unit) ->
  ?retries:int ->
  ?backoff_s:float ->
  ?max_backoff_s:float ->
  ?seed:int ->
  connect:(unit -> (t, string) result) ->
  Protocol.job_spec ->
  (Protocol.outcome * int, string) result
(** Submit with automatic retries over a fresh connection per attempt
    (the daemon, or the worker under it, may have died mid-flight).
    Retries — up to [retries] (default 3) extra attempts with jittered
    exponential backoff (start [backoff_s], cap [max_backoff_s]) — fire
    on transport faults and on the transient typed answers
    [overloaded] and [worker_lost].  Jobs are idempotent
    by design fingerprint, so re-submitting is always safe.  Typed
    answers retrying cannot change — [bad_design], [draining],
    [deadline_exceeded], a compile failure — are returned as-is.
    [Ok (outcome, attempts)] reports how many attempts were spent. *)
