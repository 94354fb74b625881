(** Wire protocol of the compile-service daemon ([hlsc serve]).

    Transport: length-prefixed JSON frames — a 4-byte big-endian payload
    length followed by one JSON document (UTF-8).  Frames larger than
    {!max_frame} are refused with a typed protocol error; the oversized
    payload is consumed so the connection survives.

    Session: the client opens with [{"type":"hello","proto":V}]; the
    daemon answers with its own [hello] carrying {!version} and
    {!binary_version}.  A version mismatch is a typed error and the
    client must refuse the daemon.  After the handshake the connection is
    full-duplex: the client may pipeline [submit]/[cancel]/[stats]
    requests, and the daemon interleaves [event] frames (live
    scheduling-trace streaming) with [accepted]/[result]/[stats]/[error]
    frames.  Every daemon frame that answers a job carries the job id, so
    frames of concurrent jobs on one connection can be told apart. *)

(** {2 Versions} *)

val version : int
(** Wire-protocol version.  Bumped on any incompatible frame change;
    clients refuse daemons speaking a different version. *)

val binary_version : string
(** The hlsc binary version (also what [hlsc version] prints). *)

(** {2 JSON} *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val to_string : json -> string
(** Compact one-line rendering, RFC 8259 escaping. *)

val of_string : string -> (json, string) result
(** Minimal recursive-descent parser (objects, arrays, strings with
    escapes, numbers, booleans, null).  No external dependency. *)

val member : string -> json -> json option
(** Field lookup on an [Obj]; [None] otherwise. *)

val get_string : json -> string option
val get_int : json -> int option
val get_float : json -> float option
val get_bool : json -> bool option

(** {2 Frames} *)

val max_frame : int
(** Hard frame-size ceiling (payload bytes): 8 MiB. *)

type frame_error =
  | F_eof  (** peer closed the connection (clean only between frames) *)
  | F_oversized of int  (** declared length beyond {!max_frame}; payload skipped *)
  | F_bad_json of string  (** payload was not a JSON document *)

val frame_error_to_string : frame_error -> string

val read_frame : Unix.file_descr -> (json, frame_error) result
(** Blocking read of one frame.  On [F_oversized] the payload has been
    consumed and discarded, so the stream stays framed. *)

val write_frame : Unix.file_descr -> json -> unit
(** Blocking write of one frame.  Raises [Unix.Unix_error] (e.g. [EPIPE])
    if the peer is gone — callers own serialization (one writer mutex per
    connection) and disconnect handling. *)

(** {2 Requests} *)

type cmd = C_schedule | C_pipeline | C_flow

val cmd_to_string : cmd -> string
val cmd_of_string : string -> cmd option

(** What to compile and under which configuration — the server-side
    mirror of the CLI's design/flags arguments. *)
type job_spec = {
  js_design : [ `Builtin of string | `Source of string ];
      (** a built-in design name, or inline [.bhv] source text (the client
          ships file contents, so daemon and client need no shared cwd) *)
  js_cmd : cmd;
  js_ii : int option;
  js_clock_ps : float;
  js_min_latency : int option;
  js_max_latency : int option;
  js_max_passes : int option;
  js_timeout_s : float option;  (** scheduler wall-clock budget (soft: typed failure) *)
  js_deadline_s : float option;
      (** hard per-job wall deadline: the supervisor kills the worker at
          this age and answers with a typed [deadline_exceeded] error;
          [None] falls back to the daemon's configured default *)
  js_verify : bool;
  js_trace : bool;  (** stream scheduling events while the job runs *)
}

val job_spec : ?ii:int -> ?min_latency:int -> ?max_latency:int -> ?max_passes:int ->
  ?timeout_s:float -> ?deadline_s:float -> ?verify:bool -> ?trace:bool -> ?clock_ps:float ->
  cmd -> [ `Builtin of string | `Source of string ] -> job_spec
(** [clock_ps] defaults to 1600; [verify] to [true] (the CLI default);
    [trace] to [false]. *)

type request =
  | Hello of int  (** client protocol version *)
  | Submit of job_spec
  | Cancel of int  (** job id *)
  | Stats
  | Health  (** liveness + supervision snapshot (workers, queue, store) *)
  | Shutdown  (** ask the daemon to drain (same path as SIGTERM) *)

val request_to_json : request -> json

val request_of_json : json -> (request, string) result
(** Decode a request frame.  A submit whose [deadline_s] is present but
    not a positive, finite number is refused (the daemon answers
    [bad_request]). *)

val positive_seconds : string -> float -> (float, string) result
(** [positive_seconds what x] is [Ok x] when [x] is a positive, finite
    duration, else a one-line message naming [what].  The one check
    behind submit deadlines, the CLI's seconds-valued flags and
    {!Server.create}. *)

val error_frame : ?job:int -> ?extra:(string * json) list -> code:string -> string -> json
(** The daemon's typed error frame:
    [{"type":"error","code":C,"message":M}] plus the job id and any
    [extra] fields (e.g. [retry_after_ms] on [overloaded] rejects).
    Stable codes include [bad_json], [frame_too_large], [proto_mismatch],
    [hello_required], [bad_request], [bad_design],
    [overloaded], [draining]; job results that failed inside the service
    tier come back as [result] frames with [code] [worker_lost] or
    [deadline_exceeded]. *)

(** {2 Job outcome (client-side decoded result frame)} *)

type status = S_ok | S_error | S_cancelled

val status_to_string : status -> string

type outcome = {
  o_job : int;
  o_status : status;
  o_output : string;  (** rendered tables — byte-identical to the offline CLI *)
  o_summary : string;
  o_tier : string;
  o_notes : string list;  (** degradation warnings, as the CLI prints them *)
  o_diag : string option;  (** human diagnostic when [o_status = S_error] *)
  o_diag_json : string option;
  o_code : string option;  (** machine code of the diagnostic *)
  o_cached : bool;  (** served from the daemon's memo cache *)
  o_wall_s : float;  (** server-side wall clock of the job *)
}

val outcome_of_json : json -> (outcome, string) result
