(** Event trace of a scheduling run, used to replay the paper's worked
    examples as narratives.  Events carry a severity level ([Debug] for
    per-op binding detail, [Info] for the relaxation narrative, [Warn] for
    failures) so long narratives can be filtered. *)

type level = Debug | Info | Warn

type t

val create : ?echo:bool -> ?sink:(level -> string -> unit) -> unit -> t
(** [sink] is invoked synchronously on every event as it is recorded —
    the live streaming hook used by the compile-service daemon to forward
    scheduling events to the submitting client while the job runs. *)

val log : t -> ('a, unit, string, unit) format4 -> 'a
(** Records at level [Info] (the historical behaviour). *)

val log_at : t -> level -> ('a, unit, string, unit) format4 -> 'a

val logf : ?level:level -> t option -> ('a, unit, string, unit) format4 -> 'a
(** No-op on [None] — callers thread an optional trace for free: nothing
    is formatted and no [%a] printer runs.  Level defaults to [Info]. *)

val level_to_string : level -> string

val events : t -> string list
(** All events, oldest first (unfiltered — the historical behaviour). *)

val counts : t -> (level * int) list
val summary : t -> string
(** Event-count summary, e.g. ["214 events (180 debug, 30 info, 4 warn)"]. *)

val pp : Format.formatter -> t -> unit
