(** Typed diagnostics for the HLS flow.

    Every failure anywhere in the flow — frontend, elaboration, the
    schedule/bind engine, folding, post-schedule auditing, reporting or
    verification — is carried as a {!t}: a phase, a severity, a stable
    machine-readable code, the human message, and (for scheduling
    failures) the restraint provenance, the relaxation actions attempted,
    the pass count and which budget tripped.  The flow never raises; it
    returns these. *)

type phase =
  | Frontend
  | Elaborate
  | Schedule
  | Fold
  | Check
  | Report
  | Verify
  | Explore
  | Serve
  | Feedback
      (** the subgraph-extraction feedback loop (hint mining / application) *)

type severity = Info | Warning | Error | Fatal

type budget =
  | B_passes of int  (** relaxation pass budget exhausted at this count *)
  | B_actions of int  (** relaxation action budget exhausted at this count *)
  | B_wallclock of float  (** wall-clock budget (seconds) exceeded *)

type t = {
  d_phase : phase;
  d_severity : severity;
  d_code : string;  (** stable machine code, e.g. ["overconstrained"] *)
  d_message : string;
  d_restraints : string list;  (** restraint provenance, rendered *)
  d_actions : string list;  (** relaxation actions attempted, oldest first *)
  d_passes : int;  (** scheduling passes run before the failure *)
  d_budget : budget option;  (** which budget tripped, if any *)
}

val make :
  ?severity:severity ->
  ?code:string ->
  ?restraints:string list ->
  ?actions:string list ->
  ?passes:int ->
  ?budget:budget ->
  phase:phase ->
  ('a, unit, string, t) format4 ->
  'a
(** [make ~phase fmt ...] builds a diagnostic; severity defaults to
    [Error] and code to ["error"]. *)

val error : ?severity:severity -> ?code:string -> ?restraints:string list ->
  ?actions:string list -> ?passes:int -> ?budget:budget -> phase:phase ->
  ('a, unit, string, (_, t) result) format4 -> 'a
(** Like {!make} but wrapped in [Stdlib.Error], for result pipelines. *)

val phase_to_string : phase -> string
val severity_to_string : severity -> string
val budget_to_string : budget -> string

val to_string : t -> string
(** One human-readable line: [phase severity [code]: message (...)]. *)

val to_json : t -> string
(** Self-contained JSON object (no external dependency); all fields
    present, strings escaped per RFC 8259. *)

val json_string : string -> string
(** A JSON string literal, quotes included: the one escaper every
    hand-rolled JSON writer uses.  ["\""], ["\\"], newline, carriage
    return and tab get their short escapes; every other control character
    becomes [\u00XX]. *)
