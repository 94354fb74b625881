(** A workload child's run parameters. *)

type t = {
  seed : int;
  seconds : float;  (** how long to measure; 0 means one pass *)
  trace : bool;  (** the traced run, for the per-layer split *)
  hlsc : string;  (** the hlsc binary the [serve] workload starts *)
}

(** Measuring stops here whatever the sample count, well inside the
    180 s a run may take. *)
let cap_s = 120.0

(** A generator for one purpose ([salt]) of this seed. *)
let rng t salt = Random.State.make [| t.seed; salt |]

(** [seconds = 0]: one pass of everything, for the correctness checks
    alone (the smoke run); percentiles may lack samples. *)
let one_pass t = t.seconds <= 0.0

(** Whether a measuring loop started at [t0] should begin another pass:
    always the first, then until [seconds] have passed and [enough]
    holds, never past {!cap_s}. *)
let another_pass t ~t0 ~passes ~enough =
  let elapsed = E2e_kit.Clock.now () -. t0 in
  passes = 0 || ((not (one_pass t)) && elapsed < cap_s && (elapsed < t.seconds || not enough))

(** The check that every reported percentile had enough samples; a
    one-pass run makes no such claim. *)
let percentile_check t ok = if one_pass t then [] else [ ("percentiles_have_samples", ok) ]
