(** The host's speed, measured beside the work whose times it corrects.

    A vCPU of a shared host runs at levels up to 1.7x apart, each holding
    for seconds to minutes, as other tenants load the physical core under
    it.  Raw wall times of two runs of the same code then differ by the
    share of each run spent at each level: 30–45% between the quartiles of
    ten runs.  So the benchmark times a fixed reference — ordinary
    allocating OCaml from the standard library, never the code under
    test — on the same domain, right after the work, and reports each
    time scaled by [nominal_s / reference time]: the time the work would
    have taken with the reference at {!nominal_s}.  A change to the
    program cannot move the reference, so it moves the corrected times as
    much as the raw ones. *)

module IM = Map.Make (Int)

(** The reference's time on an idle core of the host the benchmark was
    calibrated on (a 2-vCPU Intel Xeon VM): corrected and raw times agree
    there. *)
let nominal_s = 340e-6

(* Hash, sort and balanced-tree inserts over 1000 keys, the mix of an
   allocating compiler pass; about 100k words, well under a minor heap *)
let reference () =
  let rng = Random.State.make [| 7 |] in
  let h = Hashtbl.create 16 in
  for i = 0 to 1000 do
    Hashtbl.replace h (Random.State.int rng 200_000) i
  done;
  let l = List.sort compare (List.init 1000 (fun _ -> Random.State.int rng 1_000_000)) in
  let m = List.fold_left (fun m x -> IM.add x (x * 3) m) IM.empty l in
  let s = ref 0 in
  IM.iter (fun k v -> s := !s + ((k + v) lsr 3)) m;
  Hashtbl.iter (fun k v -> s := !s + (k lxor v)) h;
  !s

(** One timed run of the reference.  A minor collection goes first,
    untimed, so the reference's own allocation never triggers a
    collection and its time does not depend on the program's heap. *)
let sample () =
  Gc.minor ();
  let t0 = Clock.now () in
  ignore (Sys.opaque_identity (reference ()));
  Clock.now () -. t0

(** Reference runs after [wall] seconds of work: one per 50 ms of it, at
    least one, so long requests are sampled as densely in time as short
    ones. *)
let samples_for wall = 1 + int_of_float (wall /. 0.05)

(** The reference times of one stretch of a run (a pass or a round), and
    the wall those runs took, reference and collection together. *)
type t = { mutable times : float list; mutable spent_s : float }

let create () = { times = []; spent_s = 0.0 }

(** Sample the host after [wall] seconds of work. *)
let after t wall =
  let t0 = Clock.now () in
  for _ = 1 to samples_for wall do
    t.times <- sample () :: t.times
  done;
  t.spent_s <- t.spent_s +. (Clock.now () -. t0)

(** What to multiply a time measured during the stretch by:
    [nominal_s / median reference time], or [1.] without samples. *)
let factor t = if t.times = [] then 1.0 else nominal_s /. Stats.median t.times
