(** Summary statistics with the benchmark's reporting rules. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** A percentile is only worth reporting when at least this many samples
    lie beyond it; below that it is one or two unlucky requests. *)
let min_beyond = 10

(* 1-based nearest rank of quantile [q] among [n] samples; the epsilon
   keeps 0.9 *. 100. from rounding up to rank 91 *)
let rank ~n q = max 1 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)))

let samples_beyond ~n q = n - rank ~n q

(** Nearest-rank percentile [q] (0 < q < 1) of [xs], or [None] when fewer
    than {!min_beyond} samples lie beyond it. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 || samples_beyond ~n q < min_beyond then None else Some a.(rank ~n q - 1)

(** Smallest sample count for which [percentile q] reports a value. *)
let min_samples q =
  let rec go n = if samples_beyond ~n q >= min_beyond then n else go (n + 1) in
  go 1

(** The three cut points of Python's [statistics.quantiles(xs, n=4)]
    (default "exclusive" method), which is what run-to-run spreads are
    judged with.  Needs at least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let cut i =
    let j = min (ld - 1) (max 1 (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (cut 1, cut 2, cut 3)

let median xs =
  match xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | [ x ] -> x
  | _ ->
      let _, m, _ = quartiles xs in
      m

(** Geometric mean of the positive values; [0.] when there are none.
    Summed in sorted order, so the result does not depend on the order
    the values came in, to the last bit. *)
let geomean xs =
  match List.sort compare (List.filter (fun x -> x > 0.0) xs) with
  | [] -> 0.0
  | ps -> exp (List.fold_left (fun a x -> a +. log x) 0.0 ps /. float_of_int (List.length ps))

(** [num /. den], or [0.] when the base is empty — ratios of counters
    that a workload never exercises read as zero, never as NaN. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

let sum = List.fold_left ( +. ) 0.0
