(** Initial resource-set estimation (Section IV.A).

    Produces a lower bound on the number of resources of each type before
    the first scheduling pass:

    - operations are grouped into compatibility classes (same
      {!Hls_techlib.Resource} class, widths within the merge rule);
    - candidate intervals are formed from the timing-aware ASAP/ALAP ranges
      of the class members (every [asap, alap] combination);
    - the demand of an interval is the number of member ops whose life span
      is contained in it — counting mutually exclusive ops (opposite
      predicate polarities from the branch-predication transform) once —
      divided by the interval's capacity;
    - in a pipelined region the capacity of an interval is additionally
      bounded by II, since operations on equivalent steps cannot share
      (Example 2 of the paper: with II = 2 and three multiplications in
      three states, two multipliers are the lower bound);
    - the class lower bound is the maximum demand over all intervals.

    The estimate "might be reconsidered during scheduling": the expert
    system adds resources when passes fail for lack of them. *)

open Hls_ir
open Hls_techlib

type cls = {
  mutable c_rtype : Resource.t;  (** merged (element-wise max) type *)
  mutable c_ops : Dfg.op list;
}

(** Partition the region's resource ops into compatibility classes. *)
let classes (region : Region.t) : cls list =
  let dfg = region.Region.dfg in
  let cs = ref [] in
  List.iter
    (fun op ->
      match Resource.of_op dfg op with
      | None -> ()
      | Some rt ->
          if Opkind.is_resource_op op.Dfg.kind then begin
            match List.find_opt (fun c -> Resource.can_merge c.c_rtype rt) !cs with
            | Some c ->
                c.c_rtype <- Resource.merge c.c_rtype rt;
                c.c_ops <- op :: c.c_ops
            | None -> cs := { c_rtype = rt; c_ops = [ op ] } :: !cs
          end)
    (Region.member_ops region);
  List.rev !cs

(** Greedy exclusivity grouping: ops that are pairwise mutually exclusive
    can occupy one resource slot; returns the number of slots needed for
    [ops] if they all had to run concurrently.  Unguarded ops can never be
    exclusive, so only the (typically few) guarded ops need the quadratic
    grouping. *)
let exclusive_slot_count (ops : Dfg.op list) =
  let unguarded, guarded = List.partition (fun o -> Guard.is_always o.Dfg.guard) ops in
  let groups : Dfg.op list list ref = ref [] in
  List.iter
    (fun op ->
      let rec place = function
        | [] -> groups := [ op ] :: !groups
        | g :: rest ->
            if List.for_all (fun o -> Guard.mutually_exclusive o.Dfg.guard op.Dfg.guard) g then
              groups := (op :: g) :: List.filter (fun g' -> g' != g) !groups
            else place rest
      in
      place !groups)
    guarded;
  List.length unguarded + List.length !groups

(** How many operations can share one instance of [rt] before the input
    sharing mux alone breaks timing: largest [k] with
    [clk_q + mux(k) + delay + reg_mux + setup <= Tclk].  This is the
    "timing-aware" part of the paper's estimator — a purely count-based
    bound would funnel dozens of ops onto one resource and leave the
    scheduler discovering the mux wall one failing pass at a time. *)
let max_share (lib : Library.t) ~clock_ps (rt : Resource.t) =
  let d = Library.delay lib rt in
  let budget =
    clock_ps -. lib.Library.ff_clk_q -. d -. Library.mux_delay lib ~inputs:2
    -. lib.Library.ff_setup
  in
  if budget < 0.0 then 1
  else
    let rec grow k =
      if k >= 64 then k
      else if Library.mux_delay lib ~inputs:(k + 1) <= budget then grow (k + 1)
      else k
    in
    grow 1

(** Lower bound for one class given the analyzed life spans. *)
let class_lower_bound ?(lib : Library.t option) ?(clock_ps = 0.0) (region : Region.t)
    (aa : Asap_alap.t) (c : cls) =
  let spans =
    List.map
      (fun op ->
        let r = Asap_alap.range aa op.Dfg.id in
        (op, r.Asap_alap.asap, r.Asap_alap.alap))
      c.c_ops
  in
  (* candidate intervals: the distinct member life spans plus their union —
     enumerating all (asap, alap) cross pairs is quadratic and adds nothing
     in practice *)
  let candidates =
    let own = List.map (fun (_, a, b) -> (a, b)) spans in
    let lo = List.fold_left (fun acc (_, a, _) -> min acc a) max_int spans in
    let hi = List.fold_left (fun acc (_, _, b) -> max acc b) 0 spans in
    List.sort_uniq compare ((lo, hi) :: own)
  in
  let ii = Region.ii region in
  let demand (lo, hi) =
    let inside = List.filter (fun (_, a, b) -> lo <= a && b <= hi) spans in
    if inside = [] then 0
    else
      let n = exclusive_slot_count (List.map (fun (o, _, _) -> o) inside) in
      let capacity = min (hi - lo + 1) (if Region.is_pipelined region then ii else max_int) in
      (n + capacity - 1) / capacity
  in
  let interval_bound = List.fold_left (fun acc iv -> max acc (demand iv)) 1 candidates in
  let share_bound =
    match lib with
    | None -> 1
    | Some lib ->
        let k = max_share lib ~clock_ps c.c_rtype in
        (exclusive_slot_count c.c_ops + k - 1) / k
  in
  max interval_bound share_bound

(** [run region aa] is the initial resource set: one entry per class with
    the merged type, the instance count and the class's op population.
    [lib]/[clock_ps] enable the sharing-mux bound. *)
let run ?lib ?(clock_ps = 0.0) (region : Region.t) (aa : Asap_alap.t) :
    (Resource.t * int * int) list =
  List.map
    (fun c -> (c.c_rtype, class_lower_bound ?lib ~clock_ps region aa c, List.length c.c_ops))
    (classes region)

(* [run] at the latency upper bound, leaving the region at its initial LI *)
let initial ?plan ~lib ~clock_ps (region : Region.t) =
  Region.reset_steps region region.Region.max_steps;
  let alloc = run ~lib ~clock_ps region (Asap_alap.compute ?plan ~lib ~clock_ps region) in
  Region.reset_steps region (Region.initial_steps region);
  alloc

(** Latency lower bound implied by the resource set: with [n] instances
    serving [ops] operations (exclusive groups counted once), at least
    [ceil(ops / n)] states are needed.  Seeding the latency interval here
    saves the relaxation loop from adding those states one pass at a
    time.  The same fold is the modulo baseline's ResMII. *)
let latency_floor (alloc : (Resource.t * int * int) list) =
  List.fold_left (fun acc (_, n, ops) -> max acc ((ops + n - 1) / max 1 n)) 1 alloc
