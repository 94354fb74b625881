(** Pareto-front extraction for the design-space exploration reports
    (Section VI: "the best Pareto point can be achieved only by
    pipelining"). *)

type 'a point = { p_x : float; p_y : float; p_tag : 'a }

let point ~x ~y tag = { p_x = x; p_y = y; p_tag = tag }

(** [dominates a b]: [a] is no worse in both minimized dimensions and
    strictly better in at least one. *)
let dominates a b =
  a.p_x <= b.p_x && a.p_y <= b.p_y && (a.p_x < b.p_x || a.p_y < b.p_y)

(** Minimizing front, sorted by x then y, structurally deduplicated — the
    output is invariant under duplication and reordering of the input.

    Sort-based O(n log n) scan: after sorting ascending by (x, y, tag),
    only an earlier point can dominate a later one, and it does exactly
    when its y is strictly below the running minimum over strictly-smaller
    x (ties in both coordinates dominate in neither direction). *)
let front (points : 'a point list) : 'a point list =
  let sorted =
    List.sort_uniq (fun a b -> compare (a.p_x, a.p_y, a.p_tag) (b.p_x, b.p_y, b.p_tag)) points
  in
  let rec scan best_y acc = function
    | [] -> List.rev acc
    | p :: rest ->
        (* consume the whole equal-x group at once: within a group only the
           minimal-y points can survive, and they survive iff they beat the
           best y of every strictly-smaller x *)
        let same_x, rest = List.partition (fun q -> q.p_x = p.p_x) rest in
        let group = p :: same_x in
        let gmin = List.fold_left (fun m q -> min m q.p_y) p.p_y group in
        let survivors = if gmin < best_y then List.filter (fun q -> q.p_y = gmin) group else [] in
        scan (min best_y gmin) (List.rev_append survivors acc) rest
  in
  scan infinity [] sorted
