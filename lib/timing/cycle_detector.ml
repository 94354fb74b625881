(** Incremental structural combinational-cycle detection.

    When the binder shares resources, the sharing multiplexers can create
    {e structural} combinational cycles that are never sensitized in any
    reachable control state (Fig. 6 of the paper: [add_16_16] chains into
    [add_32_16] in state s1 while [add_32_16] chains into [add_16_16] in
    state s2 — a false loop through the input muxes).  Rather than emit
    false-path constraints downstream, the paper's scheduler — and ours —
    {e avoids bindings that close such cycles}.

    Nodes are resource-instance ids, dense from 0; a directed edge
    [a -> b] is recorded whenever an op bound to instance [a] feeds,
    {e combinationally in the same control step}, an op bound to instance
    [b].  Edges are only ever inserted (a pass starts from {!clear}), so
    the detector keeps a topological order of the nodes up to date with
    the dynamic algorithm of Pearce & Kelly ("A dynamic topological sort
    algorithm for directed acyclic graphs", JEA 2006):

    - every edge [a -> b] has [ord a < ord b], so a path from [dst] to
      [src] needs [ord dst < ord src]; when [ord src < ord dst] the edge
      [src -> dst] cannot close a cycle and the answer is immediate;
    - otherwise any such path stays inside the window
      [ord dst .. ord src], and the search from [dst] never leaves it;
    - inserting an edge against the order re-deals the window's affected
      positions: the nodes that reach [src] (backward set) take the lowest
      of them, the nodes reachable from [dst] (forward set) the rest, each
      set keeping its relative order.

    The answer is reachability in the same graph, so it equals the plain
    DFS's whatever the order; the order only prunes the search. *)

type t = {
  mutable ord : int array;  (** node -> position; a permutation of [0 .. n_nodes-1] *)
  mutable succ : int list array;
  mutable pred : int list array;
  mutable mark : int array;  (** visit stamps, one generation per search *)
  mutable stamp : int;
  mutable reach : int array;  (** stamps of {!mark_reaching}, one generation per call *)
  mutable reach_gen : int;
  mutable reach_targets : int list;  (** the last {!mark_reaching}'s targets *)
  mutable reach_lo : int;
      (** the search has visited every node placed at or above this
          position with a path into a target *)
  mutable reach_pending : int list;
      (** the search's frontier below [reach_lo]: targets and
          predecessors of visited nodes, not yet visited *)
  mutable reach_hi : int;  (** the highest target's position *)
  mutable n_nodes : int;  (** nodes [0 .. n_nodes-1] have a position *)
  mutable n_edges : int;
  mutable visits : int;
}

let create () =
  {
    ord = [||];
    succ = [||];
    pred = [||];
    mark = [||];
    stamp = 0;
    reach = [||];
    reach_gen = 0;
    reach_targets = [];
    reach_lo = max_int;
    reach_pending = [];
    reach_hi = -1;
    n_nodes = 0;
    n_edges = 0;
    visits = 0;
  }

(* make [n] a node; new nodes have no edges, so appending them at the end
   of the order keeps it topological *)
let ensure_node t n =
  if n >= t.n_nodes then begin
    let cap = Array.length t.ord in
    if n >= cap then begin
      let cap' = Int.max (n + 1) (Int.max 16 (2 * cap)) in
      let grow a fill = Array.init cap' (fun i -> if i < cap then a.(i) else fill) in
      t.ord <- grow t.ord 0;
      t.succ <- grow t.succ [];
      t.pred <- grow t.pred [];
      t.mark <- grow t.mark 0;
      t.reach <- grow t.reach 0
    end;
    for i = t.n_nodes to n do
      t.ord.(i) <- i
    done;
    t.n_nodes <- n + 1
  end

let succs t n = if n < t.n_nodes then t.succ.(n) else []
let mem_edge t ~src ~dst = List.memq dst (succs t src)

(* Nodes reached from [start] along [next] through nodes whose position
   lies strictly between [lo] and [hi]; [None] as soon as [target] is
   reached, otherwise [Some] every node visited, [start] included. *)
let search t ~next ~start ~target ~lo ~hi =
  t.stamp <- t.stamp + 1;
  let s = t.stamp in
  t.mark.(start) <- s;
  t.visits <- t.visits + 1;
  let rec go stack acc =
    match stack with [] -> Some acc | n :: rest -> scan next.(n) rest acc
  and scan ns rest acc =
    match ns with
    | [] -> go rest acc
    | w :: ws ->
        let o = t.ord.(w) in
        if w = target then None
        else if t.mark.(w) <> s && lo < o && o < hi then begin
          t.mark.(w) <- s;
          t.visits <- t.visits + 1;
          scan ws (w :: rest) (w :: acc)
        end
        else scan ws rest acc
  in
  go [ start ] [ start ]

(* the nodes reachable from [dst] inside the window [ord dst .. ord src],
   or [None] when [src] is among them; needs [ord dst < ord src] *)
let forward t ~src ~dst =
  search t ~next:t.succ ~start:dst ~target:src ~lo:t.ord.(dst) ~hi:t.ord.(src)

(** Would adding [src -> dst] close a directed cycle?  (True in particular
    for a self-edge [src = dst]: a resource chained into itself.) *)
let would_close_cycle t ~src ~dst =
  src = dst
  || src < t.n_nodes && dst < t.n_nodes
     && t.ord.(src) > t.ord.(dst)
     && forward t ~src ~dst = None

(* stamp [n] and, through its predecessors, every node above
   [reach_lo] with a path into it; the predecessors placed below wait in
   [reach_pending] *)
let rec expand t g n =
  if t.reach.(n) <> g then begin
    t.reach.(n) <- g;
    t.visits <- t.visits + 1;
    List.iter
      (fun p -> if t.ord.(p) >= t.reach_lo then expand t g p else t.reach_pending <- p :: t.reach_pending)
      t.pred.(n)
  end

(** Start a backward search from [targets]; {!reaches} carries it down
    the order only as far as the nodes it is asked about.  Every node on
    a path into a target sorts below it, so asking about [n] needs only
    the window of the order between [n] and the highest target: nothing
    for a target itself or a node placed above every target, and each
    node of the window visited at most once per call.  Nodes outside the
    graph have no edges and reach only themselves. *)
let mark_reaching t targets =
  t.reach_gen <- t.reach_gen + 1;
  t.reach_targets <- targets;
  t.reach_lo <- max_int;
  t.reach_pending <- List.filter (fun n -> n < t.n_nodes) targets;
  t.reach_hi <- List.fold_left (fun hi n -> Int.max hi t.ord.(n)) (-1) t.reach_pending

(** Does [n] reach a target of the last {!mark_reaching}?  The search
    first visits every node placed at or above [n] with a path into a
    target: a path from [n] climbs the order, so [n] is visited then
    exactly when one exists.  Valid until the next {!add_edge} or
    {!clear}. *)
let reaches t n =
  List.memq n t.reach_targets
  || n < t.n_nodes
     && t.ord.(n) <= t.reach_hi
     &&
     let o = t.ord.(n) and g = t.reach_gen in
     if o < t.reach_lo then begin
       t.reach_lo <- o;
       let waiting = t.reach_pending in
       t.reach_pending <- [];
       List.iter (fun p -> if t.ord.(p) >= o then expand t g p else t.reach_pending <- p :: t.reach_pending) waiting
     end;
     t.reach.(n) = g

let closes () = invalid_arg "Cycle_detector.add_edge: closes a cycle"
let by_ord t l = List.sort (fun a b -> Int.compare t.ord.(a) t.ord.(b)) l

(** Record the edge (idempotent).  Raises [Invalid_argument] if it would
    close a cycle — callers must test first. *)
let add_edge t ~src ~dst =
  if src = dst then closes ();
  ensure_node t (Int.max src dst);
  if not (mem_edge t ~src ~dst) then begin
    let lo = t.ord.(dst) and hi = t.ord.(src) in
    if lo < hi then begin
      (* against the order: the nodes that reach [src] take the window's
         affected positions first, those reachable from [dst] the rest *)
      let fwd = match forward t ~src ~dst with Some f -> f | None -> closes () in
      let bwd = Option.get (search t ~next:t.pred ~start:src ~target:(-1) ~lo ~hi) in
      let nodes = by_ord t bwd @ by_ord t fwd in
      let pool = List.sort Int.compare (List.map (fun n -> t.ord.(n)) nodes) in
      List.iter2 (fun n p -> t.ord.(n) <- p) nodes pool
    end;
    t.succ.(src) <- dst :: t.succ.(src);
    t.pred.(dst) <- src :: t.pred.(dst);
    t.n_edges <- t.n_edges + 1
  end

(** Drop every edge.  The order stays: any order is topological for an
    empty graph. *)
let clear t =
  Array.fill t.succ 0 t.n_nodes [];
  Array.fill t.pred 0 t.n_nodes [];
  t.n_edges <- 0

let n_edges t = t.n_edges
let visits t = t.visits
