(** Explicit datapath-netlist value: the structural state built by
    simultaneous scheduling-and-binding (Section IV.B), over the
    incremental timing graph {!Hls_timing.Graph}.

    This layer owns everything structural about the datapath being grown:
    the resource instances, the port sharing/mux structure, the
    busy/occupancy tables, the placements and the guard index.  The
    arrival times — one per bound op, every sharing-mux delay included
    (what the paper's netlist queries return) — live in the graph, which
    reads the placement arrays, the guard index and the per-instance delay
    and mux-delay tables this module keeps current: they are the graph's
    node and unit arrays, shared, not copied.  The saturation screen and
    the instance slack floors live in [Screen].

    Mutations happen through a transactional what-if API: {!begin_trial}
    opens a trial and the graph's trial generation, every mutation
    ({!place}, {!attach}, {!set_rtype}, {!occupy}) is journaled in a
    structural undo log, and the arrival writes land in the graph's trial
    slots.  {!commit} folds the trial arrivals into the committed ones in
    O(touched ops), calling the graph's commit hook for each (the
    instance floors' notes); {!rollback} replays the undo log and abandons
    the trial generation.

    {b Representation.}  Every hot table is a dense array indexed by op id
    (op ids are [0 .. Dfg.size - 1], fixed before the netlist is created):
    placements and the per-guard-predicate reverse index.  Each entry
    carries the graph's pass stamp, so {!reset_pass} is O(1) on the per-op
    state — it bumps the stamp and every stale entry reads as absent.  The
    guard index uses swap-remove with stored positions, so unplacing an op
    is O(1) instead of O(bucket population).  The busy table is an
    int-keyed open-addressing table stamped the same way (see
    {!type-busy}), and no comparison on these paths goes through the
    polymorphic compare or hash ([scripts/hot_path_symbols.sh] checks the
    object code).

    The graph itself is read straight from {!Dfg} and {!Region}, whose op,
    edge and membership lookups are array reads too.  The resource type
    of each op ({!resource_of}) is computed once, at creation.  Instances
    are also listed per resource class ({!class_insts}), so finding the
    candidates for an op does not scan every instance.

    Policy (modulo constraints, dedication, forbidden pairs, restraint
    failures) lives above this layer in [Hls_core.Binding]; everything
    here is mechanism. *)

open Hls_ir
open Hls_techlib
module G = Hls_timing.Graph

type inst = {
  inst_id : int;
  mutable rtype : Resource.t;
  mutable bound : int list;  (** op ids, most recent first *)
  mutable prealloc_shared : bool;
      (** instantiate input muxes even before a second op arrives *)
  added_by_expert : bool;
  mutable mux_cache : int list array option;
      (** per-port distinct sources, invalidated when [bound]/[rtype]
          change (the hottest query of the timing engine) *)
  mutable mux_n : int array;
      (** the length of each [mux_cache] list, while that is [Some] *)
  mutable n_bound : int;  (** [List.length bound] *)
  compat : Bytes.t;
      (** need id -> compatibility tier under this [rtype] (see
          {!compat_tier}); ['\255'] until computed *)
}

type placement = { pl_step : int; pl_finish : int; pl_inst : int option }

(** The instances of one resource class, in registration order and in
    candidate order.  An instance never changes class: {!set_rtype} only
    widens within one. *)
type iclass = {
  ic_class : Opkind.rclass;
  mutable ic_rev : inst list;  (** newest first *)
  mutable ic_memo : inst list option;  (** registration order *)
  mutable ic_order : inst array;
      (** the first [ic_len] slots: the class in ascending (load, id)
          order, load being [n_bound] (see {!next_candidate}) *)
  mutable ic_len : int;
  ic_id : int;  (** the class's key in the occupancy counts, dense from 0 *)
}

(** Structural undo log entry: each records the absolute prior value, so
    replaying the log newest-first leaves the oldest (pre-trial) value in
    place for every mutated location. *)
type undo =
  | U_place of int  (** placement was absent before the trial *)
  | U_replace of int * placement
  | U_bound of inst * int list * int
  | U_rtype of inst * Resource.t
  | U_mux of inst * int list array option * int array * float array
      (** the caches and the graph's mux-delay array of the instance *)
  | U_busy of int list ref * int list
  | U_occ of int ref  (** a class's occupancy count went up by one *)

type stats = {
  s_queries : int;  (** netlist timing queries (arrival recomputations) *)
  s_trials : int;
  s_commits : int;
  s_rollbacks : int;
  s_visits : int;
      (** cells examined by the propagation — bounded propagation stops at
          unchanged arrivals, so this stays well below the fanout cone *)
  s_cycle_visits : int;
      (** instances visited by the structural-cycle detector's searches *)
}

(* filler for ops of no class: an empty order *)
let no_class =
  { ic_class = Opkind.R_wire; ic_rev = []; ic_memo = Some []; ic_order = [||]; ic_len = 0; ic_id = -1 }

(** The busy table: (instance, slot) -> the ops occupying it.  Open
    addressing with linear probing over parallel arrays, hashed by a
    multiplicative (Fibonacci) hash of both key halves.  A cell is live
    only while its stamp equals the pass stamp, so {!reset_pass} empties
    the table in O(1) and keeps its capacity; a stale cell reads as free.
    Within a pass cells are only claimed, never freed (a rollback
    restores a cell's list, not its key), so a probe stops at the first
    free cell.  The capacity is a power of two at least twice the live
    cells: it follows the slots actually occupied, not the latency bound.
    The values sit in refs so that undo entries stay valid across a
    rehash.  The same table, keyed by (class, slot), holds the occupancy
    counts: how many instances of the class have an occupant in the
    slot. *)
type 'a busy = {
  mutable bz_stamp : int array;
  mutable bz_inst : int array;  (** instance, or class for the counts *)
  mutable bz_slot : int array;
  mutable bz_val : 'a ref array;
  mutable bz_bits : int;  (** log2 of the capacity *)
  mutable bz_live : int;  (** live cells, counted for pass [bz_pass] *)
  mutable bz_pass : int;
  bz_free : 'a ref;  (** shared filler for free cells: never handed out, never written *)
}

type t = {
  region : Region.t;
  lib : Library.t;
  clock_ps : float;
  dfg : Dfg.t;
  g : G.t;  (** the timing graph over this netlist's placements *)
  mutable insts_rev : inst list;  (** newest first; see {!insts} *)
  mutable insts_memo : inst list option;  (** registration order *)
  mutable inst_arr : inst array;  (** id -> instance (slots from [next_inst_id] on are filler) *)
  mutable cls_of : iclass array;  (** instance id -> its class *)
  mutable ord_pos : int array;  (** instance id -> its slot in its class's [ic_order] *)
  mutable next_inst_id : int;
  (* placements: op id -> (step, finish, inst or -1), live iff stamped
     with the graph's pass; these are the graph's node arrays *)
  pl_gen : int array;
  pl_step : int array;
  pl_finish : int array;
  pl_inst : int array;
  gslots : G.bucket array;
      (** guard predecessor (op id) -> placed ops whose guard reads it *)
  gpos : int array option array;
      (** op -> positions in each pred's bucket, parallel to its guard preds *)
  busy : int list busy;  (** (instance, slot) -> ops occupying it, this pass *)
  occ : int busy;  (** (class id, slot) -> its instances with an occupant there, this pass *)
  chain : Hls_timing.Cycle_detector.t;
  mutable undo_log : undo list;
  mutable n_trials : int;
  mutable n_commits : int;
  mutable n_rollbacks : int;
  rt_c : Resource.t option array;  (** {!Resource.of_op}, eager *)
  mutable classes : iclass list;  (** per resource class, few *)
  need_c : int array;  (** op -> id of its resource need, -1 for none *)
  needs : Resource.t array;  (** need id -> resource need *)
  need_cls : iclass array;  (** need id -> its class, [no_class] until looked up *)
  member_needs : Resource.t list;  (** static: resource needs of the members *)
  class_ops_memo : (Resource.t, int) Hashtbl.t;
      (** rtype -> members mergeable into it (static per region) *)
  mutable prealloc_stale : bool;
      (** an instance was added or changed type since the [prealloc_shared]
          flags were last computed *)
  seen : int array;  (** visit stamps of {!chain_source_insts}, one generation per walk *)
  mutable seen_gen : int;
  mutable epoch : int array;  (** instance -> epoch of its last change (see {!inst_epoch}) *)
  mutable epoch_tick : int;  (** the last epoch handed out *)
  mutable forced : bool;  (** a trial-less bind ({!mark_forced}) since {!reset_pass} *)
}

(* field accessors for the abstract [t] (the record itself stays private
   so the dense tables can evolve without touching callers) *)
let region t = t.region
let lib t = t.lib
let clock_ps t = t.clock_ps
let dfg t = t.dfg
let graph t = t.g

let busy_make bits free =
  let n = 1 lsl bits in
  { bz_stamp = Array.make n 0; bz_inst = Array.make n 0; bz_slot = Array.make n 0;
    bz_val = Array.make n free; bz_bits = bits; bz_live = 0; bz_pass = 0; bz_free = free }

let extended a cap d =
  let b = Array.make cap d in
  Array.blit a 0 b 0 (Array.length a);
  b

(* --- per-op facts, computed once --- *)

(** {!Resource.of_op}, computed once per op. *)
let resource_of t (op : Dfg.op) = t.rt_c.(op.Dfg.id)

let op_latency t (op : Dfg.op) = t.g.G.lat.(op.Dfg.id)

let is_multicycle t op = op_latency t op > 1

let placed t op_id = t.pl_gen.(op_id) = t.g.G.pass

(* --- instances --- *)

let stats t =
  { s_queries = t.g.G.n_queries; s_trials = t.n_trials; s_commits = t.n_commits;
    s_rollbacks = t.n_rollbacks; s_visits = t.g.G.n_visits;
    s_cycle_visits = Hls_timing.Cycle_detector.visits t.chain }

let iclass t rclass =
  match List.find_opt (fun c -> Opkind.equal_rclass c.ic_class rclass) t.classes with
  | Some c -> c
  | None ->
      let c =
        { ic_class = rclass; ic_rev = []; ic_memo = Some []; ic_order = [||]; ic_len = 0;
          ic_id = List.length t.classes }
      in
      t.classes <- c :: t.classes;
      c

(* (load, id) order, the order {!next_candidate} walks a class in *)
let order_lt (a : inst) (b : inst) =
  a.n_bound < b.n_bound || (a.n_bound = b.n_bound && a.inst_id < b.inst_id)

(** Move [i] to its slot in its class's (load, id) order after its load
    changed: one insertion step, past the instances it now sorts after
    or before. *)
let reorder t (i : inst) =
  let c = t.cls_of.(i.inst_id) in
  let a = c.ic_order in
  let p = ref t.ord_pos.(i.inst_id) in
  while !p + 1 < c.ic_len && order_lt a.(!p + 1) i do
    let j = a.(!p + 1) in
    a.(!p) <- j;
    t.ord_pos.(j.inst_id) <- !p;
    incr p
  done;
  while !p > 0 && order_lt i a.(!p - 1) do
    let j = a.(!p - 1) in
    a.(!p) <- j;
    t.ord_pos.(j.inst_id) <- !p;
    decr p
  done;
  a.(!p) <- i;
  t.ord_pos.(i.inst_id) <- !p

(* a fresh epoch for [i]: whatever was derived from it is stale *)
let touch t (i : inst) =
  t.epoch_tick <- t.epoch_tick + 1;
  t.epoch.(i.inst_id) <- t.epoch_tick

let inst_epoch t (i : inst) = t.epoch.(i.inst_id)

let add_inst ?(added_by_expert = false) t rtype =
  let inst =
    { inst_id = t.next_inst_id; rtype; bound = []; prealloc_shared = false; added_by_expert;
      mux_cache = None; mux_n = [||]; n_bound = 0; compat = Bytes.make (Array.length t.needs) '\255' }
  in
  t.next_inst_id <- t.next_inst_id + 1;
  t.insts_rev <- inst :: t.insts_rev;
  t.insts_memo <- None;
  t.prealloc_stale <- true;
  let c = iclass t rtype.Resource.rclass in
  if inst.inst_id = Array.length t.inst_arr then begin
    let n = Int.max 16 (2 * inst.inst_id) in
    t.inst_arr <- extended t.inst_arr n inst;
    t.cls_of <- extended t.cls_of n c;
    t.ord_pos <- extended t.ord_pos n 0;
    t.epoch <- extended t.epoch n 0
  end;
  t.inst_arr.(inst.inst_id) <- inst;
  G.add_unit t.g inst.inst_id ~delay:(Library.delay t.lib rtype);
  touch t inst;
  c.ic_rev <- inst :: c.ic_rev;
  c.ic_memo <- None;
  if c.ic_len = Array.length c.ic_order then c.ic_order <- extended c.ic_order (Int.max 4 (2 * c.ic_len)) inst;
  c.ic_order.(c.ic_len) <- inst;
  t.cls_of.(inst.inst_id) <- c;
  t.ord_pos.(inst.inst_id) <- c.ic_len;
  c.ic_len <- c.ic_len + 1;
  reorder t inst;
  inst

(** Instances in registration order (ascending id); memoized, so the
    amortized cost of registering k instances is O(k), not O(k²). *)
let insts t =
  match t.insts_memo with
  | Some l -> l
  | None ->
      let l = List.rev t.insts_rev in
      t.insts_memo <- Some l;
      l

let n_insts t = t.next_inst_id

let class_list c =
  match c.ic_memo with
  | Some l -> l
  | None ->
      let l = List.rev c.ic_rev in
      c.ic_memo <- Some l;
      l

(* [op]'s class, looked up once per resource need *)
let class_of_op t (op : Dfg.op) =
  let k = t.need_c.(op.Dfg.id) in
  if k < 0 then no_class
  else begin
    let c = t.need_cls.(k) in
    if c != no_class then c
    else begin
      let c = iclass t t.needs.(k).Resource.rclass in
      t.need_cls.(k) <- c;
      c
    end
  end

(** The instances of [op]'s resource class, in registration order; empty
    for wire-class ops. *)
let class_insts t (op : Dfg.op) = class_list (class_of_op t op)

let find_inst t id =
  if id >= 0 && id < t.next_inst_id then t.inst_arr.(id) else raise Not_found

(** How an instance of [op]'s class can host [op]: 0 when its type already
    fits the op's need, 1 when it can be widened to, 2 when neither.  One
    byte per (need, instance), recomputed only after the instance's type
    changed. *)
let tier_of need have =
  if Resource.fits ~need ~have then 0 else if Resource.can_merge need have then 1 else 2

let compat_tier t (op : Dfg.op) i =
  let k = t.need_c.(op.Dfg.id) in
  if k < 0 then 2
  else begin
    let c = Bytes.unsafe_get i.compat k in
    if c <> '\255' then Char.code c
    else begin
      let v = tier_of t.needs.(k) i.rtype in
      Bytes.unsafe_set i.compat k (Char.unsafe_chr v);
      v
    end
  end

let rec scan_order t (op : Dfg.op) c tier k =
  if k >= c.ic_len then -1
  else if compat_tier t op c.ic_order.(k) = tier then k
  else scan_order t op c tier (k + 1)

(** The candidate cursor: the first slot at or after [from] in the (load,
    id) order of [op]'s class whose instance has compatibility tier [tier]
    for [op]; -1 when there is none.  A walk over tier 0 from slot 0, then
    over tier 1 from slot 0, visits the candidates in (tier, load,
    registration) order.  The order follows every load change
    ({!attach}, {!rollback}, {!add_inst}, {!reset_pass}), so a walk that
    resumes after a rolled-back trial finds the order it left. *)
let next_candidate t (op : Dfg.op) ~tier ~from = scan_order t op (class_of_op t op) tier from

(** The instance in slot [k] of [op]'s class order. *)
let candidate_at t (op : Dfg.op) k = (class_of_op t op).ic_order.(k)

(* the type-derived state of an instance follows its type *)
let set_type t i rt =
  i.rtype <- rt;
  t.g.G.unit_delay.(i.inst_id) <- Library.delay t.lib rt;
  Bytes.fill i.compat 0 (Bytes.length i.compat) '\255'

(** Region members whose resource need can merge into [rt], memoized per
    type permanently (membership is static). *)
let class_ops t rt =
  match Hashtbl.find_opt t.class_ops_memo rt with
  | Some n -> n
  | None ->
      let n = List.length (List.filter (fun m -> Resource.can_merge m rt) t.member_needs) in
      Hashtbl.add t.class_ops_memo rt n;
      n

(** Mark shared instances: a class with more candidate ops than instances
    will be shared, so its input muxes are pre-allocated (Fig. 8a).  The
    flags depend only on the region's membership and the instances' types,
    so they are recomputed only after an instance was added or changed type
    (a merge widens it, and the widened type persists into the next pass).
    Both counts are memoized per resource type — the member count
    permanently (membership is static), the instance count for this call —
    so the recompute is O(distinct types × (members + instances)), not
    O(instances²).  True when some instance's flag changed. *)
let refresh_prealloc t =
  if not t.prealloc_stale then false
  else begin
    t.prealloc_stale <- false;
    let all = insts t in
    let n_insts_memo = Hashtbl.create 8 in
    let insts_of_class rt =
      match Hashtbl.find_opt n_insts_memo rt with
      | Some n -> n
      | None ->
          let n = List.length (List.filter (fun i -> Resource.can_merge i.rtype rt) all) in
          Hashtbl.add n_insts_memo rt n;
          n
    in
    List.fold_left
      (fun moved inst ->
        let shared = class_ops t inst.rtype > insts_of_class inst.rtype in
        if shared = inst.prealloc_shared then moved
        else begin
          inst.prealloc_shared <- shared;
          (* its mux delays moved *)
          touch t inst;
          true
        end)
      false all
  end

(** Reset all pass-local state (placements, busy tables, arrivals, chain
    graph, any dangling trial) while keeping the resource set — the state
    carried between scheduling passes — and set whether the pass prices
    its sharing muxes.  O(1) on the dense per-op tables: bumping the pass
    stamp makes every stale entry read as absent. *)
let reset_pass ~price_muxes t =
  G.new_pass t.g ~priced:price_muxes;
  List.iter
    (fun i ->
      i.bound <- [];
      i.n_bound <- 0;
      i.mux_cache <- None;
      t.g.G.unit_mux.(i.inst_id) <- [||];
      touch t i)
    t.insts_rev;
  (* every load is 0 again: the candidate order is registration order *)
  List.iter
    (fun c ->
      List.iteri
        (fun k i ->
          c.ic_order.(k) <- i;
          t.ord_pos.(i.inst_id) <- k)
        (class_list c))
    t.classes;
  Hls_timing.Cycle_detector.clear t.chain;
  t.undo_log <- [];
  t.forced <- false;
  ignore (refresh_prealloc t)

(* --- placements --- *)

let placement t op_id =
  if placed t op_id then
    Some
      {
        pl_step = t.pl_step.(op_id);
        pl_finish = t.pl_finish.(op_id);
        pl_inst = (let i = t.pl_inst.(op_id) in if i < 0 then None else Some i);
      }
  else None

let is_placed t op_id = placed t op_id

let iter_placements t f =
  for id = 0 to Array.length t.pl_gen - 1 do
    if placed t id then
      f id
        {
          pl_step = t.pl_step.(id);
          pl_finish = t.pl_finish.(id);
          pl_inst = (let i = t.pl_inst.(id) in if i < 0 then None else Some i);
        }
  done

let fold_placements t f acc =
  let acc = ref acc in
  iter_placements t (fun id pl -> acc := f id pl !acc);
  !acc

let slot t step = if Region.is_pipelined t.region then step mod Region.ii t.region else step

(* Fibonacci hash of (inst, slot) onto [bits] bits: the multiply mixes
   both halves into the top bits, so one step's entries for different
   instances spread over the table *)
let busy_hash (inst : int) (sl : int) bits =
  (((inst lsl 31) lxor sl) * 0x1E3779B97F4A7C15) lsr (Sys.int_size - bits)

(* the live cell of (inst, slot) when >= 0, else [-1 - free cell] *)
let busy_find b ~pass inst sl =
  let mask = Array.length b.bz_stamp - 1 in
  let rec probe k =
    if b.bz_stamp.(k) <> pass then -1 - k
    else if b.bz_inst.(k) = inst && b.bz_slot.(k) = sl then k
    else probe ((k + 1) land mask)
  in
  probe (busy_hash inst sl b.bz_bits)

(* double the capacity, carrying over this pass's live cells *)
let busy_grow b ~pass =
  let old_stamp = b.bz_stamp and old_inst = b.bz_inst and old_slot = b.bz_slot in
  let old_val = b.bz_val in
  let g = busy_make (b.bz_bits + 1) b.bz_free in
  b.bz_stamp <- g.bz_stamp;
  b.bz_inst <- g.bz_inst;
  b.bz_slot <- g.bz_slot;
  b.bz_val <- g.bz_val;
  b.bz_bits <- g.bz_bits;
  Array.iteri
    (fun k st ->
      if st = pass then begin
        let j = -1 - busy_find b ~pass old_inst.(k) old_slot.(k) in
        b.bz_stamp.(j) <- st;
        b.bz_inst.(j) <- old_inst.(k);
        b.bz_slot.(j) <- old_slot.(k);
        b.bz_val.(j) <- old_val.(k)
      end)
    old_stamp

(* the live value of (inst, slot), claimed with [empty] when absent *)
let rec busy_cell b ~pass inst sl (empty : 'a) : 'a ref =
  let k = busy_find b ~pass inst sl in
  if k >= 0 then b.bz_val.(k)
  else begin
    if b.bz_pass <> pass then begin
      b.bz_pass <- pass;
      b.bz_live <- 0
    end;
    if 2 * (b.bz_live + 1) > Array.length b.bz_stamp then begin
      busy_grow b ~pass;
      busy_cell b ~pass inst sl empty
    end
    else begin
      let j = -1 - k in
      let r = ref empty in
      b.bz_stamp.(j) <- pass;
      b.bz_inst.(j) <- inst;
      b.bz_slot.(j) <- sl;
      b.bz_val.(j) <- r;
      b.bz_live <- b.bz_live + 1;
      r
    end
  end

let busy_ref t inst step = busy_cell t.busy ~pass:t.g.G.pass inst (slot t step) []

(* a read: a missing slot is empty, and stays absent from the table *)
let busy_ops t inst step =
  let k = busy_find t.busy ~pass:t.g.G.pass inst (slot t step) in
  if k >= 0 then !(t.busy.bz_val.(k)) else []

let dump_busy t =
  let b = t.busy in
  let acc = ref [] in
  Array.iteri
    (fun k st ->
      if st = t.g.G.pass && !(b.bz_val.(k)) <> [] then
        acc := ((b.bz_inst.(k), b.bz_slot.(k)), List.sort Int.compare !(b.bz_val.(k))) :: !acc)
    b.bz_stamp;
  List.sort
    (fun (((i : int), (s : int)), _) ((i', s'), _) ->
      match Int.compare i i' with 0 -> Int.compare s s' | c -> c)
    !acc

(* --- guard index: guard predecessor -> placed ops whose guard reads it.
   Membership depends only on the op being placed (the guard structure is
   static), so a re-placement needs no update.  Removal is O(#preds) via
   the positions stored in [gpos]. --- *)

let bucket_push (b : G.bucket) x =
  if b.G.b_len = Array.length b.G.b_a then begin
    let a = Array.make (Int.max 4 (2 * Array.length b.G.b_a)) 0 in
    Array.blit b.G.b_a 0 a 0 b.G.b_len;
    b.G.b_a <- a
  end;
  b.G.b_a.(b.G.b_len) <- x;
  b.G.b_len <- b.G.b_len + 1

let guard_bucket t pred =
  let b = t.gslots.(pred) in
  if b.G.b_gen <> t.g.G.pass then begin
    b.G.b_gen <- t.g.G.pass;
    b.G.b_len <- 0
  end;
  b

let guard_index_add t op_id =
  let gp = t.g.G.gpreds.(op_id) in
  if Array.length gp > 0 then begin
    let pos =
      match t.gpos.(op_id) with
      | Some a when Array.length a = Array.length gp -> a
      | _ ->
          let a = Array.make (Array.length gp) 0 in
          t.gpos.(op_id) <- Some a;
          a
    in
    Array.iteri
      (fun k p ->
        let b = guard_bucket t p in
        bucket_push b op_id;
        pos.(k) <- b.G.b_len - 1)
      gp
  end

let guard_index_remove t op_id =
  let gp = t.g.G.gpreds.(op_id) in
  if Array.length gp > 0 then
    match t.gpos.(op_id) with
    | None -> ()
    | Some pos ->
        Array.iteri
          (fun k p ->
            let b = guard_bucket t p in
            let i = pos.(k) in
            let last = b.G.b_len - 1 in
            if i <> last then begin
              let moved = b.G.b_a.(last) in
              b.G.b_a.(i) <- moved;
              (* fix the moved op's stored position for this predecessor *)
              match t.gpos.(moved) with
              | Some mpos ->
                  let mgp = t.g.G.gpreds.(moved) in
                  let n = Array.length mgp in
                  let rec fix k' =
                    if k' < n then
                      if mgp.(k') = p && mpos.(k') = last then mpos.(k') <- i else fix (k' + 1)
                  in
                  fix 0
              | None -> ()
            end;
            b.G.b_len <- last)
          gp

(* --- transactions --- *)

let begin_trial t =
  if t.g.G.trial_on then invalid_arg "Netlist.begin_trial: trial already active";
  G.begin_trial t.g;
  t.undo_log <- [];
  t.n_trials <- t.n_trials + 1

let commit t =
  if not t.g.G.trial_on then invalid_arg "Netlist.commit: no active trial";
  G.commit t.g;
  t.undo_log <- [];
  t.n_commits <- t.n_commits + 1

let unplace t op_id =
  guard_index_remove t op_id;
  t.pl_gen.(op_id) <- 0

let rollback t =
  if not t.g.G.trial_on then invalid_arg "Netlist.rollback: no active trial";
  (* newest-first replay: the oldest entry for a location lands last and
     carries the pre-trial value.  Trial arrivals are simply abandoned —
     their generation stamp can never match again. *)
  List.iter
    (function
      | U_place op -> unplace t op
      | U_replace (op, pl) ->
          t.pl_step.(op) <- pl.pl_step;
          t.pl_finish.(op) <- pl.pl_finish;
          t.pl_inst.(op) <- (match pl.pl_inst with Some i -> i | None -> -1);
          t.pl_gen.(op) <- t.g.G.pass
      | U_bound (i, b, n) ->
          i.bound <- b;
          i.n_bound <- n;
          touch t i;
          reorder t i
      | U_rtype (i, rt) ->
          set_type t i rt;
          touch t i
      | U_mux (i, mc, mn, md) ->
          i.mux_cache <- mc;
          i.mux_n <- mn;
          t.g.G.unit_mux.(i.inst_id) <- md
      | U_busy (r, l) -> r := l
      | U_occ r -> decr r)
    t.undo_log;
  G.abandon t.g;
  t.undo_log <- [];
  t.n_rollbacks <- t.n_rollbacks + 1

(** {2 Structural mutators} — journaled while a trial is active *)

let place t op_id ~step ~finish ~inst_opt =
  let fresh = not (placed t op_id) in
  if t.g.G.trial_on then
    (match placement t op_id with
    | Some pl -> t.undo_log <- U_replace (op_id, pl) :: t.undo_log
    | None -> t.undo_log <- U_place op_id :: t.undo_log);
  if fresh then guard_index_add t op_id;
  t.pl_step.(op_id) <- step;
  t.pl_finish.(op_id) <- finish;
  t.pl_inst.(op_id) <- (match inst_opt with Some i -> i | None -> -1);
  t.pl_gen.(op_id) <- t.g.G.pass

(* a source count as mux inputs: a pre-allocated mux has at least two *)
let effective_inputs inst n = if inst.prealloc_shared then Int.max n 2 else n

let journal_mux t i =
  if t.g.G.trial_on then
    t.undo_log <- U_mux (i, i.mux_cache, i.mux_n, t.g.G.unit_mux.(i.inst_id)) :: t.undo_log

let invalidate_mux t i =
  journal_mux t i;
  i.mux_cache <- None;
  t.g.G.unit_mux.(i.inst_id) <- [||]

(** Insert [x] into an ascending duplicate-free list, keeping it so. *)
let rec sorted_insert (x : int) = function
  | [] -> [ x ]
  | y :: _ as l when x < y -> x :: l
  | y :: _ as l when x = y -> l
  | y :: rest -> y :: sorted_insert x rest

(** Bind an op onto an instance.  Re-attaching an op already bound to the
    instance is a no-op — the mux structure cannot have changed, so the
    caches survive and no arrival recomputation is triggered downstream.

    A warm mux cache is updated in place rather than invalidated: the new
    op has at most one in-edge per port ({!Dfg.connect} keeps it so), so
    it contributes at most one source per port, and inserting each into the
    cached (sorted, duplicate-free) source lists reproduces exactly what a
    full rebuild over the grown bound list would compute — without the
    O(bound × ports) rescan every trial attach would otherwise pay.  Ports
    beyond the cached array stay uncached and fall back to the rebuild in
    {!port_srcs}. *)
let attach t i op_id =
  if not (List.memq op_id i.bound) then begin
    if t.g.G.trial_on then t.undo_log <- U_bound (i, i.bound, i.n_bound) :: t.undo_log;
    i.bound <- op_id :: i.bound;
    i.n_bound <- i.n_bound + 1;
    touch t i;
    reorder t i;
    match i.mux_cache with
    | None -> invalidate_mux t i
    | Some c ->
        journal_mux t i;
        let c' = Array.copy c and n' = Array.copy i.mux_n in
        List.iter
          (fun (e : Dfg.edge) ->
            let p = e.Dfg.port in
            if p < Array.length c' && not (List.memq e.Dfg.src c'.(p)) then begin
              c'.(p) <- sorted_insert e.Dfg.src c'.(p);
              n'.(p) <- n'.(p) + 1
            end)
          (Dfg.in_edges t.dfg op_id);
        i.mux_cache <- Some c';
        let d = t.g.G.unit_mux.(i.inst_id) in
        if Array.length d > 0 then begin
          let d' = Array.copy d in
          for p = 0 to Int.min (Array.length d') (Array.length n') - 1 do
            if n'.(p) <> i.mux_n.(p) then
              d'.(p) <- t.g.G.mux_tab.(effective_inputs i n'.(p))
          done;
          t.g.G.unit_mux.(i.inst_id) <- d'
        end;
        i.mux_n <- n'
  end

let set_rtype t i rt =
  if not (Resource.equal rt i.rtype) then begin
    if t.g.G.trial_on then t.undo_log <- U_rtype (i, i.rtype) :: t.undo_log;
    set_type t i rt;
    touch t i;
    t.prealloc_stale <- true;
    invalidate_mux t i
  end

(* one more instance of [c] occupied in slot [sl]: its first occupant *)
let occ_incr t c sl =
  let r = busy_cell t.occ ~pass:t.g.G.pass c.ic_id sl 0 in
  incr r;
  if t.g.G.trial_on then t.undo_log <- U_occ r :: t.undo_log

let occupy t ~inst_id ~step ~finish op_id =
  for s = step to finish do
    let r = busy_ref t inst_id s in
    (match !r with [] -> occ_incr t t.cls_of.(inst_id) (slot t s) | _ :: _ -> ());
    if t.g.G.trial_on then t.undo_log <- U_busy (r, !r) :: t.undo_log;
    r := op_id :: !r
  done

(** Does some step of [step]..[finish] have every instance of [op]'s class
    occupied in its slot?  One count per (class, slot), kept by {!occupy}
    and undone by {!rollback}; {!reset_pass} voids them with the pass
    stamp. *)
let class_saturated t (op : Dfg.op) ~step ~finish =
  let c = class_of_op t op and b = t.occ in
  let rec from s =
    s <= finish
    &&
    let k = busy_find b ~pass:t.g.G.pass c.ic_id (slot t s) in
    (k >= 0 && !(b.bz_val.(k)) >= c.ic_len) || from (s + 1)
  in
  c.ic_len > 0 && from step

(** {2 Mux structure} *)

(** Distinct sources feeding input [port] of [inst] over its bound ops.
    Cached per instance; every [bound]/[rtype] mutation clears the cache. *)
let port_srcs t (inst : inst) ~port =
  let srcs =
    match inst.mux_cache with
    | Some c when port < Array.length c -> c
    | _ ->
        let n_ports = Int.max (port + 1) (List.length inst.rtype.Resource.in_widths) in
        let c =
          Array.init n_ports (fun p ->
              List.filter_map
                (fun o -> Option.map (fun e -> e.Dfg.src) (Dfg.input t.dfg o ~port:p))
                inst.bound
              |> List.sort_uniq Int.compare)
        in
        (* derived state: rebuilding reflects the current bound/rtype, so a
           rebuild during a trial needs no journal entry of its own — the
           attach/set_rtype that changed the inputs already journaled the
           pre-trial caches *)
        inst.mux_cache <- Some c;
        inst.mux_n <- Array.map List.length c;
        t.g.G.unit_mux.(inst.inst_id) <- [||];
        c
  in
  if port < Array.length srcs then srcs.(port) else []

(** The number of distinct sources feeding [port], kept beside the cache *)
let src_count t inst ~port =
  (match inst.mux_cache with
  | Some c when port < Array.length c -> ()
  | _ -> ignore (port_srcs t inst ~port));
  inst.mux_n.(port)

let mux_inputs t inst ~port = effective_inputs inst (src_count t inst ~port)

(** Mux inputs of [port] after a hypothetical bind of an op whose [port]
    input comes from [src]: a source already feeding the port adds no mux
    input. *)
let mux_inputs_with t inst ~port ~src =
  let n = src_count t inst ~port in
  effective_inputs inst (if List.memq src (port_srcs t inst ~port) then n else n + 1)

(* [mux_inputs_with] differs from [mux_inputs] exactly when [src] is new
   to the port and, on a pre-allocated instance, the port already had two
   sources or more *)
let mux_grows t inst ~port ~src =
  (src_count t inst ~port >= 2 || not inst.prealloc_shared)
  && not (List.memq src (port_srcs t inst ~port))

(* the graph's mux fill: rebuild the instance's per-port mux delays from
   its source caches *)
let in_mux_delay_fill t inst ~port =
  ignore (port_srcs t inst ~port);
  (* the call above guarantees mux_cache covers [port] *)
  let c = match inst.mux_cache with Some c -> c | None -> [||] in
  let d =
    Array.init (Array.length c) (fun p -> t.g.G.mux_tab.(mux_inputs t inst ~port:p))
  in
  t.g.G.unit_mux.(inst.inst_id) <- d;
  if port < Array.length d then d.(port) else t.g.G.mux_tab.(mux_inputs t inst ~port)

let create ~lib ~clock_ps (region : Region.t) =
  let dfg = region.Region.dfg in
  let g = G.create ~lib ~clock_ps region in
  let cap = Array.length g.G.node_pass in
  let rt_c = Array.make cap None in
  Dfg.iter_ops dfg (fun op -> rt_c.(op.Dfg.id) <- Resource.of_op dfg op);
  let member_needs = List.filter_map (fun op -> rt_c.(op.Dfg.id)) (Region.member_ops region) in
  (* intern the distinct needs: each instance memoizes one compatibility
     tier per need *)
  let need_ids = Hashtbl.create 8 and needs = ref [] in
  let need_c =
    Array.map
      (function
        | None -> -1
        | Some rt -> (
            match Hashtbl.find_opt need_ids rt with
            | Some k -> k
            | None ->
                let k = Hashtbl.length need_ids in
                Hashtbl.add need_ids rt k;
                needs := rt :: !needs;
                k))
      rt_c
  in
  let t =
    {
      region;
      lib;
      clock_ps;
      dfg;
      g;
      insts_rev = [];
      insts_memo = Some [];
      inst_arr = [||];
      cls_of = [||];
      ord_pos = [||];
      next_inst_id = 0;
      pl_gen = g.G.node_pass;
      pl_step = g.G.node_step;
      pl_finish = g.G.node_finish;
      pl_inst = g.G.node_unit;
      gslots = g.G.gslots;
      gpos = Array.make cap None;
      busy = busy_make 6 (ref []);
      occ = busy_make 4 (ref 0);
      chain = Hls_timing.Cycle_detector.create ();
      undo_log = [];
      n_trials = 0;
      n_commits = 0;
      n_rollbacks = 0;
      rt_c;
      classes = [];
      need_c;
      needs = Array.of_list (List.rev !needs);
      need_cls = Array.make (List.length !needs) no_class;
      member_needs;
      class_ops_memo = Hashtbl.create 8;
      prealloc_stale = true;
      seen = Array.make cap 0;
      seen_gen = 0;
      epoch = [||];
      epoch_tick = 0;
      forced = false;
    }
  in
  G.set_mux_fill g (fun u port -> in_mux_delay_fill t t.inst_arr.(u) ~port);
  t

(** {2 Own slack on an empty instance}

    The trial of a bind onto an instance with nothing bound, whose type
    already fits the op, retimes the op alone: it is the only seed, no
    cohabitant shares a mux with it, and the instance keeps its type and
    delay.  Its inputs are committed arrivals the bind cannot move (they
    sit upstream of the op), and each of its input muxes has exactly one
    source, so it is priced at one input, or at two when the instance
    pre-allocates its muxes.  Unless some op already placed in the op's
    finishing step reads its result (as data or as a guard), the op is
    also the only cell the propagation visits.  Then {!G.own_data} (same
    base, same fold order as the graph's arrival formula) and
    {!G.slack_of} give, bit for bit, the worst slack the trial returns —
    carried by the op itself.  [nan] when one of these conditions fails:
    the caller runs the trial then. *)

(* Does an op placed in step [finish] read [id]'s result, as data or as
   guard?  Exactly the ops the propagation pushes after retiming [id] *)
let reads_result_in_step t id ~finish =
  Array.exists (fun d -> placed t d && t.pl_step.(d) = finish) t.g.G.out0.(id)
  ||
  let b = t.gslots.(id) in
  b.G.b_gen = t.g.G.pass
  &&
  let rec any k =
    k < b.G.b_len && ((placed t b.G.b_a.(k) && t.pl_step.(b.G.b_a.(k)) = finish) || any (k + 1))
  in
  any 0

(* Is the op's own slack on an empty instance the trial's worst slack?
   Not when the op is placed, nor when an op placed in its finishing step
   reads its result *)
let own_slack_defined t (op : Dfg.op) ~finish =
  not (placed t op.Dfg.id || reads_result_in_step t op.Dfg.id ~finish)

let empty_bind_slack t (op : Dfg.op) ~step ~finish ~(inst : inst) =
  if inst.n_bound > 0 || compat_tier t op inst <> 0 || not (own_slack_defined t op ~finish) then nan
  else begin
    let srcs = Array.make (List.length (Dfg.in_edges t.dfg op.Dfg.id)) 0.0 in
    G.source_arrivals t.g op ~step srcs;
    let data = G.own_data t.g op ~srcs ~inputs:(if inst.prealloc_shared then 2 else 1) in
    G.slack_of t.g ~arrival:(data +. t.g.G.unit_delay.(inst.inst_id)) ~guard:(G.guard_arrival t.g ~step:finish op)
  end

let mark_forced t = t.forced <- true
let forced t = t.forced

(** Resource instances that combinationally feed [op] when placed at
    [step], tracing through same-step wire ops (for the structural-cycle
    check). *)
let chain_source_insts t op_id ~step =
  t.seen_gen <- t.seen_gen + 1;
  let gen = t.seen_gen in
  let acc = ref [] in
  let rec visit id =
    if placed t id && t.seen.(id) <> gen then begin
      t.seen.(id) <- gen;
      if t.pl_finish.(id) = step && t.g.G.lat.(id) <= 1 then
        match t.pl_inst.(id) with
        | -1 ->
            List.iter
              (fun e -> if e.Dfg.distance = 0 then visit e.Dfg.src)
              (Dfg.in_edges t.dfg id)
        | j -> acc := j :: !acc
    end
  in
  List.iter (fun e -> if e.Dfg.distance = 0 then visit e.Dfg.src) (Dfg.in_edges t.dfg op_id);
  List.sort_uniq Int.compare !acc

let chain t = t.chain

let add_chain_edge t ~src ~dst = Hls_timing.Cycle_detector.add_edge t.chain ~src ~dst

(** {2 Reporting} *)

(** Values that must live in registers: results consumed in a later step,
    loop-carried values, port writes, and predicates whose guarded op
    commits in a later step (its enable reads the registered predicate).
    Ascending id order. *)
let registered_ops t =
  List.rev
    (fold_placements t
       (fun id pl acc ->
         let op = Dfg.find t.dfg id in
         let crosses =
           List.exists
             (fun e ->
               e.Dfg.distance > 0
               || (not (Region.mem t.region e.Dfg.dst))
               || (if placed t e.Dfg.dst then t.pl_step.(e.Dfg.dst) > pl.pl_finish else true))
             (Dfg.out_edges t.dfg id)
         in
         let guards_later =
           let b = t.gslots.(id) in
           b.G.b_gen = t.g.G.pass
           &&
           let rec any k = k < b.G.b_len && (t.pl_step.(b.G.b_a.(k)) > pl.pl_finish || any (k + 1)) in
           any 0
         in
         let is_write = match op.Dfg.kind with Opkind.Write _ -> true | _ -> false in
         if crosses || guards_later || is_write then id :: acc else acc)
       [])
