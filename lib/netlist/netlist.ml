(** Explicit datapath-netlist value with an incremental timing engine
    (Section IV.B's "logic-synthesis-grade" query model).

    This layer owns everything structural about the datapath being grown by
    simultaneous scheduling-and-binding: the resource instances, the port
    sharing/mux structure, the busy/occupancy tables, the placements, and
    one arrival time per bound op, including every sharing-mux delay (what
    the paper's netlist queries return).

    The one exception is the timing-awareness ablation: a pass of a
    timing-unaware binder runs with the sharing muxes {e unpriced}
    ({!reset_pass} [~price_muxes:false]), so arrivals and endpoint slacks
    carry pure operator delays — what a mux-blind scheduler would believe.
    {!price_muxes} re-times the finished pass with the muxes priced before
    anything else reads it.

    Mutations happen through a transactional what-if API:
    {!begin_trial} opens a trial, every mutation ({!place}, {!attach},
    {!set_rtype}, {!occupy}) is journaled in a structural undo log, and
    arrival writes land in generation-stamped trial slots of each arrival
    cell.  {!commit} folds the trial arrivals into the committed ones in
    O(touched ops); {!rollback} replays the undo log and simply abandons
    the trial generation — stale trial stamps can never be read again
    because the next trial bumps the generation.

    {b Representation.}  Every hot table is a dense array indexed by op id
    (op ids are [0 .. Dfg.size - 1]): placements, the arrival cells, the
    per-guard-predicate reverse index, and the propagation worklist's
    membership stamps.  Each entry carries a pass stamp, so {!reset_pass}
    is O(1) on the per-op state — it bumps the stamp and every stale entry
    reads as absent.  The guard index uses swap-remove with stored
    positions, so unplacing an op is O(1) instead of O(bucket
    population).  {!propagate} runs a worklist
    deduplicated by op id — an op already pending is not enqueued again —
    and stops at cells whose arrival did not move, so the visit count
    stays bounded by the changed region, not the full fanout cone.
    The busy table is an int-keyed open-addressing table stamped the
    same way (see {!type-busy}), and no comparison on these paths goes
    through the polymorphic compare or hash ([scripts/hot_path_symbols.sh]
    checks the object code).

    The graph itself is read straight from {!Dfg} and {!Region}, whose op,
    edge and membership lookups are array reads too.  The few per-op facts
    that cost more than a read — the resource type ({!resource_of}),
    latency, off-instance delay, guard predicates and distance-0 consumers
    — are computed once per op and kept in id-indexed arrays.  Instances
    are also listed per resource class ({!class_insts}), so finding the
    candidates for an op does not scan every instance.

    Policy (modulo constraints, dedication, forbidden pairs, restraint
    failures) lives above this layer in [Hls_core.Binding]; everything
    here is mechanism.  A from-scratch {!reference_arrivals} evaluator
    recomputes every arrival ignoring all incremental state and serves as
    the test oracle for the transaction machinery. *)

open Hls_ir
open Hls_techlib

(* [Stdlib.max] specialised to floats (same semantics, NaN included),
   without the polymorphic comparison call *)
let fmax (a : float) b = if a >= b then a else b

(* and [Stdlib.min]: [fmin x nan] is nan, [fmin nan x] is x *)
let fmin (a : float) b = if a <= b then a else b

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
  mutable mux_delays : float array option;
      (** memoized per-port mux delay, derived from [mux_cache] *)
  mutable n_bound : int;  (** [List.length bound] *)
  mutable delay_memo : float;  (** {!inst_delay}; nan until computed for this [rtype] *)
  compat : Bytes.t;
      (** need id -> compatibility tier under this [rtype] (see
          {!compat_tier}); ['\255'] until computed *)
}

type placement = { pl_step : int; pl_finish : int; pl_inst : int option }

(** One arrival value with a generation-stamped trial slot and a pass
    stamp.  Read rule: a cell whose pass stamp is stale is absent; during
    a trial, a cell stamped with the current generation shows its trial
    value; otherwise the committed value (if any) shows through. *)
type cell = {
  mutable a_committed : float;
  mutable a_live : bool;  (** committed value present *)
  mutable a_trial : float;
  mutable a_gen : int;  (** trial generation that wrote [a_trial] *)
  mutable a_pass : int;  (** pass stamp: stale means the cell is absent *)
}

(** Structural undo log entry: each records the absolute prior value, so
    replaying the log newest-first leaves the oldest (pre-trial) value in
    place for every mutated location. *)
type undo =
  | U_place of int  (** placement was absent before the trial *)
  | U_replace of int * placement
  | U_bound of inst * int list * int
  | U_rtype of inst * Resource.t
  | U_mux of inst * int list array option * int array * float array option
  | U_busy of int list ref * int list

type stats = {
  s_queries : int;  (** netlist timing queries (arrival recomputations) *)
  s_trials : int;
  s_commits : int;
  s_rollbacks : int;
  s_visits : int;
      (** cells examined by {!propagate} — bounded propagation stops at
          unchanged arrivals, so this stays well below the fanout cone *)
  s_cycle_visits : int;
      (** instances visited by the structural-cycle detector's searches *)
}

(** Growable per-guard-pred bucket of op ids, swap-removed in O(1) via
    the positions stored in the owner's [gpos] array.  [b_gen] is the
    pass stamp: a stale bucket reads as empty. *)
type bucket = { mutable b_a : int array; mutable b_len : int; mutable b_gen : int }

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
}

(* filler for ops of no class: an empty order *)
let no_class = { ic_class = Opkind.R_wire; ic_rev = []; ic_memo = Some []; ic_order = [||]; ic_len = 0 }

(** The outcome of a saturation screen ({!screen}). *)
type screen = Screen_pass | Screen_memo | Screen_computed

(** The busy table: (instance, slot) -> the ops occupying it.  Open
    addressing with linear probing over parallel arrays, hashed by a
    multiplicative (Fibonacci) hash of both key halves.  A cell is live
    only while its stamp equals the netlist's pass stamp, so
    {!reset_pass} empties the table in O(1) and keeps its capacity; a
    stale cell reads as free.  Within a pass cells are only claimed,
    never freed (a rollback restores a cell's list, not its key), so a
    probe stops at the first free cell.  The capacity is a power of two
    at least twice the live cells: it follows the slots actually
    occupied, not the latency bound.  The lists sit in refs so that undo
    entries stay valid across a rehash. *)
type busy = {
  mutable bz_stamp : int array;
  mutable bz_inst : int array;
  mutable bz_slot : int array;
  mutable bz_ops : int list ref array;
  mutable bz_bits : int;  (** log2 of the capacity *)
  mutable bz_live : int;  (** live cells, counted for pass [bz_pass] *)
  mutable bz_pass : int;
}

type t = {
  region : Region.t;
  lib : Library.t;
  clock_ps : float;
  dfg : Dfg.t;
  mutable insts_rev : inst list;  (** newest first; see {!insts} *)
  mutable insts_memo : inst list option;  (** registration order *)
  mutable inst_arr : inst array;  (** id -> instance (slots from [next_inst_id] on are filler) *)
  mutable cls_of : iclass array;  (** instance id -> its class *)
  mutable ord_pos : int array;  (** instance id -> its slot in its class's [ic_order] *)
  mutable next_inst_id : int;
  mutable cap : int;  (** dense-array capacity: > every op id seen *)
  mutable pass_stamp : int;
      (** bumped by {!reset_pass}: per-op entries are live only when their
          stamp matches, making the reset O(1) on the dense state *)
  (* placements: op id -> (step, finish, inst or -1), live iff stamped *)
  mutable pl_gen : int array;
  mutable pl_step : int array;
  mutable pl_finish : int array;
  mutable pl_inst : int array;
  mutable cells : cell array;  (** op -> its arrival *)
  mutable mux_priced : bool;
      (** sharing muxes count in arrivals and endpoint slack; off only
          while a timing-unaware pass binds (see {!reset_pass}) *)
  mutable gslots : bucket array;
      (** guard predecessor (op id) -> placed ops whose guard reads it *)
  mutable gpreds_c : int array option array;  (** op -> guard preds (static) *)
  mutable gpos : int array option array;
      (** op -> positions in each pred's bucket, parallel to [gpreds_c] *)
  busy : busy;  (** (instance, slot) -> ops occupying it, this pass *)
  chain : Hls_timing.Cycle_detector.t;
  mutable generation : int;
  mutable trial_on : bool;
  mutable touched : int list;  (** ops whose arrivals this trial wrote *)
  mutable undo_log : undo list;
  mutable n_queries : int;
  mutable n_trials : int;
  mutable n_commits : int;
  mutable n_rollbacks : int;
  mutable n_visits : int;
  (* per-op facts computed once (the graph is read-only after
     elaboration) *)
  mutable rt_c : Resource.t option array;  (** {!Resource.of_op}, eager *)
  mutable classes : iclass list;  (** per resource class, few *)
  mutable out0_c : int array option array;  (** distance-0 consumer ids *)
  mutable lat_c : int array;  (** op latency, -1 = not computed *)
  mutable opdelay_c : float array;  (** exec delay off-instance, nan = unknown *)
  need_c : int array;
      (** op -> id of its resource need, -1 for none; sized by the graph
          the netlist was created on *)
  needs : Resource.t array;  (** need id -> resource need *)
  need_cls : iclass array;  (** need id -> its class, [no_class] until looked up *)
  member_needs : Resource.t list;  (** static: resource needs of the members *)
  class_ops_memo : (Resource.t, int) Hashtbl.t;
      (** rtype -> members mergeable into it (static per region) *)
  mutable prealloc_stale : bool;
      (** an instance was added or changed type since the [prealloc_shared]
          flags were last computed *)
  (* propagation worklist: ring buffer + membership stamps for dedup *)
  mutable wl : int array;
  mutable wl_head : int;
  mutable wl_tail : int;
  mutable in_wl : int array;
  mutable prop_gen : int;
  (* visit stamps of the saturation-screen and chain-source walks, one
     generation per walk *)
  mutable scr_seen : int array;
  mutable scr_gen : int;
  mutable scr_grown : float array;  (** port -> its grown mux delay, for one screen *)
  (* the bind one screen prices, read by its closure-free helpers: the
     new op, its finishing step, the instance and the changed ports *)
  mutable scr_op : int;
  mutable scr_finish : int;
  mutable scr_inst : int;
  mutable scr_ports : int;
  mutable scr_proved : bool;  (** a priced value proves the rejection *)
  scr_f : float array;
      (** the screen's float scratch, unboxed: see the [sf_] slots *)
  (* the saturation memo (see {!screen}): per (instance, changed-port
     set), the least slack the last computed screen priced, valid while
     the instance's epoch is the one it was stored under *)
  mutable sat_epoch : int array;  (** instance -> epoch of its last invalidation *)
  mutable sat_tick : int;  (** the last epoch handed out *)
  mutable sat_at : int array;  (** [inst * sat_slots + ports] -> epoch stored under, -1 none *)
  mutable sat_val : float array;  (** ... -> the least priced slack *)
  mutable forced : bool;  (** a trial-less bind ({!mark_forced}) since {!reset_pass} *)
  mutable inst_floor : float array;
      (** instance -> its slack floor: the least committed endpoint slack
          this pass over its bound ops and their same-step consumer cones,
          capped at [floor_cap] (see {!screen_may_prove}) *)
  floor_cap : float;
  mutable floors_kept : bool;
      (** the instance floors are kept for this pass: built by the first
          read ({!inst_floor}), dropped by {!reset_pass} *)
  mutable op_slack : float array;  (** op -> its endpoint slack at its last recomputation *)
}

(* field accessors for the abstract [t] (the record itself stays private
   so the dense tables can evolve without touching callers) *)
let region t = t.region
let lib t = t.lib
let clock_ps t = t.clock_ps
let dfg t = t.dfg

let fresh_cell () =
  { a_committed = 0.0; a_live = false; a_trial = 0.0; a_gen = min_int; a_pass = 0 }

let fresh_bucket () = { b_a = [||]; b_len = 0; b_gen = 0 }

(* shared filler for free busy cells: never handed out, never written *)
let no_ops = ref []

let busy_make bits =
  let n = 1 lsl bits in
  { bz_stamp = Array.make n 0; bz_inst = Array.make n 0; bz_slot = Array.make n 0;
    bz_ops = Array.make n no_ops; bz_bits = bits; bz_live = 0; bz_pass = 0 }

(* Margin of the slack-floor test over the -1 fs tolerance: it covers,
   with room to spare, the sub-femtosecond residue by which a committed
   arrival can lag its exact value (the propagation pushes a consumer
   only when its producer moves by more than 1 fs) *)
let screen_floor_margin = 1.0

(* The cap of the instance floors, above which a slack is not noted.  A
   grown port adds one mux input, so its delay grows by at most [d_mux2]
   (the second input) or [d_mux_per_extra_input] (any later one), and
   the floor test subtracts that growth, twice on a black-box instance
   ({!screen_may_prove}).  With [k] = 2 when some member needs a black
   box and 1 otherwise, a floor at the cap clears the test whatever the
   growth, as the uncapped floor above it would.  (A cap only ever
   lowers a floor, so it costs no soundness on any instance.) *)
let floor_cap (lib : Library.t) member_needs =
  let k =
    if List.exists (fun (rt : Resource.t) -> match rt.Resource.rclass with Opkind.R_blackbox _ -> true | _ -> false) member_needs
    then 2.0
    else 1.0
  in
  -0.001 +. screen_floor_margin +. (k *. fmax lib.Library.d_mux2 lib.Library.d_mux_per_extra_input) +. 1.0

let create ~lib ~clock_ps (region : Region.t) =
  let dfg = region.Region.dfg in
  let cap = Int.max (Dfg.size dfg) 16 in
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
  {
    region;
    lib;
    clock_ps;
    dfg;
    insts_rev = [];
    insts_memo = Some [];
    inst_arr = [||];
    cls_of = [||];
    ord_pos = [||];
    next_inst_id = 0;
    cap;
    pass_stamp = 1;
    pl_gen = Array.make cap 0;
    pl_step = Array.make cap 0;
    pl_finish = Array.make cap 0;
    pl_inst = Array.make cap (-1);
    cells = Array.init cap (fun _ -> fresh_cell ());
    mux_priced = true;
    gslots = Array.init cap (fun _ -> fresh_bucket ());
    gpreds_c = Array.make cap None;
    gpos = Array.make cap None;
    busy = busy_make 6;
    chain = Hls_timing.Cycle_detector.create ();
    generation = 0;
    trial_on = false;
    touched = [];
    undo_log = [];
    n_queries = 0;
    n_trials = 0;
    n_commits = 0;
    n_rollbacks = 0;
    n_visits = 0;
    rt_c;
    classes = [];
    out0_c = Array.make cap None;
    lat_c = Array.make cap (-1);
    opdelay_c = Array.make cap nan;
    need_c;
    needs = Array.of_list (List.rev !needs);
    need_cls = Array.make (List.length !needs) no_class;
    member_needs;
    class_ops_memo = Hashtbl.create 8;
    prealloc_stale = true;
    wl = Array.make 256 0;
    wl_head = 0;
    wl_tail = 0;
    in_wl = Array.make cap 0;
    prop_gen = 0;
    scr_seen = Array.make cap 0;
    scr_gen = 0;
    scr_grown = Array.make 64 0.0;
    scr_op = -1;
    scr_finish = 0;
    scr_inst = 0;
    scr_ports = 0;
    scr_proved = false;
    scr_f = Array.make 5 0.0;
    sat_epoch = [||];
    sat_tick = 0;
    sat_at = [||];
    sat_val = [||];
    forced = false;
    inst_floor = [||];
    floor_cap = floor_cap lib member_needs;
    floors_kept = false;
    op_slack = Array.make cap infinity;
  }

let grow_arr a cap d =
  let b = Array.make cap d in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_with a cap f =
  Array.init cap (fun i -> if i < Array.length a then a.(i) else f ())

(* op ids are fixed before the netlist is created; this is a safety net
   for callers querying ids outside the original graph *)
let ensure_cap t id =
  if id >= t.cap then begin
    let cap = Int.max (id + 1) (2 * t.cap) in
    t.pl_gen <- grow_arr t.pl_gen cap 0;
    t.pl_step <- grow_arr t.pl_step cap 0;
    t.pl_finish <- grow_arr t.pl_finish cap 0;
    t.pl_inst <- grow_arr t.pl_inst cap (-1);
    t.cells <- grow_with t.cells cap fresh_cell;
    t.gslots <- grow_with t.gslots cap fresh_bucket;
    t.gpreds_c <- grow_arr t.gpreds_c cap None;
    t.gpos <- grow_arr t.gpos cap None;
    t.rt_c <-
      Array.init cap (fun i ->
          if i < t.cap then t.rt_c.(i)
          else Option.bind (Dfg.find_opt t.dfg i) (Resource.of_op t.dfg));
    t.out0_c <- grow_arr t.out0_c cap None;
    t.lat_c <- grow_arr t.lat_c cap (-1);
    t.opdelay_c <- grow_arr t.opdelay_c cap nan;
    t.in_wl <- grow_arr t.in_wl cap 0;
    t.scr_seen <- grow_arr t.scr_seen cap 0;
    t.op_slack <- grow_arr t.op_slack cap infinity;
    t.cap <- cap
  end

(* --- per-op facts, computed once --- *)

let out0_of t id =
  match t.out0_c.(id) with
  | Some a -> a
  | None ->
      let a =
        Dfg.out_edges t.dfg id
        |> List.filter_map (fun e -> if e.Dfg.distance = 0 then Some e.Dfg.dst else None)
        |> Array.of_list
      in
      t.out0_c.(id) <- Some a;
      a

let gpreds_of t id =
  match t.gpreds_c.(id) with
  | Some a -> a
  | None ->
      let a = Array.of_list (Guard.preds (Dfg.find t.dfg id).Dfg.guard) in
      t.gpreds_c.(id) <- Some a;
      a

(** {!Resource.of_op}, computed once per op. *)
let resource_of t (op : Dfg.op) =
  if op.Dfg.id < t.cap then t.rt_c.(op.Dfg.id) else Resource.of_op t.dfg op

let op_latency t (op : Dfg.op) =
  let id = op.Dfg.id in
  if id < t.cap then begin
    if t.lat_c.(id) < 0 then t.lat_c.(id) <- Library.op_latency t.lib op.Dfg.kind;
    t.lat_c.(id)
  end
  else Library.op_latency t.lib op.Dfg.kind

let lat_of t id = op_latency t (Dfg.find t.dfg id)

let is_multicycle t op = op_latency t op > 1

(* --- instances --- *)

let stats t =
  { s_queries = t.n_queries; s_trials = t.n_trials; s_commits = t.n_commits;
    s_rollbacks = t.n_rollbacks; s_visits = t.n_visits;
    s_cycle_visits = Hls_timing.Cycle_detector.visits t.chain }

let iclass t rclass =
  match List.find_opt (fun c -> Opkind.equal_rclass c.ic_class rclass) t.classes with
  | Some c -> c
  | None ->
      let c = { ic_class = rclass; ic_rev = []; ic_memo = Some []; ic_order = [||]; ic_len = 0 } in
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

(* a fresh epoch for [i]: every memoized screen of the instance is stale *)
let sat_invalidate t (i : inst) =
  t.sat_tick <- t.sat_tick + 1;
  t.sat_epoch.(i.inst_id) <- t.sat_tick

(* memo slots per instance: one per set of changed ports among the first
   three (more ports are screened without the memo) *)
let sat_slots = 8

let add_inst ?(added_by_expert = false) t rtype =
  let inst =
    { inst_id = t.next_inst_id; rtype; bound = []; prealloc_shared = false; added_by_expert;
      mux_cache = None; mux_n = [||]; mux_delays = None; n_bound = 0; delay_memo = nan;
      compat = Bytes.make (Array.length t.needs) '\255' }
  in
  t.next_inst_id <- t.next_inst_id + 1;
  t.insts_rev <- inst :: t.insts_rev;
  t.insts_memo <- None;
  t.prealloc_stale <- true;
  let c = iclass t rtype.Resource.rclass in
  if inst.inst_id = Array.length t.inst_arr then begin
    let n = Int.max 16 (2 * inst.inst_id) in
    t.inst_arr <- grow_arr t.inst_arr n inst;
    t.cls_of <- grow_arr t.cls_of n c;
    t.ord_pos <- grow_arr t.ord_pos n 0;
    t.sat_epoch <- grow_arr t.sat_epoch n 0;
    t.sat_at <- grow_arr t.sat_at (n * sat_slots) (-1);
    t.sat_val <- grow_arr t.sat_val (n * sat_slots) infinity;
    t.inst_floor <- grow_arr t.inst_floor n t.floor_cap
  end;
  t.inst_arr.(inst.inst_id) <- inst;
  sat_invalidate t inst;
  c.ic_rev <- inst :: c.ic_rev;
  c.ic_memo <- None;
  if c.ic_len = Array.length c.ic_order then c.ic_order <- grow_arr c.ic_order (Int.max 4 (2 * c.ic_len)) inst;
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
  let id = op.Dfg.id in
  let k = if id < Array.length t.need_c then t.need_c.(id) else -1 in
  if k >= 0 then begin
    let c = t.need_cls.(k) in
    if c != no_class then c
    else begin
      let c = iclass t t.needs.(k).Resource.rclass in
      t.need_cls.(k) <- c;
      c
    end
  end
  else match resource_of t op with None -> no_class | Some rt -> iclass t rt.Resource.rclass

(** The instances of [op]'s resource class, in registration order; empty
    for wire-class ops. *)
let class_insts t (op : Dfg.op) = class_list (class_of_op t op)

let find_inst t id =
  if id >= 0 && id < t.next_inst_id then t.inst_arr.(id) else raise Not_found

(** [Library.delay] of the instance's current type, memoized on the
    instance until its type changes. *)
let inst_delay t i =
  let d = i.delay_memo in
  if Float.is_nan d then begin
    let d = Library.delay t.lib i.rtype in
    i.delay_memo <- d;
    d
  end
  else d

(** How an instance of [op]'s class can host [op]: 0 when its type already
    fits the op's need, 1 when it can be widened to, 2 when neither.  One
    byte per (need, instance), recomputed only after the instance's type
    changed. *)
let tier_of need have =
  if Resource.fits ~need ~have then 0 else if Resource.can_merge need have then 1 else 2

let compat_tier t (op : Dfg.op) i =
  let id = op.Dfg.id in
  let k = if id < Array.length t.need_c then t.need_c.(id) else -1 in
  if k < 0 then match resource_of t op with Some need -> tier_of need i.rtype | None -> 2
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

(* the type-derived memos of an instance are stale once its type moves *)
let set_type i rt =
  i.rtype <- rt;
  i.delay_memo <- nan;
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
          (* its mux delays moved: its memoized screens are stale *)
          sat_invalidate t inst;
          true
        end)
      false all
  end

(** Reset all pass-local state (placements, busy tables, arrivals, chain
    graph, any dangling trial) while keeping the resource set — the state
    carried between scheduling passes — and set whether the pass prices
    its sharing muxes.  O(1) on the dense per-op tables: bumping
    [pass_stamp] makes every stale entry read as absent. *)
let reset_pass ~price_muxes t =
  t.pass_stamp <- t.pass_stamp + 1;
  t.mux_priced <- price_muxes;
  List.iter
    (fun i ->
      i.bound <- [];
      i.n_bound <- 0;
      i.mux_cache <- None;
      i.mux_delays <- None;
      sat_invalidate t i)
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
  t.trial_on <- false;
  t.touched <- [];
  t.undo_log <- [];
  t.forced <- false;
  Array.fill t.inst_floor 0 (Array.length t.inst_floor) t.floor_cap;
  t.floors_kept <- false;
  ignore (refresh_prealloc t)

(* --- placements --- *)

let placed t op_id = op_id < t.cap && t.pl_gen.(op_id) = t.pass_stamp

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
  for id = 0 to t.cap - 1 do
    if t.pl_gen.(id) = t.pass_stamp then
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

let n_placed t =
  let n = ref 0 in
  for id = 0 to t.cap - 1 do
    if t.pl_gen.(id) = t.pass_stamp then incr n
  done;
  !n

let slot t step = if Region.is_pipelined t.region then step mod Region.ii t.region else step

(* Fibonacci hash of (inst, slot) onto [bits] bits: the multiply mixes
   both halves into the top bits, so one step's entries for different
   instances spread over the table *)
let busy_hash (inst : int) (sl : int) bits =
  (((inst lsl 31) lxor sl) * 0x1E3779B97F4A7C15) lsr (Sys.int_size - bits)

(* the live cell of (inst, slot) when >= 0, else [-1 - free cell] *)
let busy_find t inst sl =
  let b = t.busy in
  let pass = t.pass_stamp in
  let mask = Array.length b.bz_stamp - 1 in
  let rec probe k =
    if b.bz_stamp.(k) <> pass then -1 - k
    else if b.bz_inst.(k) = inst && b.bz_slot.(k) = sl then k
    else probe ((k + 1) land mask)
  in
  probe (busy_hash inst sl b.bz_bits)

(* double the capacity, carrying over this pass's live cells *)
let busy_grow t =
  let b = t.busy in
  let old_stamp = b.bz_stamp and old_inst = b.bz_inst and old_slot = b.bz_slot in
  let old_ops = b.bz_ops in
  let g = busy_make (b.bz_bits + 1) in
  b.bz_stamp <- g.bz_stamp;
  b.bz_inst <- g.bz_inst;
  b.bz_slot <- g.bz_slot;
  b.bz_ops <- g.bz_ops;
  b.bz_bits <- g.bz_bits;
  Array.iteri
    (fun k st ->
      if st = t.pass_stamp then begin
        let j = -1 - busy_find t old_inst.(k) old_slot.(k) in
        b.bz_stamp.(j) <- st;
        b.bz_inst.(j) <- old_inst.(k);
        b.bz_slot.(j) <- old_slot.(k);
        b.bz_ops.(j) <- old_ops.(k)
      end)
    old_stamp

let rec busy_ref t inst step =
  let sl = slot t step in
  let k = busy_find t inst sl in
  if k >= 0 then t.busy.bz_ops.(k)
  else begin
    let b = t.busy in
    if b.bz_pass <> t.pass_stamp then begin
      b.bz_pass <- t.pass_stamp;
      b.bz_live <- 0
    end;
    if 2 * (b.bz_live + 1) > Array.length b.bz_stamp then begin
      busy_grow t;
      busy_ref t inst step
    end
    else begin
      let j = -1 - k in
      let r = ref [] in
      b.bz_stamp.(j) <- t.pass_stamp;
      b.bz_inst.(j) <- inst;
      b.bz_slot.(j) <- sl;
      b.bz_ops.(j) <- r;
      b.bz_live <- b.bz_live + 1;
      r
    end
  end

(* a read: a missing slot is empty, and stays absent from the table *)
let busy_ops t inst step =
  let k = busy_find t inst (slot t step) in
  if k >= 0 then !(t.busy.bz_ops.(k)) else []

let dump_busy t =
  let b = t.busy in
  let acc = ref [] in
  Array.iteri
    (fun k st ->
      if st = t.pass_stamp && !(b.bz_ops.(k)) <> [] then
        acc := ((b.bz_inst.(k), b.bz_slot.(k)), List.sort Int.compare !(b.bz_ops.(k))) :: !acc)
    b.bz_stamp;
  List.sort
    (fun (((i : int), (s : int)), _) ((i', s'), _) ->
      match Int.compare i i' with 0 -> Int.compare s s' | c -> c)
    !acc

(* --- guard index: guard predecessor -> placed ops whose guard reads it.
   Membership depends only on the op being placed (the guard structure is
   static), so a re-placement needs no update.  Removal is O(#preds) via
   the positions stored in [gpos]. --- *)

let bucket_push b x =
  if b.b_len = Array.length b.b_a then begin
    let a = Array.make (Int.max 4 (2 * Array.length b.b_a)) 0 in
    Array.blit b.b_a 0 a 0 b.b_len;
    b.b_a <- a
  end;
  b.b_a.(b.b_len) <- x;
  b.b_len <- b.b_len + 1

let guard_bucket t pred =
  ensure_cap t pred;
  let b = t.gslots.(pred) in
  if b.b_gen <> t.pass_stamp then begin
    b.b_gen <- t.pass_stamp;
    b.b_len <- 0
  end;
  b

let guard_index_add t op_id =
  let gp = gpreds_of t op_id in
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
        pos.(k) <- b.b_len - 1)
      gp
  end

let guard_index_remove t op_id =
  let gp = gpreds_of t op_id in
  if Array.length gp > 0 then
    match t.gpos.(op_id) with
    | None -> ()
    | Some pos ->
        Array.iteri
          (fun k p ->
            let b = guard_bucket t p in
            let i = pos.(k) in
            let last = b.b_len - 1 in
            if i <> last then begin
              let moved = b.b_a.(last) in
              b.b_a.(i) <- moved;
              (* fix the moved op's stored position for this predecessor *)
              match (t.gpos.(moved), t.gpreds_c.(moved)) with
              | Some mpos, Some mgp ->
                  let n = Array.length mgp in
                  let rec fix k' =
                    if k' < n then
                      if mgp.(k') = p && mpos.(k') = last then mpos.(k') <- i else fix (k' + 1)
                  in
                  fix 0
              | _ -> ()
            end;
            b.b_len <- last)
          gp

(* --- transactions --- *)

let in_trial t = t.trial_on

let begin_trial t =
  if t.trial_on then invalid_arg "Netlist.begin_trial: trial already active";
  t.generation <- t.generation + 1;
  t.trial_on <- true;
  t.touched <- [];
  t.undo_log <- [];
  t.n_trials <- t.n_trials + 1

let cell_of t id =
  ensure_cap t id;
  let c = t.cells.(id) in
  if c.a_pass <> t.pass_stamp then begin
    c.a_pass <- t.pass_stamp;
    c.a_live <- false;
    c.a_gen <- min_int
  end;
  c

(** {2 Instance slack floors}

    Instance [i]'s floor is the least committed endpoint slack, this
    pass, over the ops a saturation screen on [i] can price: [i]'s bound
    ops and, below each, the ops that read it at distance 0 in the step
    it finishes, recursively, through latency-1 region members (the
    screen's downstream walk follows exactly those edges).  Every slack
    is noted as it becomes committed — at {!commit} for the ops the trial
    re-timed, at once for a recomputation outside a trial — against the
    instance of the op and of every op upstream of it on such a chain.
    An op is placed after its producers, so a chain that reaches it
    already exists when its slack is first noted, and a later trial that
    re-times it notes it again.  A pass that never screens (no instance
    is shared) need not pay for the notes, so the floors are built by
    their first read, from every placed op's committed slack — within a
    pass a committed slack only falls, so that is the least it has
    been — and noted from then on. *)

(* lower by [s] the floor of [id]'s instance and of every instance whose
   same-step chain reaches [id]; [gen] marks the ops already visited *)
let rec floor_note_up t id (s : float) gen =
  let j = t.pl_inst.(id) in
  if j >= 0 && s < t.inst_floor.(j) then t.inst_floor.(j) <- s;
  floor_note_ins t t.pl_step.(id) s gen (Dfg.in_edges t.dfg id)

and floor_note_ins t st s gen = function
  | [] -> ()
  | (e : Dfg.edge) :: rest ->
      let p = e.Dfg.src in
      if
        e.Dfg.distance = 0 && p < t.cap
        && t.pl_finish.(p) = st
        && placed t p
        && t.scr_seen.(p) <> gen
        && Region.mem t.region p
        && lat_of t p <= 1
      then begin
        t.scr_seen.(p) <- gen;
        floor_note_up t p s gen
      end;
      floor_note_ins t st s gen rest

let floor_note t id s =
  if t.floors_kept && s < t.floor_cap then begin
    t.scr_gen <- t.scr_gen + 1;
    floor_note_up t id s t.scr_gen
  end

let commit t =
  if not t.trial_on then invalid_arg "Netlist.commit: no active trial";
  List.iter
    (fun op ->
      let c = t.cells.(op) in
      if c.a_pass = t.pass_stamp && c.a_gen = t.generation then begin
        c.a_committed <- c.a_trial;
        c.a_live <- true;
        floor_note t op t.op_slack.(op)
      end)
    t.touched;
  t.trial_on <- false;
  t.touched <- [];
  t.undo_log <- [];
  t.n_commits <- t.n_commits + 1

let unplace t op_id =
  guard_index_remove t op_id;
  t.pl_gen.(op_id) <- 0

let rollback t =
  if not t.trial_on then invalid_arg "Netlist.rollback: no active trial";
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
          t.pl_gen.(op) <- t.pass_stamp
      | U_bound (i, b, n) ->
          i.bound <- b;
          i.n_bound <- n;
          sat_invalidate t i;
          reorder t i
      | U_rtype (i, rt) ->
          set_type i rt;
          sat_invalidate t i
      | U_mux (i, mc, mn, md) ->
          i.mux_cache <- mc;
          i.mux_n <- mn;
          i.mux_delays <- md
      | U_busy (r, l) -> r := l)
    t.undo_log;
  t.trial_on <- false;
  t.touched <- [];
  t.undo_log <- [];
  t.n_rollbacks <- t.n_rollbacks + 1

(** {2 Structural mutators} — journaled while a trial is active *)

let place t op_id ~step ~finish ~inst_opt =
  ensure_cap t op_id;
  let fresh = not (placed t op_id) in
  if t.trial_on then
    (match placement t op_id with
    | Some pl -> t.undo_log <- U_replace (op_id, pl) :: t.undo_log
    | None -> t.undo_log <- U_place op_id :: t.undo_log);
  if fresh then guard_index_add t op_id;
  t.pl_step.(op_id) <- step;
  t.pl_finish.(op_id) <- finish;
  t.pl_inst.(op_id) <- (match inst_opt with Some i -> i | None -> -1);
  t.pl_gen.(op_id) <- t.pass_stamp

(* a source count as mux inputs: a pre-allocated mux has at least two *)
let effective_inputs inst n = if inst.prealloc_shared then Int.max n 2 else n

let invalidate_mux t i =
  if t.trial_on then t.undo_log <- U_mux (i, i.mux_cache, i.mux_n, i.mux_delays) :: t.undo_log;
  i.mux_cache <- None;
  i.mux_delays <- None

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
    if t.trial_on then t.undo_log <- U_bound (i, i.bound, i.n_bound) :: t.undo_log;
    i.bound <- op_id :: i.bound;
    i.n_bound <- i.n_bound + 1;
    sat_invalidate t i;
    reorder t i;
    match i.mux_cache with
    | None -> invalidate_mux t i
    | Some c ->
        if t.trial_on then t.undo_log <- U_mux (i, i.mux_cache, i.mux_n, i.mux_delays) :: t.undo_log;
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
        (match i.mux_delays with
        | None -> ()
        | Some d ->
            let d' = Array.copy d in
            for p = 0 to Int.min (Array.length d') (Array.length n') - 1 do
              if n'.(p) <> i.mux_n.(p) then
                d'.(p) <- Library.mux_delay t.lib ~inputs:(effective_inputs i n'.(p))
            done;
            i.mux_delays <- Some d');
        i.mux_n <- n'
  end

let set_rtype t i rt =
  if not (Resource.equal rt i.rtype) then begin
    if t.trial_on then t.undo_log <- U_rtype (i, i.rtype) :: t.undo_log;
    set_type i rt;
    sat_invalidate t i;
    t.prealloc_stale <- true;
    invalidate_mux t i
  end

let occupy t ~inst_id ~step ~finish op_id =
  for s = step to finish do
    let r = busy_ref t inst_id s in
    if t.trial_on then t.undo_log <- U_busy (r, !r) :: t.undo_log;
    r := op_id :: !r
  done

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
        inst.mux_delays <- None;
        c
  in
  if port < Array.length srcs then srcs.(port) else []

(* The number of distinct sources feeding [port], kept beside the cache *)
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

let in_mux_delay t inst ~port =
  match inst.mux_delays with
  | Some d when port < Array.length d -> d.(port)
  | _ ->
      ignore (port_srcs t inst ~port);
      (* the call above guarantees mux_cache covers [port] *)
      let c = match inst.mux_cache with Some c -> c | None -> [||] in
      let d =
        Array.init (Array.length c) (fun p ->
            Library.mux_delay t.lib ~inputs:(mux_inputs t inst ~port:p))
      in
      inst.mux_delays <- Some d;
      if port < Array.length d then d.(port)
      else Library.mux_delay t.lib ~inputs:(mux_inputs t inst ~port)

(** The register-input sharing mux every registered result passes (the
    second mux of the paper's Fig. 8 arithmetic).  With II = 1 every value
    is live on every cycle, so registers cannot be shared and the mux
    disappears — which is what lets the paper's Example 3 close timing. *)
let reg_mux_delay t =
  if Region.is_pipelined t.region && Region.ii t.region = 1 then 0.0
  else Library.mux_delay t.lib ~inputs:2

(** {2 Arrival state} *)

(** Raw visible arrival: the trial value when the active trial has written
    it, the committed value otherwise; [neg_infinity] when absent (so the
    hot path needs no option allocation). *)
let arrival_raw t id =
  if id >= t.cap then neg_infinity
  else
    let c = t.cells.(id) in
    if c.a_pass <> t.pass_stamp then neg_infinity
    else if t.trial_on && c.a_gen = t.generation then c.a_trial
    else if c.a_live then c.a_committed
    else neg_infinity

let arrival t op_id =
  let v = arrival_raw t op_id in
  if v = neg_infinity then None else Some v

let committed_arrivals t =
  let acc = ref [] in
  for id = t.cap - 1 downto 0 do
    let c = t.cells.(id) in
    if c.a_pass = t.pass_stamp && c.a_live then acc := (id, c.a_committed) :: !acc
  done;
  !acc

let set_arrival t op_id v =
  let c = cell_of t op_id in
  if t.trial_on then begin
    if c.a_gen <> t.generation then t.touched <- op_id :: t.touched;
    c.a_gen <- t.generation;
    c.a_trial <- v
  end
  else begin
    c.a_committed <- v;
    c.a_live <- true
  end

(** {2 Arrival computation}

    The formula is written once, parameterized over the producer-arrival
    [lookup] (returning [neg_infinity] for "absent"), so the incremental
    engine and the from-scratch reference evaluator cannot drift apart. *)

(** Arrival of the value carried by edge [e] at the inputs of an op placed
    at [step], before any input mux. *)
let source_arrival_with t ~step ~lookup e =
  let ff = t.lib.Library.ff_clk_q in
  let p = e.Dfg.src in
  if e.Dfg.distance > 0 then ff
  else if not (Region.mem t.region p) then ff
  else if not (placed t p) then ff (* should not happen: scheduler orders by readiness *)
  else if lat_of t p > 1 then ff
  else if t.pl_finish.(p) = step then (
    let v = lookup p in
    if v = neg_infinity then ff else v)
  else ff

let source_arrival t ~step e = source_arrival_with t ~step ~lookup:(arrival_raw t) e

let guard_arrival_with t ~step ~lookup (op : Dfg.op) =
  if Guard.is_always op.Dfg.guard then 0.0
  else
    let ff = t.lib.Library.ff_clk_q in
    let gp = gpreds_of t op.Dfg.id in
    let acc = ref 0.0 in
    Array.iter
      (fun p ->
        let a =
          if (not (Region.mem t.region p)) || not (placed t p) then ff
          else if t.pl_finish.(p) = step then (
            let v = lookup p in
            if v = neg_infinity then ff else v)
          else ff
        in
        if a > !acc then acc := a)
      gp;
    !acc

let guard_arrival t ~step op = guard_arrival_with t ~step ~lookup:(arrival_raw t) op

(** Combinational delay of [op] when executed on [inst_opt]. *)
let exec_delay t (op : Dfg.op) inst_opt =
  match inst_opt with
  | Some i -> inst_delay t (find_inst t i)
  | None ->
      let id = op.Dfg.id in
      if id < t.cap then begin
        if Float.is_nan t.opdelay_c.(id) then
          t.opdelay_c.(id) <-
            (match resource_of t op with
            | None -> 0.0
            | Some rt -> Library.delay t.lib rt);
        t.opdelay_c.(id)
      end
      else
        (match resource_of t op with None -> 0.0 | Some rt -> Library.delay t.lib rt)

(* The data arrival's starting value before the inputs are folded in:
   constants settle at 0, port reads and input-less ops at clock-to-q *)
let arrival_base t (op : Dfg.op) (ins : Dfg.edge list) =
  match op.Dfg.kind with
  | Opkind.Const _ -> 0.0
  | Opkind.Read _ -> t.lib.Library.ff_clk_q
  | _ -> if ins = [] then t.lib.Library.ff_clk_q else 0.0

(** One full arrival evaluation of [op] placed at [step] on instance
    [inst] (-1 for none): each input through its sharing mux, unless the
    muxes are unpriced, then the operator delay. *)
let compute_arrival_with t ~lookup (op : Dfg.op) ~step ~inst =
  let ins = Dfg.in_edges t.dfg op.Dfg.id in
  let data =
    List.fold_left
      (fun acc e ->
        let a = source_arrival_with t ~step ~lookup e in
        let a =
          if t.mux_priced && inst >= 0 then a +. in_mux_delay t (find_inst t inst) ~port:e.Dfg.port
          else a
        in
        fmax acc a)
      (arrival_base t op ins) ins
  in
  data +. exec_delay t op (if inst >= 0 then Some inst else None)

(* The endpoint slack of an op with this arrival and guard arrival *)
let slack_of t ~arrival ~guard =
  let arr = if arrival = neg_infinity then 0.0 else arrival in
  let reg_path = if t.mux_priced then reg_mux_delay t else 0.0 in
  t.clock_ps -. (fmax arr guard +. reg_path +. t.lib.Library.ff_setup)

(** Worst-case registered-endpoint slack of a placed op: its result must
    traverse the register-input mux (when the muxes are priced) and meet
    setup, and its commit enable (the guard) must also settle in time. *)
let endpoint_slack t op_id =
  let op = Dfg.find t.dfg op_id in
  let g = if placed t op_id then guard_arrival t ~step:t.pl_finish.(op_id) op else 0.0 in
  slack_of t ~arrival:(arrival_raw t op_id) ~guard:g

(** Recompute the arrival of a placed op through the same formula the
    reference evaluator uses, and its endpoint slack into [op_slack]
    (noted in the instance floors at once outside a trial, at {!commit}
    inside one); returns true if the arrival moved by more than 1 fs.
    The guard does not serialize with the datapath — it drives the commit
    register's enable pin in parallel and is accounted for in
    {!endpoint_slack}. *)
let recompute_arrival t op_id =
  t.n_queries <- t.n_queries + 1;
  let v =
    compute_arrival_with t ~lookup:(arrival_raw t) (Dfg.find t.dfg op_id) ~step:t.pl_step.(op_id)
      ~inst:t.pl_inst.(op_id)
  in
  let old = arrival_raw t op_id in
  set_arrival t op_id v;
  let s = endpoint_slack t op_id in
  t.op_slack.(op_id) <- s;
  if not t.trial_on then floor_note t op_id s;
  old = neg_infinity || abs_float (old -. v) > 0.001

(** {2 Own slack on an empty instance}

    The trial of a bind onto an instance with nothing bound, whose type
    already fits the op, retimes the op alone: it is the only seed, no
    cohabitant shares a mux with it, and the instance keeps its type and
    delay.  Its inputs are committed arrivals the bind cannot move (they
    sit upstream of the op), and each of its input muxes has exactly one
    source, so it is priced at one input, or at two when the instance
    pre-allocates its muxes.  Unless some op already placed in the op's
    finishing step reads its result (as data or as a guard), the op is
    also the only cell the propagation visits.  Then {!compute_arrival_with}
    (same base, same fold order) and {!endpoint_slack} (same float
    association) give, bit for bit, the worst slack the trial returns —
    carried by the op itself.  [nan] when one of these conditions fails:
    the caller runs the trial then. *)

(* Does an op placed in step [finish] read [id]'s result, as data or as
   guard?  Exactly the ops the propagation pushes after retiming [id] *)
let reads_result_in_step t id ~finish =
  Array.exists (fun d -> placed t d && t.pl_step.(d) = finish) (out0_of t id)
  || id < Array.length t.gslots
     &&
     let b = t.gslots.(id) in
     b.b_gen = t.pass_stamp
     &&
     let rec any k =
       k < b.b_len && ((placed t b.b_a.(k) && t.pl_step.(b.b_a.(k)) = finish) || any (k + 1))
     in
     any 0

(* Is the op's own slack on an empty instance the trial's worst slack?
   Not when the op is placed, nor when an op placed in its finishing step
   reads its result *)
let own_slack_defined t (op : Dfg.op) ~finish =
  not (placed t op.Dfg.id || reads_result_in_step t op.Dfg.id ~finish)

(** Store {!source_arrival} of the op's [k]-th in-edge ({!Dfg.in_edges}
    order) in [srcs.(k)]; [srcs] has room for every in-edge. *)
let source_arrivals t (op : Dfg.op) ~step (srcs : float array) =
  let rec fill k = function
    | [] -> ()
    | e :: rest ->
        srcs.(k) <- source_arrival t ~step e;
        fill (k + 1) rest
  in
  fill 0 (Dfg.in_edges t.dfg op.Dfg.id)

(** The op's data arrival behind input muxes of [inputs] inputs each, from
    its source arrivals [srcs] ({!source_arrivals}): the data term of
    {!compute_arrival_with}, same base and fold order. *)
let own_data t (op : Dfg.op) ~(srcs : float array) ~inputs =
  let mux = Library.mux_delay t.lib ~inputs in
  let ins = Dfg.in_edges t.dfg op.Dfg.id in
  let acc = ref (arrival_base t op ins) in
  for k = 0 to List.length ins - 1 do
    let a = srcs.(k) in
    acc := fmax !acc (if t.mux_priced then a +. mux else a)
  done;
  !acc

(** The op's endpoint slack executing on [inst] with data arrival [data]
    and guard arrival [guard]: {!endpoint_slack}'s expression. *)
let own_slack t ~data ~(inst : inst) ~guard = slack_of t ~arrival:(data +. inst_delay t inst) ~guard

let empty_bind_slack t (op : Dfg.op) ~step ~finish ~(inst : inst) =
  if inst.n_bound > 0 || compat_tier t op inst <> 0 || not (own_slack_defined t op ~finish) then nan
  else begin
    let srcs = Array.make (List.length (Dfg.in_edges t.dfg op.Dfg.id)) 0.0 in
    source_arrivals t op ~step srcs;
    let data = own_data t op ~srcs ~inputs:(if inst.prealloc_shared then 2 else 1) in
    own_slack t ~data ~inst ~guard:(guard_arrival t ~step:finish op)
  end

(** {2 Saturation screen}

    Price a hypothetical bind of [op] at [step]..[finish] on [inst]
    against the committed state, without opening a transaction.
    [changed_ports] is the set of instance input ports whose effective mux
    input count the bind would grow (bit [p] for port [p], computed by the
    caller against the committed caches).

    Proves a rejection when some already-bound op provably ends up with
    endpoint slack below the -1 fs tolerance {e and} strictly below the
    new op's own exact slack: the full trial is then guaranteed to fail
    with [worst_op <> op] — a busy rejection — so the caller can return
    [F_busy] without paying the transaction, the propagation and the
    rollback.

    Two kinds of op can carry the proof.  A cohabitant reading a grown
    port is priced exactly: the same formulas as {!recompute_arrival} /
    {!endpoint_slack}, with the grown mux delays substituted, give its
    settled in-trial slack.  When that slack alone proves nothing, its
    exact hypothetical arrival seeds a walk down its same-step chained
    consumers, carrying an arrival {e lower bound} hop by hop (see
    {!screen_walk_margin}); the trial recomputes every op the walk
    follows to at least that bound, so a bound that misses the clock
    proves the consumer's violation too.  The trial's worst slack is at
    most any of these, and the op itself — strictly above it — cannot
    carry the minimum.  Any source or guard predecessor whose own arrival
    the bind might disturb (it reads a grown port, or a same-step chain
    connects it to one — or to the new op's result) makes the new op or
    the cohabitant unpriceable, and with the new op unpriceable the
    screen answers [Screen_pass] — "run the real trial" — never a wrong
    verdict.

    {b The memo.}  Only the comparison with the new op's own slack [s_op]
    depends on the op, and only when no placed op reads the op's result
    (then no source of a cohabitant can chain from it).  So a computed
    screen walks every cohabitant, in the instance's bound order, and
    every walk to the end; it proves when any value it prices proves, and
    stores the least value priced, per instance and set of changed
    ports.  Any attach, type change or
    rollback on the instance, a pre-allocation flip and {!reset_pass}
    give the instance a fresh epoch and drop its entries.  Within a pass
    the other changes only lower what a fresh screen would price: a
    committed arrival only rises (the argument of the instance floors),
    mux delays grow with their inputs and exec delays with the type, and a
    newly placed consumer only adds a walk.  So the op that carried a
    stored value [v] ends the trial with a slack of at most [v]: the trial
    re-times it, or leaves a committed arrival that has already risen to
    the bound the walk priced.  In the second case its committed slack is
    at most [v].  But no committed slack is below the tolerance: a trial
    commits only when its worst slack clears it, and a replayed prefix
    re-commits what such trials accepted.  So when [v] is below the
    tolerance the trial re-times that op.  A hit therefore needs [v]
    below the tolerance and [s_op], and then the trial rejects busy: it
    decides with one comparison ([Screen_memo]).  Only a [force_bind]
    commits without a trial, so no entry is read while the pass is
    {!forced}.  A stored value that proves nothing may be stale, so the
    screen is computed again and stored ([Screen_computed] when it
    proves). *)

(* Per-hop slack of the downstream walk's arrival bound.  The trial's
   propagation pushes a consumer only when its producer moves by more
   than 1 fs, so an op can settle up to that much below the exact
   fixpoint for each hop it sits below a priced cohabitant; ten times
   the threshold per hop covers it with room to spare. *)
let screen_walk_margin = 0.01

let screen_walk_depth = 8

(* The mux delay of a grown port: one more source than it has now *)
let grown_mux_delay t inst p =
  Library.mux_delay t.lib ~inputs:(effective_inputs inst (src_count t inst ~port:p + 1))

(** The highest port a port set holds: bit [Sys.int_size - 2], the top
    bit of a non-negative int. *)
let port_set_max = Sys.int_size - 2

(* is port [p] in the set [ports]?  A port beyond the set's range never is *)
let in_ports ports p = p >= 0 && p <= port_set_max && (ports lsr p) land 1 = 1

let rec reads_ports_in ports = function
  | [] -> false
  | (e : Dfg.edge) :: rest -> in_ports ports e.Dfg.port || reads_ports_in ports rest

(* Does [o] read one of the ports in the set [ports]? *)
let reads_ports t o ~ports = reads_ports_in ports (Dfg.in_edges t.dfg o)

(** The bit of port [p] in a port set. *)
let port_bit p =
  if p < 0 || p > port_set_max then invalid_arg "Netlist.port_bit: port out of range";
  1 lsl p

(* Store the grown mux delay of every port in the set [ports] of [inst]
   in [scr_grown]; the largest growth over them *)
let grow_ports t inst ports =
  let delta = ref 0.0 and m = ref ports and p = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then begin
      let g = grown_mux_delay t inst !p in
      t.scr_grown.(!p) <- g;
      delta := fmax !delta (g -. in_mux_delay t inst ~port:!p)
    end;
    m := !m lsr 1;
    incr p
  done;
  !delta

(** The instance's slack floor (the first read of a pass builds every
    instance's), [neg_infinity] while the pass is {!forced}. *)
let inst_floor t (inst : inst) =
  if t.forced then neg_infinity
  else begin
    if not t.floors_kept then begin
      t.floors_kept <- true;
      for id = 0 to t.cap - 1 do
        if placed t id then floor_note t id (endpoint_slack t id)
      done
    end;
    t.inst_floor.(inst.inst_id)
  end

(** Can {!screen} prove anything for this bind?  Every slack it prices
    belongs to an op in the instance's cone — a cohabitant, or an op its
    downstream walk reaches — and is that op's committed slack moved by
    the grown mux delays, each by at most Δ, the largest growth of any
    changed port.  A cohabitant's path passes one grown mux.  The walk
    below it never comes back through the instance on a latency-1 op: that
    would be a same-step chain from the instance to itself, which the
    structural-cycle check forbids.  The only second grown mux a priced
    path can pass is thus that of a multicycle op ending the walk on the
    same instance (under an exclusive guard), and only black-box instances
    host multicycle ops.  So each priced slack is at least the committed
    slack of its op minus kΔ (k = 1, or 2 on a black-box instance), minus
    the sub-femtosecond residue by which a stored arrival can lag its
    exact value.  No committed slack in the cone is below the instance's
    floor F_i (see {e Instance slack floors}), so when F_i − kΔ clears the
    tolerance by {!screen_floor_margin}, nothing can prove a rejection and
    the answer is [false] without pricing anyone.  That also holds for a
    memo hit: a value stored under the instance's current epoch was priced
    against the same mux counts and against a floor at least F_i (floors
    only fall within a pass), so it is at least F_i − kΔ too and proves
    nothing.  A [force_bind], which may commit a violating op without a
    trial, disables the floors for the rest of the pass
    ({!mark_forced}).  Unpriced muxes make growth invisible: then
    the answer is [false] too. *)
let screen_may_prove t ~(inst : inst) ~changed_ports =
  t.mux_priced && changed_ports > 0
  &&
  let delta = grow_ports t inst changed_ports in
  let delta = match inst.rtype.Resource.rclass with Opkind.R_blackbox _ -> 2.0 *. delta | _ -> delta in
  not (inst_floor t inst -. delta > -0.001 +. screen_floor_margin)

let mark_forced t = t.forced <- true
let forced t = t.forced

(* [op] is not placed and no placed op reads its result at distance 0, as
   data or as guard: the cohabitant half of a screen then does not depend
   on the op *)
let unread t (op : Dfg.op) =
  let id = op.Dfg.id in
  let outs = out0_of t id in
  let k = ref 0 in
  while !k < Array.length outs && not (placed t outs.(!k)) do
    incr k
  done;
  (not (placed t id))
  && !k = Array.length outs
  && not
       (id < Array.length t.gslots
       &&
       let b = t.gslots.(id) in
       b.b_gen = t.pass_stamp && b.b_len > 0)

(* The screen's helpers read the bind from the [scr_] fields and keep
   their floats in [scr_f], so pricing allocates no closure *)
let sf_arr = 0 (* the arrival the last [scr_hypo] priced *)
let sf_slack = 1 (* ... and its endpoint slack *)
let sf_reg_setup = 2 (* register mux delay plus setup *)
let sf_least = 3 (* the least value the computed screen priced *)
let sf_s_op = 4 (* the new op's own slack *)

(* the mux delay of [p] on the screened instance, grown when [p] is a
   changed port *)
let scr_mux t p =
  if in_ports t.scr_ports p then t.scr_grown.(p) else in_mux_delay t t.inst_arr.(t.scr_inst) ~port:p

(* Would [id]'s committed arrival move under the screened bind?  True
   when it reads a grown port on the instance or when the change (or the
   new op's result) reaches it through a same-step chain; deep chains
   bail out conservatively *)
let rec scr_affected t depth id =
  depth > 8
  || (t.pl_inst.(id) = t.scr_inst && reads_ports t id ~ports:t.scr_ports)
  || scr_affected_ins t depth t.pl_step.(id) (Dfg.in_edges t.dfg id)

and scr_affected_ins t depth st = function
  | [] -> false
  | (e : Dfg.edge) :: rest ->
      (e.Dfg.distance = 0
      &&
      if e.Dfg.src = t.scr_op then t.scr_finish = st
      else
        let p = e.Dfg.src in
        Region.mem t.region p && placed t p
        && (not (lat_of t p > 1))
        && t.pl_finish.(p) = st
        && scr_affected t (depth + 1) p)
      || scr_affected_ins t depth st rest

(* does a guard predecessor of [o] move under the screened bind? *)
let scr_guard_affected t (o : Dfg.op) ~fstep =
  (not (Guard.is_always o.Dfg.guard))
  &&
  let gp = gpreds_of t o.Dfg.id in
  let hit = ref false and k = ref 0 in
  while (not !hit) && !k < Array.length gp do
    let g = gp.(!k) in
    hit :=
      if g = t.scr_op then t.scr_finish = fstep
      else Region.mem t.region g && placed t g && t.pl_finish.(g) = fstep && scr_affected t 0 g;
    incr k
  done;
  !hit

(* Price [o] executing on the screened instance at [st]..[fstep] with
   the grown mux delays: its exact arrival and endpoint slack go to the
   [sf_arr] and [sf_slack] slots.  False, pricing nothing, when a
   committed input would itself move *)
let scr_hypo t (o : Dfg.op) ~st ~fstep =
  let ff = t.lib.Library.ff_clk_q in
  let ins = Dfg.in_edges t.dfg o.Dfg.id in
  let data = ref (arrival_base t o ins) and ok = ref true and l = ref ins in
  while
    !ok
    &&
    match !l with
    | [] -> false
    | (e : Dfg.edge) :: rest ->
        l := rest;
        let s = e.Dfg.src in
        let a =
          if e.Dfg.distance <> 0 then ff
          else if s = t.scr_op then begin
            if t.scr_finish = st then ok := false;
            ff
          end
          else if Region.mem t.region s && placed t s && (not (lat_of t s > 1)) && t.pl_finish.(s) = st
          then begin
            if scr_affected t 0 s then ok := false;
            let v = arrival_raw t s in
            if v = neg_infinity then ff else v
          end
          else ff
        in
        data := fmax !data (a +. scr_mux t e.Dfg.port);
        true
  do
    ()
  done;
  !ok
  && (not (scr_guard_affected t o ~fstep))
  &&
  let arr = !data +. inst_delay t t.inst_arr.(t.scr_inst) in
  let g = guard_arrival t ~step:fstep o in
  t.scr_f.(sf_arr) <- arr;
  t.scr_f.(sf_slack) <- t.clock_ps -. (fmax arr g +. t.scr_f.(sf_reg_setup));
  true

(* a value the computed screen priced *)
let scr_note t s =
  let f = t.scr_f in
  if s < f.(sf_least) then f.(sf_least) <- s;
  if s < -0.001 && s < f.(sf_s_op) then t.scr_proved <- true

(* [lb] bounds [x]'s in-trial arrival from below, [h] hops under a priced
   cohabitant.  Follow a same-step consumer only where the bound exceeds
   its committed arrival by more than the push threshold — exactly where
   the trial's propagation reaches it *)
let rec scr_walk t x lb h =
  if h < screen_walk_depth && Region.mem t.region x && lat_of t x <= 1 then
    scr_walk_outs t t.pl_finish.(x) lb h (Dfg.out_edges t.dfg x)

and scr_walk_outs t fstep lb h = function
  | [] -> ()
  | (e : Dfg.edge) :: rest ->
      let d = e.Dfg.dst in
      if
        e.Dfg.distance = 0 && d <> t.scr_op && placed t d
        && t.pl_step.(d) = fstep
        && t.scr_seen.(d) <> t.scr_gen
      then begin
        let di = t.pl_inst.(d) in
        let mux =
          if di < 0 then 0.0
          else if di = t.scr_inst then scr_mux t e.Dfg.port
          else in_mux_delay t t.inst_arr.(di) ~port:e.Dfg.port
        in
        let ex = exec_delay t (Dfg.find t.dfg d) (if di < 0 then None else Some di) in
        let lb_d = lb +. mux +. ex -. screen_walk_margin in
        if lb_d -. arrival_raw t d > 0.001 then begin
          t.scr_seen.(d) <- t.scr_gen;
          scr_note t (t.clock_ps -. (lb_d +. t.scr_f.(sf_reg_setup)));
          scr_walk t d lb_d (h + 1)
        end
      end;
      scr_walk_outs t fstep lb h rest

(* price the cohabitant [o_id] when it reads a changed port, then walk
   below it *)
let scr_price t o_id =
  if o_id <> t.scr_op && placed t o_id && reads_ports t o_id ~ports:t.scr_ports then begin
    if scr_hypo t (Dfg.find t.dfg o_id) ~st:t.pl_step.(o_id) ~fstep:t.pl_finish.(o_id) then begin
      scr_note t t.scr_f.(sf_slack);
      scr_walk t o_id t.scr_f.(sf_arr) 0
    end
  end

let rec scr_price_all t = function
  | [] -> ()
  | o_id :: rest ->
      scr_price t o_id;
      scr_price_all t rest

let screen t ~(op : Dfg.op) ~step ~finish ~(inst : inst) ~changed_ports =
  (* unpriced muxes make mux growth invisible *)
  if (not t.mux_priced) || changed_ports <= 0 then Screen_pass
  else begin
    (* the memo slot first: a hit needs only the op's own slack *)
    let slot = if changed_ports < sat_slots then (inst.inst_id * sat_slots) + changed_ports else -1 in
    let epoch = t.sat_epoch.(inst.inst_id) in
    let stored =
      if slot >= 0 && t.sat_at.(slot) = epoch then t.sat_val.(slot) else infinity
    in
    let hit_may = stored < -0.001 && (not t.forced) && unread t op in
    t.scr_op <- op.Dfg.id;
    t.scr_finish <- finish;
    t.scr_inst <- inst.inst_id;
    t.scr_ports <- changed_ports;
    ignore (grow_ports t inst changed_ports);
    t.scr_f.(sf_reg_setup) <- reg_mux_delay t +. t.lib.Library.ff_setup;
    if not (scr_hypo t op ~st:step ~fstep:finish) then Screen_pass
    else begin
      let s_op = t.scr_f.(sf_slack) in
      if hit_may && stored < s_op then Screen_memo
      else begin
        t.scr_gen <- t.scr_gen + 1;
        t.scr_f.(sf_least) <- infinity;
        t.scr_f.(sf_s_op) <- s_op;
        t.scr_proved <- false;
        scr_price_all t inst.bound;
        if slot >= 0 then begin
          t.sat_at.(slot) <- epoch;
          t.sat_val.(slot) <- t.scr_f.(sf_least)
        end;
        if t.scr_proved then Screen_computed else Screen_pass
      end
    end
  end

(* --- propagation worklist: FIFO ring with membership stamps --- *)

let wl_reset t =
  t.wl_head <- 0;
  t.wl_tail <- 0;
  t.prop_gen <- t.prop_gen + 1

let wl_push t id =
  (* dedup: an op already pending is recomputed once, with its inputs
     settled — the monotone max-fixpoint makes the result identical *)
  if t.in_wl.(id) <> t.prop_gen then begin
    t.in_wl.(id) <- t.prop_gen;
    (if t.wl_tail = Array.length t.wl then
       if t.wl_head > 0 then begin
         Array.blit t.wl t.wl_head t.wl 0 (t.wl_tail - t.wl_head);
         t.wl_tail <- t.wl_tail - t.wl_head;
         t.wl_head <- 0
       end
       else begin
         let a = Array.make (2 * Array.length t.wl) 0 in
         Array.blit t.wl 0 a 0 t.wl_tail;
         t.wl <- a
       end);
    t.wl.(t.wl_tail) <- id;
    t.wl_tail <- t.wl_tail + 1
  end

let wl_pop t =
  let id = t.wl.(t.wl_head) in
  t.wl_head <- t.wl_head + 1;
  t.in_wl.(id) <- 0;
  id

(** Propagate arrival changes from [seeds] through same-step chains.
    Returns the worst endpoint slack seen together with the op carrying it
    — so the caller can tell a failure of the new binding itself from
    collateral damage to ops already bound (a saturated instance).

    The worklist is deduplicated by op id and propagation stops at ops
    whose arrival did not move, so the visited set is bounded by the
    region the change actually reaches — not the transitive fanout cone
    of the seeds.  Arrivals only grow inside a trial (mux growth and
    new chains), so every op's last recomputation is its settled value
    and the returned worst slack equals the full-fanout walk's. *)
let propagate t seeds =
  let worst = ref infinity in
  let worst_op = ref (-1) in
  wl_reset t;
  List.iter
    (fun s ->
      ensure_cap t s;
      wl_push t s)
    seeds;
  while t.wl_head < t.wl_tail do
    let id = wl_pop t in
    t.n_visits <- t.n_visits + 1;
    if placed t id then begin
      let changed = recompute_arrival t id in
      let slack = t.op_slack.(id) in
      if slack < !worst then begin
        worst := slack;
        worst_op := id
      end;
      if changed then begin
        let fstep = t.pl_finish.(id) in
        let outs = out0_of t id in
        for k = 0 to Array.length outs - 1 do
          let dst = outs.(k) in
          if placed t dst && t.pl_step.(dst) = fstep then wl_push t dst
        done;
        if id < Array.length t.gslots then begin
          let b = t.gslots.(id) in
          if b.b_gen = t.pass_stamp then
            for k = 0 to b.b_len - 1 do
              let g = b.b_a.(k) in
              if placed t g && t.pl_step.(g) = fstep then wl_push t g
            done
        end
      end
    end
  done;
  (!worst, !worst_op)

(** Refresh every arrival from scratch through the incremental engine
    (processing in step order so chained arrivals settle). *)
let recompute_all t =
  let by_step =
    fold_placements t (fun id pl acc -> (pl.pl_step, id) :: acc) []
    |> List.sort (fun ((s : int), (i : int)) (s', i') ->
           match Int.compare s s' with 0 -> Int.compare i i' | c -> c)
    |> List.map snd
  in
  ignore (propagate t by_step)

(** Turn sharing-mux pricing back on after a pass that ran with it off,
    re-timing every placed op; a no-op when the muxes are already priced.
    Must not run inside a trial. *)
let price_muxes t =
  if not t.mux_priced then begin
    t.mux_priced <- true;
    recompute_all t
  end

(** Resource instances that combinationally feed [op] when placed at
    [step], tracing through same-step wire ops (for the structural-cycle
    check). *)
let chain_source_insts t op_id ~step =
  t.scr_gen <- t.scr_gen + 1;
  let gen = t.scr_gen in
  let acc = ref [] in
  let rec visit id =
    if placed t id && t.scr_seen.(id) <> gen then begin
      t.scr_seen.(id) <- gen;
      if t.pl_finish.(id) = step && lat_of t id <= 1 then
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

let would_close_cycle t ~src ~dst = Hls_timing.Cycle_detector.would_close_cycle t.chain ~src ~dst

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
           id < Array.length t.gslots
           &&
           let b = t.gslots.(id) in
           b.b_gen = t.pass_stamp
           &&
           let rec any k = k < b.b_len && (t.pl_step.(b.b_a.(k)) > pl.pl_finish || any (k + 1)) in
           any 0
         in
         let is_write = match op.Dfg.kind with Opkind.Write _ -> true | _ -> false in
         if crosses || guards_later || is_write then id :: acc else acc)
       [])

(** Critical-path decomposition for the downstream-synthesis model: one
    path per registered endpoint, tracing the argmax chain backwards. *)
let timing_report t : Hls_timing.Synthesize.report =
  let paths =
    List.filter_map
      (fun endpoint ->
        let step = t.pl_finish.(endpoint) in
        let fixed = ref (reg_mux_delay t +. t.lib.Library.ff_setup) in
        let elems = ref [] in
        let rec back id =
          let op = Dfg.find t.dfg id in
          let op_inst = t.pl_inst.(id) in
          (if op_inst >= 0 then
             let inst = find_inst t op_inst in
             elems :=
               {
                 Hls_timing.Synthesize.pe_inst = op_inst;
                 pe_rtype = inst.rtype;
                 pe_nominal = Library.delay t.lib inst.rtype;
               }
               :: !elems);
          (* find dominant input *)
          let best = ref None in
          List.iter
            (fun e ->
              let a = source_arrival t ~step e in
              let mux =
                if op_inst >= 0 then in_mux_delay t (find_inst t op_inst) ~port:e.Dfg.port
                else 0.0
              in
              let tot = a +. mux in
              match !best with
              | Some (_, _, bt) when bt >= tot -> ()
              | _ -> best := Some (e, mux, tot))
            (Dfg.in_edges t.dfg id);
          match !best with
          | None ->
              fixed :=
                !fixed +. (match op.Dfg.kind with Opkind.Const _ -> 0.0 | _ -> t.lib.Library.ff_clk_q)
          | Some (e, mux, _) ->
              fixed := !fixed +. mux;
              let p = e.Dfg.src in
              let chained =
                e.Dfg.distance = 0
                && Region.mem t.region p
                && placed t p
                && t.pl_finish.(p) = step
                && lat_of t p <= 1
              in
              if chained then back p else fixed := !fixed +. t.lib.Library.ff_clk_q
        in
        back endpoint;
        if !elems = [] then None
        else
          Some
            {
              Hls_timing.Synthesize.p_endpoint = (Dfg.find t.dfg endpoint).Dfg.name;
              p_step = step;
              p_fixed = !fixed;
              p_elems = !elems;
            })
      (registered_ops t)
  in
  { Hls_timing.Synthesize.r_clock_ps = t.clock_ps; r_paths = paths }

(** Worst endpoint slack over all placed ops. *)
let worst_slack t = fold_placements t (fun id _ acc -> fmin acc (endpoint_slack t id)) infinity

(** {2 Reference evaluator — the oracle} *)

(** From-scratch recomputation of every arrival, ignoring every
    incremental structure (cells, journal, propagation order).  Sweeps the
    placed ops in (step, id) order to a fixpoint so same-step chains settle
    regardless of id order.  Does not touch the query counters. *)
let reference_arrivals t =
  let r : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let ids =
    fold_placements t (fun id pl acc -> (pl.pl_step, id) :: acc) []
    |> List.sort (fun ((s : int), (i : int)) (s', i') ->
           match Int.compare s s' with 0 -> Int.compare i i' | c -> c)
    |> List.map snd
  in
  let lookup p = match Hashtbl.find_opt r p with Some v -> v | None -> neg_infinity in
  let sweep () =
    List.fold_left
      (fun changed id ->
        let v =
          compute_arrival_with t ~lookup (Dfg.find t.dfg id) ~step:t.pl_step.(id)
            ~inst:t.pl_inst.(id)
        in
        let moved =
          match Hashtbl.find_opt r id with Some o -> abs_float (o -. v) > 1e-9 | None -> true
        in
        Hashtbl.replace r id v;
        changed || moved)
      false ids
  in
  let rec fix n = if n > 0 && sweep () then fix (n - 1) in
  fix (List.length ids + 2);
  r

(** Worst absolute difference between the incremental arrival state and
    {!reference_arrivals} over all placed ops.  Zero (up to float noise)
    whenever the transaction machinery is correct. *)
let reference_deviation t =
  let r = reference_arrivals t in
  fold_placements t
    (fun id _ acc ->
      let dev =
        match (Hashtbl.find_opt r id, arrival t id) with
        | Some r, Some a -> abs_float (r -. a)
        | Some r, None -> abs_float r
        | None, Some a -> abs_float a
        | None, None -> 0.0
      in
      fmax acc dev)
    0.0
