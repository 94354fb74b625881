(** The saturation screen: a busy rejection proved from committed timing,
    without opening a trial (see {!screen}), its per-(instance, port set)
    memo, and the instance slack floors that rule out the screens that
    cannot prove anything ({!screen_may_prove}).

    The per-candidate code here reads the timing graph's record fields and
    arrays directly — placements, arrival cells, unit delays and mux
    delays — rather than through accessor calls: a call that crosses a
    module boundary is never inlined, and a float it returns is boxed. *)

open Hls_ir
open Hls_techlib
module G = Hls_timing.Graph

(* [Stdlib.max] specialised to floats (same semantics, NaN included),
   without the polymorphic comparison call *)
let fmax (a : float) b = if a >= b then a else b

type screen = Screen_pass | Screen_memo | Screen_computed

type t = {
  net : Netlist.t;
  g : G.t;
  lib : Library.t;
  seen : int array;  (** visit stamps of the walks, one generation per walk *)
  mutable gen : int;
  grown : float array;  (** port -> its grown mux delay, for one screen *)
  (* the bind one screen prices, read by its closure-free helpers: the
     new op, its finishing step, the instance and the changed ports *)
  mutable op : int;
  mutable finish : int;
  mutable inst : int;
  mutable ports : int;
  mutable proved : bool;  (** a priced value proves the rejection *)
  f : float array;  (** the screen's float scratch, unboxed: see the [sf_] slots *)
  (* the saturation memo (see {!screen}): per (instance, changed-port
     set), the least slack the last computed screen priced, valid while
     the instance's epoch is the one it was stored under *)
  mutable sat_at : int array;  (** [inst * sat_slots + ports] -> epoch stored under, -1 none *)
  mutable sat_val : float array;  (** ... -> the least priced slack *)
  mutable floor : float array;
      (** instance -> its slack floor: the least committed endpoint slack
          this pass over its bound ops and their same-step consumer cones,
          capped at [floor_cap] (see {!screen_may_prove}) *)
  floor_cap : float;
}

(* memo slots per instance: one per set of changed ports among the first
   three (more ports are screened without the memo) *)
let sat_slots = 8

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
let floor_cap (lib : Library.t) net =
  let blackbox (op : Dfg.op) =
    match Netlist.resource_of net op with
    | Some { Resource.rclass = Opkind.R_blackbox _; _ } -> true
    | _ -> false
  in
  let k = if List.exists blackbox (Region.member_ops (Netlist.region net)) then 2.0 else 1.0 in
  -0.001 +. screen_floor_margin +. (k *. fmax lib.Library.d_mux2 lib.Library.d_mux_per_extra_input) +. 1.0

let create net =
  let g = Netlist.graph net and lib = Netlist.lib net in
  {
    net;
    g;
    lib;
    seen = Array.make (Array.length g.G.node_pass) 0;
    gen = 0;
    grown = Array.make 64 0.0;
    op = -1;
    finish = 0;
    inst = 0;
    ports = 0;
    proved = false;
    f = Array.make 5 0.0;
    sat_at = [||];
    sat_val = [||];
    floor = [||];
    floor_cap = floor_cap lib net;
  }

(* room for instance [i] in the per-instance tables *)
let fit s i =
  let n = Array.length s.floor in
  if i >= n then begin
    let m = Int.max 16 (Int.max (i + 1) (2 * n)) in
    let grow a d k =
      let b = Array.make (m * k) d in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    s.floor <- grow s.floor s.floor_cap 1;
    s.sat_at <- grow s.sat_at (-1) sat_slots;
    s.sat_val <- grow s.sat_val infinity sat_slots
  end

(* The graph's reads, inlined: a cross-module call is never inlined *)
let placed g id = g.G.node_pass.(id) = g.G.pass

(* the graph's read rule of an arrival cell ({!G.cell}), [neg_infinity]
   when absent *)
let arrival g id =
  let c = g.G.cells.(id) in
  if c.G.a_pass <> g.G.pass then neg_infinity
  else if g.G.trial_on && c.G.a_gen = g.G.generation then c.G.a_trial
  else if c.G.a_live then c.G.a_committed
  else neg_infinity

(* {!G.input_mux}: the unit's array, or the client's fill past its end *)
let mux g u p =
  let d = g.G.unit_mux.(u) in
  if p < Array.length d then d.(p) else g.G.mux_fill u p

(** {2 Instance slack floors}

    Instance [i]'s floor is the least committed endpoint slack, this
    pass, over the ops a saturation screen on [i] can price: [i]'s bound
    ops and, below each, the ops that read it at distance 0 in the step
    it finishes, recursively, through latency-1 region members (the
    screen's downstream walk follows exactly those edges).  Every slack
    is noted as it becomes committed — through the graph's commit hook:
    at its commit for the ops the trial re-timed, at once for a
    recomputation outside a trial — against the instance of the op and of
    every op upstream of it on such a chain.  An op is placed after its
    producers, so a chain that reaches it already exists when its slack
    is first noted, and a later trial that re-times it notes it again.  A
    pass that never screens (no instance is shared) need not pay for the
    notes, so the floors are built by their first read, from every placed
    op's committed slack — within a pass a committed slack only falls, so
    that is the least it has been — and noted from then on (the hook is
    on until the graph's next pass). *)

(* lower by [sl] the floor of [id]'s instance and of every instance whose
   same-step chain reaches [id]; [gen] marks the ops already visited *)
let rec floor_note_up s id (sl : float) gen =
  let g = s.g in
  let j = g.G.node_unit.(id) in
  if j >= 0 then begin
    fit s j;
    if sl < s.floor.(j) then s.floor.(j) <- sl
  end;
  floor_note_ins s g.G.node_step.(id) sl gen (Dfg.in_edges g.G.dfg id)

and floor_note_ins s st sl gen = function
  | [] -> ()
  | (e : Dfg.edge) :: rest ->
      let g = s.g in
      let p = e.Dfg.src in
      if
        e.Dfg.distance = 0
        && g.G.node_finish.(p) = st
        && placed g p
        && s.seen.(p) <> gen
        && g.G.member.(p)
        && g.G.lat.(p) <= 1
      then begin
        s.seen.(p) <- gen;
        floor_note_up s p sl gen
      end;
      floor_note_ins s st sl gen rest

let floor_note s id sl =
  if sl < s.floor_cap then begin
    s.gen <- s.gen + 1;
    floor_note_up s id sl s.gen
  end

(** The instance's slack floor (the first read of a pass builds every
    instance's and turns the graph's commit hook on), [neg_infinity]
    while the pass is {!Netlist.forced}. *)
let inst_floor s (inst : Netlist.inst) =
  if Netlist.forced s.net then neg_infinity
  else begin
    let g = s.g in
    if not g.G.noting then begin
      Array.fill s.floor 0 (Array.length s.floor) s.floor_cap;
      G.on_commit g (fun id -> floor_note s id g.G.slack.(id));
      for id = 0 to Array.length g.G.node_pass - 1 do
        if placed g id then floor_note s id (G.endpoint_slack g id)
      done
    end;
    fit s inst.Netlist.inst_id;
    s.floor.(inst.Netlist.inst_id)
  end

(** {2 Port sets} *)

let port_set_max = Sys.int_size - 2

(* is port [p] in the set [ports]?  A port beyond the set's range never is *)
let in_ports ports p = p >= 0 && p <= port_set_max && (ports lsr p) land 1 = 1

let rec reads_ports_in ports = function
  | [] -> false
  | (e : Dfg.edge) :: rest -> in_ports ports e.Dfg.port || reads_ports_in ports rest

let reads_ports dfg o ~ports = reads_ports_in ports (Dfg.in_edges dfg o)

let port_bit p =
  if p < 0 || p > port_set_max then invalid_arg "Screen.port_bit: port out of range";
  1 lsl p

(** {2 The screen}

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
    port is priced exactly: the graph's arrival and endpoint-slack
    formulas, with the grown mux delays substituted, give its settled
    in-trial slack.  When that slack alone proves nothing, its exact
    hypothetical arrival seeds a walk down its same-step chained
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
    ports.  Any attach, type change or rollback on the instance, a
    pre-allocation flip and a new pass give the instance a fresh epoch
    ({!Netlist.inst_epoch}) and drop its entries.  Within a pass the
    other changes only lower what a fresh screen would price: a committed
    arrival only rises (the argument of the instance floors), mux delays
    grow with their inputs and exec delays with the type, and a newly
    placed consumer only adds a walk.  So the op that carried a stored
    value [v] ends the trial with a slack of at most [v]: the trial
    re-times it, or leaves a committed arrival that has already risen to
    the bound the walk priced.  In the second case its committed slack is
    at most [v].  But no committed slack is below the tolerance: a trial
    commits only when its worst slack clears it, and a replayed prefix
    re-commits what such trials accepted.  So when [v] is below the
    tolerance the trial re-times that op.  A hit therefore needs [v]
    below the tolerance and [s_op], and then the trial rejects busy: it
    decides with one comparison ([Screen_memo]).  Only a [force_bind]
    commits without a trial, so no entry is read while the pass is
    {!Netlist.forced}.  A stored value that proves nothing may be stale,
    so the screen is computed again and stored ([Screen_computed] when it
    proves). *)

(* Per-hop slack of the downstream walk's arrival bound.  The trial's
   propagation pushes a consumer only when its producer moves by more
   than 1 fs, so an op can settle up to that much below the exact
   fixpoint for each hop it sits below a priced cohabitant; ten times
   the threshold per hop covers it with room to spare. *)
let screen_walk_margin = 0.01

let screen_walk_depth = 8

(* Store the grown mux delay of every port in the set [ports] of [inst]
   in [grown] — one more source than the port has now; the largest
   growth over them *)
let grow_ports s (inst : Netlist.inst) ports =
  let delta = ref 0.0 and m = ref ports and p = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then begin
      let n = Netlist.src_count s.net inst ~port:!p + 1 in
      let n = if inst.Netlist.prealloc_shared then Int.max n 2 else n in
      let gr = s.g.G.mux_tab.(n) in
      s.grown.(!p) <- gr;
      delta := fmax !delta (gr -. mux s.g inst.Netlist.inst_id !p)
    end;
    m := !m lsr 1;
    incr p
  done;
  !delta

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
    ({!Netlist.mark_forced}).  Unpriced muxes make growth invisible: then
    the answer is [false] too. *)
let screen_may_prove s ~(inst : Netlist.inst) ~changed_ports =
  s.g.G.priced && changed_ports > 0
  &&
  let delta = grow_ports s inst changed_ports in
  let delta =
    match inst.Netlist.rtype.Resource.rclass with Opkind.R_blackbox _ -> 2.0 *. delta | _ -> delta
  in
  not (inst_floor s inst -. delta > -0.001 +. screen_floor_margin)

(* [op] is not placed and no placed op reads its result at distance 0, as
   data or as guard: the cohabitant half of a screen then does not depend
   on the op *)
let unread s (op : Dfg.op) =
  let g = s.g in
  let id = op.Dfg.id in
  let outs = g.G.out0.(id) in
  let k = ref 0 in
  while !k < Array.length outs && not (placed g outs.(!k)) do
    incr k
  done;
  (not (placed g id))
  && !k = Array.length outs
  &&
  let b = g.G.gslots.(id) in
  not (b.G.b_gen = g.G.pass && b.G.b_len > 0)

(* The screen's helpers read the bind from the fields above and keep
   their floats in [f], so pricing allocates no closure *)
let sf_arr = 0 (* the arrival the last [scr_hypo] priced *)
let sf_slack = 1 (* ... and its endpoint slack *)
let sf_reg_setup = 2 (* register mux delay plus setup *)
let sf_least = 3 (* the least value the computed screen priced *)
let sf_s_op = 4 (* the new op's own slack *)

(* the mux delay of [p] on the screened instance, grown when [p] is a
   changed port *)
let scr_mux s p = if in_ports s.ports p then s.grown.(p) else mux s.g s.inst p

(* Would [id]'s committed arrival move under the screened bind?  True
   when it reads a grown port on the instance or when the change (or the
   new op's result) reaches it through a same-step chain; deep chains
   bail out conservatively *)
let rec scr_affected s depth id =
  let g = s.g in
  depth > 8
  || (g.G.node_unit.(id) = s.inst && reads_ports g.G.dfg id ~ports:s.ports)
  || scr_affected_ins s depth g.G.node_step.(id) (Dfg.in_edges g.G.dfg id)

and scr_affected_ins s depth st = function
  | [] -> false
  | (e : Dfg.edge) :: rest ->
      (e.Dfg.distance = 0
      &&
      if e.Dfg.src = s.op then s.finish = st
      else
        let g = s.g in
        let p = e.Dfg.src in
        g.G.member.(p) && placed g p
        && (not (g.G.lat.(p) > 1))
        && g.G.node_finish.(p) = st
        && scr_affected s (depth + 1) p)
      || scr_affected_ins s depth st rest

(* does a guard predecessor of [o] move under the screened bind? *)
let scr_guard_affected s (o : Dfg.op) ~fstep =
  (not (Guard.is_always o.Dfg.guard))
  &&
  let g = s.g in
  let gp = g.G.gpreds.(o.Dfg.id) in
  let hit = ref false and k = ref 0 in
  while (not !hit) && !k < Array.length gp do
    let x = gp.(!k) in
    hit :=
      if x = s.op then s.finish = fstep
      else g.G.member.(x) && placed g x && g.G.node_finish.(x) = fstep && scr_affected s 0 x;
    incr k
  done;
  !hit

(* Price [o] executing on the screened instance at [st]..[fstep] with
   the grown mux delays: its exact arrival and endpoint slack go to the
   [sf_arr] and [sf_slack] slots.  False, pricing nothing, when a
   committed input would itself move *)
let scr_hypo s (o : Dfg.op) ~st ~fstep =
  let g = s.g in
  let ff = s.lib.Library.ff_clk_q in
  let ins = Dfg.in_edges g.G.dfg o.Dfg.id in
  let data = ref (G.arrival_base g o ins) and ok = ref true and l = ref ins in
  while
    !ok
    &&
    match !l with
    | [] -> false
    | (e : Dfg.edge) :: rest ->
        l := rest;
        let x = e.Dfg.src in
        let a =
          if e.Dfg.distance <> 0 then ff
          else if x = s.op then begin
            if s.finish = st then ok := false;
            ff
          end
          else if g.G.member.(x) && placed g x && (not (g.G.lat.(x) > 1)) && g.G.node_finish.(x) = st
          then begin
            if scr_affected s 0 x then ok := false;
            let v = arrival g x in
            if v = neg_infinity then ff else v
          end
          else ff
        in
        data := fmax !data (a +. scr_mux s e.Dfg.port);
        true
  do
    ()
  done;
  !ok
  && (not (scr_guard_affected s o ~fstep))
  &&
  let arr = !data +. g.G.unit_delay.(s.inst) in
  let gd = G.guard_arrival g ~step:fstep o in
  s.f.(sf_arr) <- arr;
  s.f.(sf_slack) <- g.G.clock_ps -. (fmax arr gd +. s.f.(sf_reg_setup));
  true

(* a value the computed screen priced *)
let scr_note s v =
  let f = s.f in
  if v < f.(sf_least) then f.(sf_least) <- v;
  if v < -0.001 && v < f.(sf_s_op) then s.proved <- true

(* [lb] bounds [x]'s in-trial arrival from below, [h] hops under a priced
   cohabitant.  Follow a same-step consumer only where the bound exceeds
   its committed arrival by more than the push threshold — exactly where
   the trial's propagation reaches it *)
let rec scr_walk s x lb h =
  let g = s.g in
  if h < screen_walk_depth && g.G.member.(x) && g.G.lat.(x) <= 1 then
    scr_walk_outs s g.G.node_finish.(x) lb h (Dfg.out_edges g.G.dfg x)

and scr_walk_outs s fstep lb h = function
  | [] -> ()
  | (e : Dfg.edge) :: rest ->
      let g = s.g in
      let d = e.Dfg.dst in
      if e.Dfg.distance = 0 && d <> s.op && placed g d && g.G.node_step.(d) = fstep && s.seen.(d) <> s.gen
      then begin
        let di = g.G.node_unit.(d) in
        let m = if di < 0 then 0.0 else if di = s.inst then scr_mux s e.Dfg.port else mux g di e.Dfg.port in
        let ex = if di < 0 then G.exec_delay g (Dfg.find g.G.dfg d) di else g.G.unit_delay.(di) in
        let lb_d = lb +. m +. ex -. screen_walk_margin in
        if lb_d -. arrival g d > 0.001 then begin
          s.seen.(d) <- s.gen;
          scr_note s (g.G.clock_ps -. (lb_d +. s.f.(sf_reg_setup)));
          scr_walk s d lb_d (h + 1)
        end
      end;
      scr_walk_outs s fstep lb h rest

(* price the cohabitant [o_id] when it reads a changed port, then walk
   below it *)
let scr_price s o_id =
  let g = s.g in
  if o_id <> s.op && placed g o_id && reads_ports g.G.dfg o_id ~ports:s.ports then begin
    if scr_hypo s (Dfg.find g.G.dfg o_id) ~st:g.G.node_step.(o_id) ~fstep:g.G.node_finish.(o_id) then begin
      scr_note s s.f.(sf_slack);
      scr_walk s o_id s.f.(sf_arr) 0
    end
  end

let rec scr_price_all s = function
  | [] -> ()
  | o_id :: rest ->
      scr_price s o_id;
      scr_price_all s rest

let screen s ~(op : Dfg.op) ~step ~finish ~(inst : Netlist.inst) ~changed_ports =
  let g = s.g in
  (* unpriced muxes make mux growth invisible *)
  if (not g.G.priced) || changed_ports <= 0 then Screen_pass
  else begin
    let id = inst.Netlist.inst_id in
    fit s id;
    (* the memo slot first: a hit needs only the op's own slack *)
    let slot = if changed_ports < sat_slots then (id * sat_slots) + changed_ports else -1 in
    let epoch = Netlist.inst_epoch s.net inst in
    let stored = if slot >= 0 && s.sat_at.(slot) = epoch then s.sat_val.(slot) else infinity in
    let hit_may = stored < -0.001 && (not (Netlist.forced s.net)) && unread s op in
    s.op <- op.Dfg.id;
    s.finish <- finish;
    s.inst <- id;
    s.ports <- changed_ports;
    ignore (grow_ports s inst changed_ports);
    s.f.(sf_reg_setup) <- g.G.reg_mux +. s.lib.Library.ff_setup;
    if not (scr_hypo s op ~st:step ~fstep:finish) then Screen_pass
    else begin
      let s_op = s.f.(sf_slack) in
      if hit_may && stored < s_op then Screen_memo
      else begin
        s.gen <- s.gen + 1;
        s.f.(sf_least) <- infinity;
        s.f.(sf_s_op) <- s_op;
        s.proved <- false;
        scr_price_all s inst.Netlist.bound;
        if slot >= 0 then begin
          s.sat_at.(slot) <- epoch;
          s.sat_val.(slot) <- s.f.(sf_least)
        end;
        if s.proved then Screen_computed else Screen_pass
      end
    end
  end
