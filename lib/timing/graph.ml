(** The incremental static timing graph of a scheduled region (Section
    IV.B's "logic-synthesis-grade" query model); see the interface.  The
    arrival formula is written once ({!compute_with}), so the incremental
    engine and the from-scratch reference evaluator cannot drift apart,
    and nothing here goes through the polymorphic compare or hash
    ([scripts/hot_path_symbols.sh] checks the object code). *)

open Hls_ir
open Hls_techlib

(* [Stdlib.max] specialised to floats (same semantics, NaN included),
   without the polymorphic comparison call *)
let fmax (a : float) b = if a >= b then a else b

(* and [Stdlib.min]: [fmin x nan] is nan, [fmin nan x] is x *)
let fmin (a : float) b = if a <= b then a else b

type cell = {
  mutable a_committed : float;
  mutable a_live : bool;
  mutable a_trial : float;
  mutable a_gen : int;
  mutable a_pass : int;
}

type bucket = { mutable b_a : int array; mutable b_len : int; mutable b_gen : int }

type t = {
  dfg : Dfg.t;
  lib : Library.t;
  clock_ps : float;
  reg_mux : float;
  member : bool array;
  lat : int array;
  node_delay : float array;
  out0 : int array array;
  gpreds : int array array;
  mutable pass : int;
  node_pass : int array;
  node_step : int array;
  node_finish : int array;
  node_unit : int array;
  gslots : bucket array;
  mutable unit_delay : float array;
  mutable unit_mux : float array array;
  mutable mux_fill : int -> int -> float;
  mux_tab : float array;
  mutable priced : bool;
  cells : cell array;
  mutable generation : int;
  mutable trial_on : bool;
  mutable touched : int list;
  slack : float array;
  mutable wl : int array;
  mutable wl_head : int;
  mutable wl_tail : int;
  in_wl : int array;
  mutable prop_gen : int;
  mutable n_queries : int;
  mutable n_visits : int;
  mutable noting : bool;
  mutable note : int -> unit;
}

let fresh_cell () =
  { a_committed = 0.0; a_live = false; a_trial = 0.0; a_gen = min_int; a_pass = 0 }

(* The register-input sharing mux (the second mux of the paper's Fig. 8
   arithmetic) disappears at II = 1, which is what lets the paper's
   Example 3 close timing *)
let reg_mux_of lib (region : Region.t) =
  if Region.is_pipelined region && Region.ii region = 1 then 0.0 else Library.mux_delay lib ~inputs:2

let create ~lib ~clock_ps (region : Region.t) =
  let dfg = region.Region.dfg in
  (* node ids are [0 .. Dfg.size - 1], fixed before the graph is built *)
  let cap = Int.max (Dfg.size dfg) 16 in
  let lat = Array.make cap 1 and out0 = Array.make cap [||] and gpreds = Array.make cap [||] in
  Dfg.iter_ops dfg (fun op ->
      let id = op.Dfg.id in
      lat.(id) <- Library.op_latency lib op.Dfg.kind;
      out0.(id) <-
        Dfg.out_edges dfg id
        |> List.filter_map (fun e -> if e.Dfg.distance = 0 then Some e.Dfg.dst else None)
        |> Array.of_list;
      gpreds.(id) <- Array.of_list (Guard.preds op.Dfg.guard));
  {
    dfg;
    lib;
    clock_ps;
    reg_mux = reg_mux_of lib region;
    member = Array.init cap (Region.mem region);
    lat;
    node_delay = Array.make cap nan;
    out0;
    gpreds;
    pass = 1;
    node_pass = Array.make cap 0;
    node_step = Array.make cap 0;
    node_finish = Array.make cap 0;
    node_unit = Array.make cap (-1);
    gslots = Array.init cap (fun _ -> { b_a = [||]; b_len = 0; b_gen = 0 });
    unit_delay = [||];
    unit_mux = [||];
    mux_fill = (fun _ _ -> 0.0);
    mux_tab = Array.init (cap + 2) (fun inputs -> Library.mux_delay lib ~inputs);
    priced = true;
    cells = Array.init cap (fun _ -> fresh_cell ());
    generation = 0;
    trial_on = false;
    touched = [];
    slack = Array.make cap infinity;
    wl = Array.make 256 0;
    wl_head = 0;
    wl_tail = 0;
    in_wl = Array.make cap 0;
    prop_gen = 0;
    n_queries = 0;
    n_visits = 0;
    noting = false;
    note = ignore;
  }

let placed g id = g.node_pass.(id) = g.pass

let new_pass g ~priced =
  g.pass <- g.pass + 1;
  g.priced <- priced;
  g.trial_on <- false;
  g.touched <- [];
  g.noting <- false

let add_unit g u ~delay =
  if u >= Array.length g.unit_delay then begin
    let n = Int.max 16 (2 * u) in
    let d = Array.make n nan and m = Array.make n [||] in
    Array.blit g.unit_delay 0 d 0 (Array.length g.unit_delay);
    Array.blit g.unit_mux 0 m 0 (Array.length g.unit_mux);
    g.unit_delay <- d;
    g.unit_mux <- m
  end;
  g.unit_delay.(u) <- delay;
  g.unit_mux.(u) <- [||]

let set_mux_fill g f = g.mux_fill <- f

let on_commit g f =
  g.note <- f;
  g.noting <- true

(** {2 Trials} *)

let begin_trial g =
  if g.trial_on then invalid_arg "Graph.begin_trial: trial already active";
  g.generation <- g.generation + 1;
  g.trial_on <- true;
  g.touched <- []

let commit g =
  List.iter
    (fun id ->
      let c = g.cells.(id) in
      if c.a_pass = g.pass && c.a_gen = g.generation then begin
        c.a_committed <- c.a_trial;
        c.a_live <- true;
        if g.noting then g.note id
      end)
    g.touched;
  g.trial_on <- false;
  g.touched <- []

let abandon g =
  g.trial_on <- false;
  g.touched <- []

(** {2 Arrival state} *)

let[@inline] arrival_raw g id =
  let c = g.cells.(id) in
  if c.a_pass <> g.pass then neg_infinity
  else if g.trial_on && c.a_gen = g.generation then c.a_trial
  else if c.a_live then c.a_committed
  else neg_infinity

let arrival g id =
  let v = arrival_raw g id in
  if v = neg_infinity then None else Some v

let committed_arrivals g =
  let acc = ref [] in
  for id = Array.length g.cells - 1 downto 0 do
    let c = g.cells.(id) in
    if c.a_pass = g.pass && c.a_live then acc := (id, c.a_committed) :: !acc
  done;
  !acc

let set_arrival g id v =
  let c = g.cells.(id) in
  if c.a_pass <> g.pass then begin
    c.a_pass <- g.pass;
    c.a_live <- false;
    c.a_gen <- min_int
  end;
  if g.trial_on then begin
    if c.a_gen <> g.generation then g.touched <- id :: g.touched;
    c.a_gen <- g.generation;
    c.a_trial <- v
  end
  else begin
    c.a_committed <- v;
    c.a_live <- true
  end

(** {2 Arrival computation} *)

let source_arrival_with g ~step ~lookup e =
  let ff = g.lib.Library.ff_clk_q in
  let p = e.Dfg.src in
  if e.Dfg.distance > 0 then ff
  else if not g.member.(p) then ff
  else if not (placed g p) then ff (* should not happen: scheduler orders by readiness *)
  else if g.lat.(p) > 1 then ff
  else if g.node_finish.(p) = step then (
    let v = lookup p in
    if v = neg_infinity then ff else v)
  else ff

let source_arrival g ~step e = source_arrival_with g ~step ~lookup:(arrival_raw g) e

(* The loops below keep their float accumulators in local variables,
   which the compiler leaves unboxed: a fold's closure would box one
   float per edge on the propagation's hottest path *)
let guard_arrival_with g ~step ~lookup (op : Dfg.op) =
  if Guard.is_always op.Dfg.guard then 0.0
  else begin
    let ff = g.lib.Library.ff_clk_q in
    let gp = g.gpreds.(op.Dfg.id) in
    let acc = ref 0.0 in
    for k = 0 to Array.length gp - 1 do
      let p = gp.(k) in
      let a =
        if (not g.member.(p)) || not (placed g p) then ff
        else if g.node_finish.(p) = step then (
          let v = lookup p in
          if v = neg_infinity then ff else v)
        else ff
      in
      if a > !acc then acc := a
    done;
    !acc
  end

let guard_arrival g ~step op = guard_arrival_with g ~step ~lookup:(arrival_raw g) op

let source_arrivals g (op : Dfg.op) ~step (srcs : float array) =
  let rec fill k = function
    | [] -> ()
    | e :: rest ->
        srcs.(k) <- source_arrival g ~step e;
        fill (k + 1) rest
  in
  fill 0 (Dfg.in_edges g.dfg op.Dfg.id)

let input_mux g u port =
  let d = g.unit_mux.(u) in
  if port < Array.length d then d.(port) else g.mux_fill u port

let[@inline] exec_delay g (op : Dfg.op) u =
  if u >= 0 then g.unit_delay.(u)
  else begin
    let id = op.Dfg.id in
    if Float.is_nan g.node_delay.(id) then
      g.node_delay.(id) <-
        (match Resource.of_op g.dfg op with None -> 0.0 | Some rt -> Library.delay g.lib rt);
    g.node_delay.(id)
  end

let[@inline] arrival_base g (op : Dfg.op) (ins : Dfg.edge list) =
  match op.Dfg.kind with
  | Opkind.Const _ -> 0.0
  | Opkind.Read _ -> g.lib.Library.ff_clk_q
  | _ -> if ins = [] then g.lib.Library.ff_clk_q else 0.0

let compute_with g ~lookup (op : Dfg.op) ~step ~u =
  let ins = Dfg.in_edges g.dfg op.Dfg.id in
  let muxed = g.priced && u >= 0 in
  let data = ref (arrival_base g op ins) and rest = ref ins in
  while
    match !rest with
    | [] -> false
    | e :: tl ->
        rest := tl;
        let a = source_arrival_with g ~step ~lookup e in
        (* [input_mux], written out: its result would come back boxed *)
        let a =
          if muxed then
            let d = g.unit_mux.(u) in
            a +. if e.Dfg.port < Array.length d then d.(e.Dfg.port) else g.mux_fill u e.Dfg.port
          else a
        in
        data := fmax !data a;
        true
  do
    ()
  done;
  !data +. exec_delay g op u

let own_data g (op : Dfg.op) ~(srcs : float array) ~inputs =
  let mux = Library.mux_delay g.lib ~inputs in
  let ins = Dfg.in_edges g.dfg op.Dfg.id in
  let acc = ref (arrival_base g op ins) in
  for k = 0 to List.length ins - 1 do
    let a = srcs.(k) in
    acc := fmax !acc (if g.priced then a +. mux else a)
  done;
  !acc

let[@inline] slack_of g ~arrival ~guard =
  let arr = if arrival = neg_infinity then 0.0 else arrival in
  let reg_path = if g.priced then g.reg_mux else 0.0 in
  g.clock_ps -. (fmax arr guard +. reg_path +. g.lib.Library.ff_setup)

(* the guard drives the commit register's enable in parallel with the
   datapath, so it meets the data only here *)
let endpoint_slack g id =
  let op = Dfg.find g.dfg id in
  let gd = if placed g id then guard_arrival g ~step:g.node_finish.(id) op else 0.0 in
  slack_of g ~arrival:(arrival_raw g id) ~guard:gd

let recompute_arrival g id =
  g.n_queries <- g.n_queries + 1;
  let v =
    compute_with g ~lookup:(arrival_raw g) (Dfg.find g.dfg id) ~step:g.node_step.(id)
      ~u:g.node_unit.(id)
  in
  let old = arrival_raw g id in
  set_arrival g id v;
  g.slack.(id) <- endpoint_slack g id;
  if g.noting && not g.trial_on then g.note id;
  old = neg_infinity || abs_float (old -. v) > 0.001

(** {2 Propagation} *)

let wl_reset g =
  g.wl_head <- 0;
  g.wl_tail <- 0;
  g.prop_gen <- g.prop_gen + 1

let wl_push g id =
  (* dedup: a node already pending is recomputed once, with its inputs
     settled — the monotone max-fixpoint makes the result identical *)
  if g.in_wl.(id) <> g.prop_gen then begin
    g.in_wl.(id) <- g.prop_gen;
    (if g.wl_tail = Array.length g.wl then
       if g.wl_head > 0 then begin
         Array.blit g.wl g.wl_head g.wl 0 (g.wl_tail - g.wl_head);
         g.wl_tail <- g.wl_tail - g.wl_head;
         g.wl_head <- 0
       end
       else begin
         let a = Array.make (2 * Array.length g.wl) 0 in
         Array.blit g.wl 0 a 0 g.wl_tail;
         g.wl <- a
       end);
    g.wl.(g.wl_tail) <- id;
    g.wl_tail <- g.wl_tail + 1
  end

let wl_pop g =
  let id = g.wl.(g.wl_head) in
  g.wl_head <- g.wl_head + 1;
  g.in_wl.(id) <- 0;
  id

(* Arrivals only grow inside a trial (mux growth and new chains), so
   every node's last recomputation is its settled value and the returned
   worst slack equals the full-fanout walk's.  The worst node lets the
   caller tell a failure of the new binding itself from collateral damage
   to nodes already bound (a saturated instance). *)
let propagate g seeds =
  let worst = ref infinity in
  let worst_op = ref (-1) in
  wl_reset g;
  List.iter (wl_push g) seeds;
  while g.wl_head < g.wl_tail do
    let id = wl_pop g in
    g.n_visits <- g.n_visits + 1;
    if placed g id then begin
      let changed = recompute_arrival g id in
      let slack = g.slack.(id) in
      if slack < !worst then begin
        worst := slack;
        worst_op := id
      end;
      if changed then begin
        let fstep = g.node_finish.(id) in
        let outs = g.out0.(id) in
        for k = 0 to Array.length outs - 1 do
          let dst = outs.(k) in
          if placed g dst && g.node_step.(dst) = fstep then wl_push g dst
        done;
        let b = g.gslots.(id) in
        if b.b_gen = g.pass then
          for k = 0 to b.b_len - 1 do
            let x = b.b_a.(k) in
            if placed g x && g.node_step.(x) = fstep then wl_push g x
          done
      end
    end
  done;
  (!worst, !worst_op)

(* placed nodes in (step, id) order *)
let by_step g =
  let acc = ref [] in
  for id = Array.length g.node_pass - 1 downto 0 do
    if placed g id then acc := (g.node_step.(id), id) :: !acc
  done;
  List.stable_sort (fun ((s : int), _) (s', _) -> Int.compare s s') !acc |> List.map snd

let recompute_all g = ignore (propagate g (by_step g))

let price_muxes g =
  if not g.priced then begin
    g.priced <- true;
    recompute_all g
  end

let worst_slack g =
  let w = ref infinity in
  for id = 0 to Array.length g.node_pass - 1 do
    if placed g id then w := fmin !w (endpoint_slack g id)
  done;
  !w

(** {2 Worst paths} *)

let worst_paths g ~endpoints ~rtype : Synthesize.report =
  let paths =
    List.filter_map
      (fun endpoint ->
        let step = g.node_finish.(endpoint) in
        let fixed = ref (g.reg_mux +. g.lib.Library.ff_setup) in
        let elems = ref [] in
        let rec back id =
          let op = Dfg.find g.dfg id in
          let u = g.node_unit.(id) in
          (if u >= 0 then
             let rt = rtype u in
             elems :=
               { Synthesize.pe_inst = u; pe_rtype = rt; pe_nominal = Library.delay g.lib rt } :: !elems);
          (* find dominant input *)
          let best = ref None in
          List.iter
            (fun e ->
              let a = source_arrival g ~step e in
              let mux = if u >= 0 then input_mux g u e.Dfg.port else 0.0 in
              let tot = a +. mux in
              match !best with
              | Some (_, _, bt) when bt >= tot -> ()
              | _ -> best := Some (e, mux, tot))
            (Dfg.in_edges g.dfg id);
          match !best with
          | None ->
              fixed :=
                !fixed +. (match op.Dfg.kind with Opkind.Const _ -> 0.0 | _ -> g.lib.Library.ff_clk_q)
          | Some (e, mux, _) ->
              fixed := !fixed +. mux;
              let p = e.Dfg.src in
              let chained =
                e.Dfg.distance = 0 && g.member.(p) && placed g p
                && g.node_finish.(p) = step
                && g.lat.(p) <= 1
              in
              if chained then back p else fixed := !fixed +. g.lib.Library.ff_clk_q
        in
        back endpoint;
        if !elems = [] then None
        else
          Some
            {
              Synthesize.p_endpoint = (Dfg.find g.dfg endpoint).Dfg.name;
              p_step = step;
              p_fixed = !fixed;
              p_elems = !elems;
            })
      endpoints
  in
  { Synthesize.r_clock_ps = g.clock_ps; r_paths = paths }

(** {2 Reference evaluator — the oracle} *)

(* sweeps the placed nodes in (step, id) order to a fixpoint, so
   same-step chains settle regardless of id order *)
let reference_arrivals g =
  let r : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let ids = by_step g in
  let lookup p = match Hashtbl.find_opt r p with Some v -> v | None -> neg_infinity in
  let sweep () =
    List.fold_left
      (fun changed id ->
        let v =
          compute_with g ~lookup (Dfg.find g.dfg id) ~step:g.node_step.(id) ~u:g.node_unit.(id)
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

let reference_deviation g =
  let r = reference_arrivals g in
  let dev = ref 0.0 in
  for id = 0 to Array.length g.node_pass - 1 do
    if placed g id then begin
      let d =
        match (Hashtbl.find_opt r id, arrival g id) with
        | Some r, Some a -> abs_float (r -. a)
        | Some r, None -> abs_float r
        | None, Some a -> abs_float a
        | None, None -> 0.0
      in
      dev := fmax !dev d
    end
  done;
  !dev
