(** DFG optimizer (the "optimizer" box of the paper's Fig. 2).

    "The goal of the optimizer is to simplify the DFG and CFG as much as
    possible, by applying standard compiler optimizations, such as constant
    propagation, operand width reduction, operation strength reduction,
    etc."  Elaboration keeps no CFG (see {!Hls_ir.Cdfg}), so here that
    means the DFG and its region-membership lists.  The passes here:

    - {!constant_fold}: operations whose inputs are all constants are
      replaced by constants (iterated to a fixpoint by {!run});
    - {!simplify}: algebraic identities ([x*1], [x+0], [x&0], [mux(c,a,a)],
      …) and operation strength reduction ([x * 2^k] → [x << k]);
    - {!cse}: structurally identical operations (same kind, inputs and
      guard, within the same scheduling region) are merged;
    - {!dce}: operations with no observable effect are deleted;
    - {!collapse_wires}: chains of width-conversion wires ([sext] of
      [sext], [slice] of [slice], conversions to the producer's own width)
      are collapsed.

    The fork/join-removing branch predication transform of Fig. 4 lives in
    the frontend ({!Hls_frontend.Desugar.balance_if} for wait-bearing
    conditionals, guard attachment in {!Hls_frontend.Elaborate} for
    wait-free ones), because value merging needs elaboration-time variable
    maps.

    Every pass operates on an {!Hls_frontend.Elaborate.t} and keeps its
    region-membership lists consistent. *)

open Hls_ir
open Hls_frontend

type stats = {
  mutable folded : int;
  mutable simplified : int;
  mutable merged : int;
  mutable deleted : int;
  mutable collapsed : int;
  mutable narrowed : int;
}

let new_stats () =
  { folded = 0; simplified = 0; merged = 0; deleted = 0; collapsed = 0; narrowed = 0 }

let total s = s.folded + s.simplified + s.merged + s.deleted + s.collapsed + s.narrowed

(* membership bookkeeping -------------------------------------------------- *)

type env = {
  elab : Elaborate.t;
  dfg : Dfg.t;
  member_of : (int, [ `Pre | `Loop | `Post ]) Hashtbl.t;
  mutable extra : (int * [ `Pre | `Loop | `Post ]) list;  (** ops added by passes *)
  mutable removed : (int, unit) Hashtbl.t;
}

let make_env (elab : Elaborate.t) =
  let member_of = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace member_of id `Pre) elab.Elaborate.pre_members;
  (match elab.Elaborate.loop with
  | Some li -> List.iter (fun id -> Hashtbl.replace member_of id `Loop) li.Elaborate.li_members
  | None -> ());
  List.iter (fun id -> Hashtbl.replace member_of id `Post) elab.Elaborate.post_members;
  { elab; dfg = elab.Elaborate.cdfg.Cdfg.dfg; member_of; extra = []; removed = Hashtbl.create 16 }

let region_of env id = Hashtbl.find_opt env.member_of id

(** Rebuild the [Elaborate.t] membership lists after passes ran. *)
let commit env : Elaborate.t =
  List.iter (fun (id, r) -> Hashtbl.replace env.member_of id r) env.extra;
  Hashtbl.iter (fun id () -> Hashtbl.remove env.member_of id) env.removed;
  let members r =
    Hashtbl.fold (fun id r' acc -> if r' = r && Dfg.mem env.dfg id then id :: acc else acc)
      env.member_of []
    |> List.sort compare
  in
  let elab = env.elab in
  {
    elab with
    Elaborate.pre_members = members `Pre;
    loop =
      Option.map (fun li -> { li with Elaborate.li_members = members `Loop }) elab.Elaborate.loop;
    post_members = members `Post;
  }

(** Replace every use of [old_id] by [by], remove [old_id]. *)
let subsume env ~old_id ~by =
  Dfg.replace_uses env.dfg ~old_id ~by;
  Dfg.remove_op env.dfg old_id;
  Hashtbl.replace env.removed old_id ()

(* side-effect / liveness roots ------------------------------------------- *)

let is_root env (op : Dfg.op) =
  match op.Dfg.kind with
  | Opkind.Write _ -> true
  | _ -> (
      let used_as_cond id =
        match env.elab.Elaborate.loop with
        | Some li ->
            li.Elaborate.li_continue = Some id
            || li.Elaborate.li_stall = Some id
            || List.exists (fun (_, m) -> m = id) li.Elaborate.li_carried
        | None -> false
      in
      used_as_cond op.Dfg.id)

(* passes ------------------------------------------------------------------ *)

let constant_fold env stats =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (op : Dfg.op) ->
        if Dfg.mem env.dfg op.Dfg.id && Guard.is_always op.Dfg.guard then
          match op.Dfg.kind with
          | Opkind.Const _ | Opkind.Read _ | Opkind.Write _ | Opkind.Loop_mux | Opkind.Call _ -> ()
          | kind -> (
              let ins = Dfg.in_edges env.dfg op.Dfg.id in
              let const_in e =
                match (Dfg.find env.dfg e.Dfg.src).Dfg.kind with
                | Opkind.Const n -> Some n
                | _ -> None
              in
              match List.map const_in ins with
              | args when args <> [] && List.for_all Option.is_some args -> (
                  let args = List.map Option.get args in
                  match Opkind.eval_pure kind args with
                  | Some v ->
                      let v = Width.truncate ~width:op.Dfg.width v in
                      let c =
                        Dfg.add_op env.dfg (Opkind.Const v)
                          ~width:(max op.Dfg.width (Width.bits_for_signed v))
                          ~name:(Printf.sprintf "c%d" v)
                      in
                      (match region_of env op.Dfg.id with
                      | Some r -> env.extra <- (c.Dfg.id, r) :: env.extra
                      | None -> ());
                      subsume env ~old_id:op.Dfg.id ~by:c.Dfg.id;
                      stats.folded <- stats.folded + 1;
                      changed := true
                  | None -> ())
              | _ -> ()))
      (Dfg.ops env.dfg)
  done

let simplify env stats =
  let const_of id =
    match (Dfg.find env.dfg id).Dfg.kind with Opkind.Const n -> Some n | _ -> None
  in
  let is_pow2 n = n > 0 && n land (n - 1) = 0 in
  let log2 n =
    let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
    go 0 n
  in
  List.iter
    (fun (op : Dfg.op) ->
      if Dfg.mem env.dfg op.Dfg.id then
        let ins = Dfg.in_edges env.dfg op.Dfg.id in
        let input i = List.nth_opt ins i in
        let src i = Option.map (fun e -> e.Dfg.src) (input i) in
        let redirect_to id =
          subsume env ~old_id:op.Dfg.id ~by:id;
          stats.simplified <- stats.simplified + 1
        in
        match (op.Dfg.kind, src 0, src 1) with
        | Opkind.Bin Opkind.Mul, Some a, Some b -> (
            match (const_of a, const_of b) with
            | Some 1, _ -> redirect_to b
            | _, Some 1 -> redirect_to a
            | Some 0, _ | _, Some 0 ->
                let c = Dfg.add_op env.dfg (Opkind.Const 0) ~width:1 ~name:"c0" in
                (match region_of env op.Dfg.id with
                | Some r -> env.extra <- (c.Dfg.id, r) :: env.extra
                | None -> ());
                redirect_to c.Dfg.id
            | _, Some n when is_pow2 n && Guard.is_always op.Dfg.guard ->
                (* strength reduction: x * 2^k -> x << k *)
                let k = log2 n in
                let sh =
                  Dfg.add_op env.dfg (Opkind.Bin Opkind.Shl) ~width:op.Dfg.width
                    ~guard:op.Dfg.guard ~name:(Printf.sprintf "shl%d" k)
                in
                let kc = Dfg.add_op env.dfg (Opkind.Const k) ~width:(Width.bits_for_signed k) ~name:"shamt" in
                Dfg.connect env.dfg ~src:a ~dst:sh.Dfg.id ~port:0;
                Dfg.connect env.dfg ~src:kc.Dfg.id ~dst:sh.Dfg.id ~port:1;
                (match region_of env op.Dfg.id with
                | Some r ->
                    env.extra <- (sh.Dfg.id, r) :: (kc.Dfg.id, r) :: env.extra
                | None -> ());
                redirect_to sh.Dfg.id
            | _ -> ())
        | Opkind.Bin Opkind.Add, Some a, Some b -> (
            match (const_of a, const_of b) with
            | Some 0, _ -> redirect_to b
            | _, Some 0 -> redirect_to a
            | _ -> ())
        | Opkind.Bin Opkind.Sub, Some a, Some b -> (
            match const_of b with
            | Some 0 -> redirect_to a
            | _ -> if a = b then () (* x - x: folded only when widths align; skip *))
        | Opkind.Bin Opkind.Band, Some _, Some b -> (
            match const_of b with Some 0 -> redirect_to b | _ -> ())
        | Opkind.Bin Opkind.Bor, Some a, Some b -> (
            match (const_of a, const_of b) with
            | Some 0, _ -> redirect_to b
            | _, Some 0 -> redirect_to a
            | _ -> ())
        | Opkind.Mux, _, Some a -> (
            (* mux(c, a, a) -> a *)
            match src 2 with
            | Some b when a = b -> redirect_to a
            | _ -> ())
        | _ -> ())
    (Dfg.ops env.dfg)

let cse env stats =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (op : Dfg.op) ->
      if Dfg.mem env.dfg op.Dfg.id then
        match op.Dfg.kind with
        | Opkind.Read _ | Opkind.Write _ | Opkind.Loop_mux | Opkind.Call _ -> ()
        | kind ->
            let ins =
              List.map (fun e -> (e.Dfg.port, e.Dfg.src, e.Dfg.distance)) (Dfg.in_edges env.dfg op.Dfg.id)
            in
            let key = (kind, ins, op.Dfg.guard, region_of env op.Dfg.id, op.Dfg.width) in
            (match Hashtbl.find_opt seen key with
            | Some keeper when keeper <> op.Dfg.id ->
                subsume env ~old_id:op.Dfg.id ~by:keeper;
                stats.merged <- stats.merged + 1
            | Some _ -> ()
            | None -> Hashtbl.replace seen key op.Dfg.id))
    (Dfg.ops env.dfg)

let dce env stats =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (op : Dfg.op) ->
        if
          Dfg.mem env.dfg op.Dfg.id
          && (not (is_root env op))
          && Dfg.out_edges env.dfg op.Dfg.id = []
          && (* not used as a guard predicate anywhere *)
          not
            (List.exists
               (fun o -> List.mem op.Dfg.id (Guard.preds o.Dfg.guard))
               (Dfg.ops env.dfg))
        then begin
          Dfg.remove_op env.dfg op.Dfg.id;
          Hashtbl.replace env.removed op.Dfg.id ();
          stats.deleted <- stats.deleted + 1;
          changed := true
        end)
      (Dfg.ops env.dfg)
  done

let collapse_wires env stats =
  List.iter
    (fun (op : Dfg.op) ->
      if Dfg.mem env.dfg op.Dfg.id then
        match (op.Dfg.kind, Dfg.in_edges env.dfg op.Dfg.id) with
        | (Opkind.Sext w, [ e ]) when e.Dfg.distance = 0 ->
            let p = Dfg.find env.dfg e.Dfg.src in
            if p.Dfg.width = w then begin
              (* conversion to the producer's own width *)
              subsume env ~old_id:op.Dfg.id ~by:p.Dfg.id;
              stats.collapsed <- stats.collapsed + 1
            end
        | (Opkind.Slice (hi, lo), [ e ]) when e.Dfg.distance = 0 ->
            let p = Dfg.find env.dfg e.Dfg.src in
            if lo = 0 && hi = p.Dfg.width - 1 then begin
              subsume env ~old_id:op.Dfg.id ~by:p.Dfg.id;
              stats.collapsed <- stats.collapsed + 1
            end
        | _ -> ())
    (Dfg.ops env.dfg)

(* Operand width reduction (named explicitly by the paper's optimizer
   list).  Backward demand analysis: the low [w] result bits of the
   truncating arithmetic operations depend only on the low [w] bits of
   their operands, so a producer whose every consumer uses at most [w]
   low bits can shrink to [w].  Order-sensitive consumers (comparisons,
   shifts, sign extensions, mux selects, guards, loop-carried reads,
   region-crossing uses) demand the full width. *)
let width_reduce env stats =
  let demands = Hashtbl.create 64 in
  let full_demand = Hashtbl.create 64 in
  let note id bits =
    let cur = Option.value (Hashtbl.find_opt demands id) ~default:0 in
    if bits > cur then Hashtbl.replace demands id bits
  in
  let guard_preds = Hashtbl.create 16 in
  List.iter
    (fun (o : Dfg.op) ->
      List.iter (fun p -> Hashtbl.replace guard_preds p ()) (Guard.preds o.Dfg.guard))
    (Dfg.ops env.dfg);
  List.iter
    (fun (op : Dfg.op) ->
      List.iter
        (fun e ->
          let src = e.Dfg.src in
          if e.Dfg.distance > 0 then Hashtbl.replace full_demand src ()
          else
            match op.Dfg.kind with
            | Opkind.Bin (Opkind.Add | Opkind.Sub | Opkind.Mul | Opkind.Band | Opkind.Bor | Opkind.Bxor) ->
                note src op.Dfg.width
            | Opkind.Slice (hi, _) -> note src (hi + 1)
            | Opkind.Write _ -> note src op.Dfg.width
            | Opkind.Mux when e.Dfg.port > 0 -> note src op.Dfg.width
            | _ -> Hashtbl.replace full_demand src ())
        (Dfg.in_edges env.dfg op.Dfg.id))
    (Dfg.ops env.dfg);
  List.iter
    (fun (op : Dfg.op) ->
      if
        (not (Hashtbl.mem full_demand op.Dfg.id))
        && (not (Hashtbl.mem guard_preds op.Dfg.id))
        && (not (is_root env op))
        && Dfg.out_edges env.dfg op.Dfg.id <> []
      then
        match op.Dfg.kind with
        | Opkind.Bin (Opkind.Add | Opkind.Sub | Opkind.Mul | Opkind.Band | Opkind.Bor | Opkind.Bxor) -> (
            match Hashtbl.find_opt demands op.Dfg.id with
            | Some d when d < op.Dfg.width && d >= 1 ->
                op.Dfg.width <- d;
                stats.narrowed <- stats.narrowed + 1
            | _ -> ())
        | _ -> ())
    (Dfg.ops env.dfg)

(** Run all passes to a (bounded) fixpoint; returns the updated elaboration
    and cumulative statistics. *)
let run ?(max_rounds = 8) (elab : Elaborate.t) : Elaborate.t * stats =
  let stats = new_stats () in
  let env = ref (make_env elab) in
  let rec go round last_total =
    constant_fold !env stats;
    simplify !env stats;
    collapse_wires !env stats;
    cse !env stats;
    dce !env stats;
    width_reduce !env stats;
    let elab' = commit !env in
    if total stats > last_total && round < max_rounds then begin
      env := make_env elab';
      go (round + 1) (total stats)
    end
    else elab'
  in
  let elab' = go 1 0 in
  (elab', stats)
