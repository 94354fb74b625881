(** Pass-invariant scheduling context.  See the interface for what is
    cached and why it is safe: everything here except the priority scores
    is a pure function of the region's DFG, and the scores are tied to the
    physical identity of the interval analysis they were computed from. *)

open Hls_ir
open Hls_techlib

type t = {
  ctx_members : Dfg.op list;
  ctx_n_members : int;
  ctx_preds : int list array;
  ctx_deps : int list array;
  ctx_fanout : int -> int;
  ctx_class_key : int array;
  ctx_n_class_keys : int;
  ctx_blocked_order : int array;
  ctx_scores : float array;
  mutable ctx_scores_aa : Asap_alap.t option;
}

(* the resource class with its operand widths rounded up to 8/16/32/64 *)
let class_key (rt : Resource.t) =
  ( rt.Resource.rclass,
    List.map
      (fun w -> if w <= 8 then 8 else if w <= 16 then 16 else if w <= 32 then 32 else 64)
      rt.Resource.in_widths )

(* The order of the end-of-pass blocked restraints: the iteration order of
   a [Hashtbl] created for the members and filled in member order, which
   is what the expert's list-order tie-breaks have always seen.  The
   leftover ops of a pass are this order filtered (a [Hashtbl] keeps its
   order under removals). *)
let blocked_order members n =
  let h = Hashtbl.create n in
  List.iter (fun o -> Hashtbl.replace h o.Dfg.id ()) members;
  let order = ref [] in
  Hashtbl.iter (fun id () -> order := id :: !order) h;
  Array.of_list (List.rev !order)

let create ~(plan : Asap_alap.plan) (region : Region.t) =
  let members = plan.Asap_alap.p_members in
  let n = Array.length region.Region.members in
  let deps = Array.make n [] and class_keys = Array.make n (-1) in
  (* intern the bucketed class keys to dense ints *)
  let interned = Hashtbl.create 8 in
  List.iter
    (fun o ->
      let id = o.Dfg.id in
      deps.(id) <- List.map fst plan.Asap_alap.p_succs.(id);
      match plan.Asap_alap.p_rtype.(id) with
      | Some rt ->
          let key = class_key rt in
          class_keys.(id) <-
            (match Hashtbl.find_opt interned key with
            | Some k -> k
            | None ->
                let k = Hashtbl.length interned in
                Hashtbl.add interned key k;
                k)
      | None -> ())
    members;
  let n_members = List.length members in
  {
    ctx_members = members;
    ctx_n_members = n_members;
    ctx_preds = plan.Asap_alap.p_preds;
    ctx_deps = deps;
    ctx_fanout = Priority.fanout_table region.Region.dfg;
    ctx_class_key = class_keys;
    ctx_n_class_keys = Hashtbl.length interned;
    ctx_blocked_order = blocked_order members n_members;
    ctx_scores = Array.make n 0.0;
    ctx_scores_aa = None;
  }

let refresh_scores ?(boosts = []) t ~aa =
  match t.ctx_scores_aa with
  | Some prev when prev == aa -> ()
  | _ ->
      List.iter
        (fun o -> t.ctx_scores.(o.Dfg.id) <- Priority.score ~fanout:t.ctx_fanout aa o)
        t.ctx_members;
      (* feedback priority boosts: additive deltas on top of the base
         score.  Constant for the lifetime of a schedule call, so the
         aa-identity memo above stays sound. *)
      List.iter
        (fun (id, delta) ->
          (* a non-member's slot is never read *)
          if id >= 0 && id < Array.length t.ctx_scores then
            t.ctx_scores.(id) <- t.ctx_scores.(id) +. delta)
        boosts;
      t.ctx_scores_aa <- Some aa
