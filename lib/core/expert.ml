(** The relaxation expert system (Sections IV.B and V).

    When a scheduling pass fails, the restraints it recorded are analyzed
    and a corrective action is chosen: "Each restraint suggests a set of
    actions ... Every action has an estimated cost, which is combined with
    the number of restraints solved by this action and the restraint
    weight.  The action with the best estimated gain wins."

    Actions (the portfolio of the paper):
    - [Add_state] — grow the latency interval (where the designer's bound
      permits);
    - [Add_resource] — add an instance of a resource type, {e only} when
      the expert's timing estimate says the failing op would then fit (this
      is how the paper's Example 1 knows that a second multiplier "does not
      help because two multiplications cannot fit in the given clock
      cycle");
    - [Move_scc] — the novel pipelining action: move a whole strongly
      connected component to the next pipeline stage when a member fails
      ("this failure is distinguished from an ordinary negative slack
      failure");
    - [Forbid] — exclude an (op, instance) pair that closed a structural
      combinational cycle.

    The paper's fifth action, taking a guard off an op's commit path, is
    not modelled: a guard here arrives with its condition op's committed
    arrival, which already passed the same endpoint check, so no failure
    is the guard's alone (EXPERIMENTS.md, known delta 7). *)

open Hls_ir
open Hls_techlib

type action =
  | Add_state
  | Add_resource of Resource.t * int  (** type and how many instances *)
  | Move_scc of int  (** SCC index; moves its stage assignment one later *)
  | Forbid of int * int

(* cap on actions returned per pass by [choose_many]: the winner plus at
   most [max_batch - 1] batched runner-ups *)
let max_batch = 8

let action_to_string = function
  | Add_state -> "add_state"
  | Add_resource (rt, n) -> Printf.sprintf "add_resource(%dx %s)" n (Resource.to_string rt)
  | Move_scc k -> Printf.sprintf "move_scc(#%d)" k
  | Forbid (op, inst) -> Printf.sprintf "forbid(op %d, inst %d)" op inst

(** Downstream cone (distance-0) of a set of ops, including the ops. *)
let downstream dfg ops =
  let seen = Hashtbl.create 32 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter (fun e -> if e.Dfg.distance = 0 then go e.Dfg.dst) (Dfg.out_edges dfg id)
    end
  in
  List.iter go ops;
  seen

type scored = { sc_action : action; sc_gain : float; sc_cost : float }

let score s = s.sc_gain /. (0.5 +. s.sc_cost)

(** Choose the best corrective action, or [None] when the portfolio is
    exhausted (the specification is overconstrained).

    [scc_of op] maps an op to its SCC index (if any); [scc_stage k] is the
    stage the SCC currently occupies; [n_stages] bounds SCC moves.
    [scc_move = false] (the Table 4 ablation) proposes no SCC move. *)
let choose ~scc_move ~(binding : Binding.t) ~(region : Region.t)
    ~(restraints : Restraint.t list) ~(sccs : int list list) ~(scc_of : int -> int option)
    ~(scc_stage : int -> int) : (action * string) option =
  let dfg = region.Region.dfg in
  let restraints = Restraint.weight_by_proximity dfg restraints in
  (* the decision is driven by the failures and their fan-in cones; plain
     deferral noise (a busy attempt that succeeded later elsewhere) would
     otherwise swamp the gains *)
  let restraints =
    List.filter (fun (r : Restraint.t) -> r.Restraint.r_fatal || r.Restraint.r_weight > 0.35) restraints
  in
  let candidates = ref [] in
  let push a = candidates := a :: !candidates in
  (* --- Add_state ---
     More states help congestion (busy resources, too-small windows,
     inter-iteration pressure) and chaining-induced negative slack — but
     not slack caused by saturated sharing muxes, where every compatible
     instance is already too slow even from registers. *)
  if region.Region.n_steps < region.Region.max_steps then begin
    let gain =
      List.fold_left
        (fun acc (r : Restraint.t) ->
          let scale = if r.Restraint.r_fatal then 1.0 else 0.2 in
          match r.Restraint.r_fail with
          | Restraint.F_busy _ | Restraint.F_window | Restraint.F_dep ->
              acc +. (scale *. r.Restraint.r_weight)
          | Restraint.F_slack _ ->
              let op = Dfg.find dfg r.Restraint.r_op in
              if Binding.would_fit_existing binding op then acc +. (scale *. r.Restraint.r_weight)
              else acc
          | Restraint.F_cycle _ -> acc +. (0.5 *. scale *. r.Restraint.r_weight)
          | Restraint.F_blocked | Restraint.F_no_resource _ | Restraint.F_forbidden
          | Restraint.F_anchor ->
              acc)
        0.0 restraints
    in
    if gain > 0.0 then push { sc_action = Add_state; sc_gain = gain; sc_cost = 1.0 }
  end;
  (* --- Add_resource ---
     Credited by busy/missing-resource and forbidden-pair restraints a
     fresh instance would satisfy, and by negative-slack restraints whose
     op no longer fits any existing instance (saturated sharing muxes) but
     would fit a fresh one. *)
  begin
    let by_type = Hashtbl.create 4 in
    let credit rt w =
      let key = Resource.to_string rt in
      let cur = match Hashtbl.find_opt by_type key with Some (g, _) -> g | None -> 0.0 in
      Hashtbl.replace by_type key (cur +. w, rt)
    in
    List.iter
      (fun (r : Restraint.t) ->
        let op = Dfg.find dfg r.Restraint.r_op in
        match r.Restraint.r_fail with
        | Restraint.F_busy rt | Restraint.F_no_resource rt ->
            (* only count restraints a fresh instance would actually solve *)
            if Binding.would_fit binding op ~step:r.Restraint.r_step
            then credit rt r.Restraint.r_weight
        | Restraint.F_forbidden ->
            if Binding.would_fit binding op ~step:r.Restraint.r_step then
              Option.iter (fun rt -> credit rt r.Restraint.r_weight) (Resource.of_op dfg op)
        | Restraint.F_slack _ ->
            if
              (not (Binding.would_fit_existing binding op))
              && Binding.would_fit binding op ~step:r.Restraint.r_step
            then
              Option.iter (fun rt -> credit rt r.Restraint.r_weight) (Resource.of_op dfg op)
        | _ -> ())
      restraints;
    let area_unit =
      Library.area binding.Binding.lib
        { Resource.rclass = Opkind.R_addsub; in_widths = [ 32; 32 ]; out_width = 32 }
    in
    Hashtbl.iter
      (fun _ (gain, rt) ->
        if gain > 0.0 then begin
          (* batch the addition: roughly one instance per handful of
             starved operations, so large designs converge in passes
             proportional to log of the shortfall, not to the shortfall *)
          let n = max 1 (min 8 (int_of_float (gain /. 4.0))) in
          push
            {
              sc_action = Add_resource (rt, n);
              sc_gain = gain;
              sc_cost = 0.4 +. (float_of_int n *. Library.area binding.Binding.lib rt /. area_unit /. 10.0);
            }
        end)
      by_type
  end;
  (* --- Move_scc --- *)
  if scc_move && Region.is_pipelined region then begin
    let n_stages = Region.n_stages region in
    (* the downstream cone is only consulted for F_blocked restraints, and
       computing it is O(region) per SCC — build it lazily so the common
       blocked-free pass costs O(restraints) per SCC, not O(region) *)
    let has_blocked =
      List.exists
        (fun (r : Restraint.t) ->
          match r.Restraint.r_fail with Restraint.F_blocked -> true | _ -> false)
        restraints
    in
    List.iteri
      (fun k scc_ops ->
        let stage = scc_stage k in
        if stage + 1 <= n_stages - 1 then begin
          let cone = if has_blocked then lazy (downstream dfg scc_ops) else lazy (Hashtbl.create 1) in
          let gain =
            List.fold_left
              (fun acc (r : Restraint.t) ->
                match r.Restraint.r_fail with
                | Restraint.F_slack _ | Restraint.F_window | Restraint.F_dep ->
                    if scc_of r.Restraint.r_op = Some k then acc +. (2.0 *. r.Restraint.r_weight)
                    else acc
                | Restraint.F_blocked ->
                    if Hashtbl.mem (Lazy.force cone) r.Restraint.r_op then
                      acc +. r.Restraint.r_weight
                    else acc
                | _ -> acc)
              0.0 restraints
          in
          if gain > 0.0 then push { sc_action = Move_scc k; sc_gain = gain; sc_cost = 0.2 }
        end)
      sccs
  end;
  (* --- Forbid --- *)
  List.iter
    (fun (r : Restraint.t) ->
      match r.Restraint.r_fail with
      | Restraint.F_cycle inst ->
          push
            {
              sc_action = Forbid (r.Restraint.r_op, inst);
              sc_gain = r.Restraint.r_weight;
              sc_cost = 0.3;
            }
      | _ -> ())
    restraints;
  match !candidates with
  | [] -> None
  | cs ->
      let best = List.fold_left (fun a b -> if score b > score a then b else a) (List.hd cs) (List.tl cs) in
      let why =
        Printf.sprintf "%s (gain %.2f, cost %.2f, %d restraints)"
          (action_to_string best.sc_action)
          best.sc_gain best.sc_cost (List.length restraints)
      in
      Some (best.sc_action, why)

(** Batched variant for large designs: the winning action plus independent
    runner-ups of the same kind — distinct starving resource types, or
    distinct failing SCCs (a design with many small recurrences would
    otherwise burn one pass per move).  Other action kinds stay
    exclusive. *)
let choose_many ~scc_move ~binding ~region ~restraints ~sccs ~scc_of ~scc_stage :
    (action * string) list =
  match choose ~scc_move ~binding ~region ~restraints ~sccs ~scc_of ~scc_stage with
  | None -> []
  | Some ((Move_scc k0, _) as first) ->
      (* gather every other SCC with fatal window/slack/dep restraints that
         can still move *)
      let n_stages = Region.n_stages region in
      let gains = Hashtbl.create 8 in
      List.iter
        (fun (r : Restraint.t) ->
          match r.Restraint.r_fail with
          | Restraint.F_slack _ | Restraint.F_window | Restraint.F_dep -> (
              match scc_of r.Restraint.r_op with
              | Some k when k <> k0 && scc_stage k + 1 <= n_stages - 1 ->
                  Hashtbl.replace gains k
                    (Option.value (Hashtbl.find_opt gains k) ~default:0.0
                    +. (2.0 *. r.Restraint.r_weight))
              | _ -> ())
          | _ -> ())
        restraints;
      let extra =
        Hashtbl.fold
          (fun k g acc ->
            if g >= 2.0 then
              (Move_scc k, Printf.sprintf "move_scc(#%d) (batched, gain %.2f)" k g) :: acc
            else acc)
          gains []
      in
      first :: List.filteri (fun i _ -> i < max_batch - 1) extra
  | Some ((Add_resource _, _) as first) ->
      (* re-run the scoring to collect the runner-up resource additions *)
      let extra = ref [] in
      (* cheap approach: ask again with the winner's type excluded is not
         expressible; instead reuse [choose]'s internals by scoring busy
         restraint types directly *)
      let by_type = Hashtbl.create 4 in
      List.iter
        (fun (r : Restraint.t) ->
          match r.Restraint.r_fail with
          | Restraint.F_busy rt | Restraint.F_no_resource rt ->
              if r.Restraint.r_fatal then begin
                let key = Resource.to_string rt in
                let cur = match Hashtbl.find_opt by_type key with Some (g, _) -> g | None -> 0.0 in
                Hashtbl.replace by_type key (cur +. r.Restraint.r_weight, rt)
              end
          | _ -> ())
        restraints;
      let first_key =
        match fst first with Add_resource (rt, _) -> Resource.to_string rt | _ -> ""
      in
      Hashtbl.iter
        (fun key (gain, rt) ->
          if key <> first_key && gain >= 2.0 then
            let n = max 1 (min 8 (int_of_float (gain /. 4.0))) in
            extra :=
              ( Add_resource (rt, n),
                Printf.sprintf "add_resource(%dx %s) (batched, gain %.2f)" n
                  (Resource.to_string rt) gain )
              :: !extra)
        by_type;
      first :: List.filteri (fun i _ -> i < max_batch - 1) !extra
  | Some a -> [ a ]
