(** Restraints: the failure-analysis records of the pass scheduler.

    "The history of the scheduling pass is recorded in a set of restraints,
    which are issued every time a binding of an operation to an edge and/or
    a resource fails" (Section IV.B).  Restraints are weighted by proximity
    to hard failures; the expert system ({!Expert}) turns them into
    relaxation actions. *)

open Hls_techlib

(** Why a particular (op, step, resource) binding attempt failed. *)
type fail =
  | F_busy of Resource.t  (** all compatible instances occupied (incl. equivalent steps) *)
  | F_forbidden  (** pair excluded by an earlier comb-cycle restraint *)
  | F_cycle of int  (** binding would close a structural comb cycle through instance *)
  | F_slack of float  (** negative slack (ps) of the best attempt *)
  | F_window  (** outside the SCC stage window *)
  | F_dep  (** inter-iteration (modulo) dependency violated *)
  | F_anchor  (** conflicts with a user anchor *)
  | F_no_resource of Resource.t  (** no instance of a compatible type exists at all *)
  | F_blocked  (** never became ready: upstream of a failed op *)

type t = {
  r_op : int;
  r_step : int;
  r_fail : fail;
  r_fatal : bool;  (** issued at the end of the op's life span (a pass-failing op) *)
  mutable r_weight : float;
}

let make ~op ~step ~fail ~fatal =
  { r_op = op; r_step = step; r_fail = fail; r_fatal = fatal; r_weight = (if fatal then 1.0 else 0.3) }

let fail_to_string = function
  | F_busy rt -> Printf.sprintf "busy(%s)" (Resource.to_string rt)
  | F_forbidden -> "forbidden"
  | F_cycle i -> Printf.sprintf "comb_cycle(inst %d)" i
  | F_slack s -> Printf.sprintf "slack(%.0f)" s
  | F_window -> "window"
  | F_dep -> "inter_iteration_dep"
  | F_anchor -> "anchor"
  | F_no_resource rt -> Printf.sprintf "no_resource(%s)" (Resource.to_string rt)
  | F_blocked -> "blocked"

let to_string r =
  Printf.sprintf "op %d @ step %d: %s%s (w=%.1f)" r.r_op r.r_step (fail_to_string r.r_fail)
    (if r.r_fatal then " [fatal]" else "")
    r.r_weight

(** Boost the weights of restraints on ops lying in the fan-in cones of the
    failed operations ("Restraint analysis is done for the fanin cones of
    the failed operations"). *)
let weight_by_proximity (dfg : Hls_ir.Dfg.t) (restraints : t list) =
  (* the cone as one byte per op id: ['\001'] once reached *)
  let cone = Bytes.make (Hls_ir.Dfg.size dfg) '\000' in
  let rec up id =
    if Bytes.get cone id = '\000' then begin
      Bytes.set cone id '\001';
      List.iter (fun e -> if e.Hls_ir.Dfg.distance = 0 then up e.Hls_ir.Dfg.src) (Hls_ir.Dfg.in_edges dfg id)
    end
  in
  List.iter (fun r -> if r.r_fatal then up r.r_op) restraints;
  List.iter
    (fun r -> if (not r.r_fatal) && Bytes.get cone r.r_op <> '\000' then r.r_weight <- r.r_weight +. 0.4)
    restraints;
  restraints
