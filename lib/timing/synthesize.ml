(** Downstream logic-synthesis model: turn a post-scheduling timing report
    into a final, timing-feasible area figure.

    The scheduler normally produces bindings with non-negative slack, so
    every resource keeps its nominal area.  When a schedule carries
    negative slack — which happens exactly in the paper's Table 4 ablation,
    where the timing-driven SCC-move action is disabled — logic synthesis
    must "compensate by larger area": each resource on a violating path is
    sped up along the library's delay–area sizing curve until the path
    meets the clock (or the curve's fastest point is reached, leaving a
    residual violation).

    Paths are reported by the scheduler as a fixed (unscalable) component —
    launch clock-to-q, sharing muxes, setup — plus the chain of resource
    instances with their nominal delays.  Sizing scales all resources on a
    violating path by a common factor, and a resource on several paths
    takes the most demanding factor. *)

open Hls_techlib

type path_elem = { pe_inst : int; pe_rtype : Resource.t; pe_nominal : float }

type path = {
  p_endpoint : string;  (** diagnostic: the registered op that ends the path *)
  p_step : int;
  p_fixed : float;  (** ps of unscalable delay on the path *)
  p_elems : path_elem list;
}

type report = { r_clock_ps : float; r_paths : path list }

type result = {
  s_area : float;  (** total post-synthesis resource area *)
  s_per_inst : (int * Resource.t * float * float) list;
      (** instance, type, delay scale factor applied, final area *)
  s_wns : float;  (** worst negative slack remaining (0 when all paths met) *)
  s_feasible : bool;
  s_upsized : int;  (** number of instances that needed speeding up *)
}

let path_nominal p = List.fold_left (fun acc e -> acc +. e.pe_nominal) 0.0 p.p_elems

let path_slack ~clock p ~scale =
  let d = List.fold_left (fun acc e -> acc +. (e.pe_nominal *. scale e.pe_inst)) 0.0 p.p_elems in
  clock -. (p.p_fixed +. d)

(** Run the sizing model.  [lib] provides the per-resource sizing curve. *)
let run (lib : Library.t) (rep : report) : result =
  (* every instance with its type (instance ids are dense from 0) *)
  let n =
    List.fold_left
      (fun m p -> List.fold_left (fun m e -> max m (e.pe_inst + 1)) m p.p_elems)
      0 rep.r_paths
  in
  let rtype = Array.make n None in
  List.iter (fun p -> List.iter (fun e -> rtype.(e.pe_inst) <- Some e.pe_rtype) p.p_elems) rep.r_paths;
  (* demanded scale factor per instance: min over violating paths *)
  let factor = Array.make n 1.0 in
  List.iter
    (fun p ->
      let nominal = path_nominal p in
      let available = rep.r_clock_ps -. p.p_fixed in
      if nominal > available && nominal > 0.0 then begin
        let f = max lib.Library.min_delay_factor (available /. nominal) in
        List.iter (fun e -> if f < factor.(e.pe_inst) then factor.(e.pe_inst) <- f) p.p_elems
      end)
    rep.r_paths;
  let sized i rt =
    let f = factor.(i) in
    let nominal_delay = Library.delay lib rt in
    let required = f *. nominal_delay in
    let area =
      match Library.area_for_delay lib rt ~required with
      | Some a -> a
      | None -> (
          (* fastest sizing: area at the curve's end point *)
          match Library.area_for_delay lib rt ~required:(Library.min_delay lib rt) with
          | Some a -> a
          | None -> Library.area lib rt)
    in
    (i, rt, f, area)
  in
  let per_inst = List.filter_map Fun.id (List.init n (fun i -> Option.map (sized i) rtype.(i))) in
  let scale i = factor.(i) in
  let wns =
    List.fold_left (fun acc p -> min acc (path_slack ~clock:rep.r_clock_ps p ~scale)) 0.0 rep.r_paths
  in
  {
    s_area = List.fold_left (fun acc (_, _, _, a) -> acc +. a) 0.0 per_inst;
    s_per_inst = per_inst;
    s_wns = wns;
    s_feasible = wns >= -1e-9;
    s_upsized = List.length (List.filter (fun (_, _, f, _) -> f < 0.999) per_inst);
  }
