(** Technology library: delay, area and energy characterization of datapath
    resources, plus the "downstream logic synthesis" sizing model.

    This module substitutes for the commercial logic-synthesis engine the
    paper's scheduler queries.  Its reference numbers reproduce Table 1 of
    the paper exactly (artisan_90nm_typical, 32-bit operands):

    {v
      resource   mul  add  gt   neq  ff     mux2  mux3
      delay(ps)  930  350  220  60   40/70  110   115
    v}

    and the worked delay arithmetic of Fig. 8:
    [40 + 110 + 930 + 110 + 40 = 1230 ps].

    Delays scale with operand width as [log2 w / log2 32] (carry-lookahead /
    tree-reduction shapes); areas scale linearly in width (quadratically in
    the product of widths for multipliers).  The {e sizing curve}
    [area_for_delay] models logic synthesis compensating negative slack with
    area: a resource can be sped up to [min_delay_factor] times its nominal
    delay at super-linear area cost — this is what Table 4 measures. *)

open Hls_ir

type blackbox_char = { bb_latency : int; bb_stage_delay : float; bb_area : float; bb_energy : float }

type t = {
  lib_name : string;
  (* reference delays at 32 bits, ps *)
  d_mul : float;
  d_add : float;
  d_cmp_rel : float;
  d_cmp_eq : float;
  d_divmod : float;
  d_shift : float;
  d_logic : float;
  d_mux2 : float;
  d_mux_per_extra_input : float;
  ff_clk_q : float;  (** plain flip-flop clock-to-q *)
  ff_clk_q_en : float;  (** flip-flop with load-enable *)
  ff_setup : float;
  (* reference areas at 32 bits (multiplier at 32x32), arbitrary gate units *)
  a_mul : float;
  a_add : float;
  a_cmp_rel : float;
  a_cmp_eq : float;
  a_divmod : float;
  a_shift : float;
  a_logic : float;
  a_mux2_per_bit : float;
  a_ff_per_bit : float;
  a_port : float;
  control_area_base : float;
  control_area_per_state : float;
  (* sizing curve *)
  min_delay_factor : float;  (** fastest achievable delay = factor * nominal *)
  sizing_gamma : float;  (** area = nominal * (1 + gamma * (d_nom/d_req - 1)) *)
  (* energy, pJ per activation per unit area *)
  energy_per_area : float;
  leakage_per_area_mw : float;
  blackboxes : (string * blackbox_char) list;
}

let ref_width = 32

(* Width scaling of delay: logarithmic with a floor so that 1-bit resources
   are not free. *)
let width_scale w =
  let w = max 2 w in
  let s = log (float_of_int w) /. log (float_of_int ref_width) in
  max 0.25 s

let max_in_width rt = List.fold_left Int.max 1 rt.Resource.in_widths

let blackbox t name =
  match List.assoc_opt name t.blackboxes with
  | Some c -> c
  | None -> { bb_latency = 1; bb_stage_delay = t.d_mul; bb_area = t.a_mul; bb_energy = t.a_mul *. t.energy_per_area }

(** Nominal propagation delay of a resource type, ps. *)
let delay t (rt : Resource.t) =
  let w = max_in_width rt in
  let s = width_scale w in
  match rt.Resource.rclass with
  | Opkind.R_mul -> t.d_mul *. s
  | Opkind.R_addsub -> t.d_add *. s
  | Opkind.R_cmp_rel -> t.d_cmp_rel *. s
  | Opkind.R_cmp_eq -> t.d_cmp_eq *. s
  | Opkind.R_divmod -> t.d_divmod *. s
  | Opkind.R_shift -> t.d_shift *. s
  | Opkind.R_logic -> t.d_logic *. s
  | Opkind.R_mux -> t.d_mux2
  | Opkind.R_port_in | Opkind.R_port_out -> 0.0
  | Opkind.R_blackbox name -> (blackbox t name).bb_stage_delay
  | Opkind.R_wire -> 0.0

(** Delay of a [k]-input sharing multiplexer (k >= 2): Table 1 gives mux2 =
    110, mux3 = 115; each further input adds [d_mux_per_extra_input]. *)
let mux_delay t ~inputs =
  if inputs <= 1 then 0.0 else t.d_mux2 +. (t.d_mux_per_extra_input *. float_of_int (inputs - 2))

(** Nominal area of a resource type. *)
let area t (rt : Resource.t) =
  let wmax = float_of_int (max_in_width rt) /. float_of_int ref_width in
  match rt.Resource.rclass with
  | Opkind.R_mul ->
      (* multiplier area grows with the product of operand widths *)
      let prod =
        match rt.Resource.in_widths with
        | [ a; b ] -> float_of_int (a * b) /. float_of_int (ref_width * ref_width)
        | _ -> wmax *. wmax
      in
      t.a_mul *. max 0.02 prod
  | Opkind.R_addsub -> t.a_add *. wmax
  | Opkind.R_cmp_rel -> t.a_cmp_rel *. wmax
  | Opkind.R_cmp_eq -> t.a_cmp_eq *. wmax
  | Opkind.R_divmod -> t.a_divmod *. wmax
  | Opkind.R_shift -> t.a_shift *. wmax
  | Opkind.R_logic -> t.a_logic *. wmax
  | Opkind.R_mux -> t.a_mux2_per_bit *. float_of_int rt.Resource.out_width
  | Opkind.R_port_in | Opkind.R_port_out -> t.a_port
  | Opkind.R_blackbox name -> (blackbox t name).bb_area
  | Opkind.R_wire -> 0.0

(** Area of a [k]-input, [width]-bit multiplexer tree ((k-1) 2:1 stages). *)
let mux_area t ~inputs ~width =
  if inputs <= 1 then 0.0
  else t.a_mux2_per_bit *. float_of_int width *. float_of_int (inputs - 1)

let reg_area t ~width = t.a_ff_per_bit *. float_of_int width

(** Fastest delay logic synthesis can reach for this resource. *)
let min_delay t rt = t.min_delay_factor *. delay t rt

(** [area_for_delay t rt ~required] is the post-synthesis area of the
    resource when it must propagate in [required] ps: nominal area when the
    nominal delay fits, super-linearly upsized otherwise, [None] when even
    the fastest sizing misses (the constraint is unimplementable). *)
let area_for_delay t rt ~required =
  let d = delay t rt in
  let a = area t rt in
  if required >= d then Some a
  else if required < min_delay t rt then None
  else Some (a *. (1.0 +. (t.sizing_gamma *. ((d /. required) -. 1.0))))

(** Switching energy of one activation of the resource, pJ. *)
let energy t rt = area t rt *. t.energy_per_area

let reg_energy t ~width = reg_area t ~width *. t.energy_per_area *. 0.4

let leakage_mw t ~total_area = total_area *. t.leakage_per_area_mw

(** The library used throughout the paper's examples.  Delays of Table 1 are
    reproduced verbatim at 32-bit operands; areas are calibrated so the
    micro-architecture comparison of Table 3 lands in the right ranges. *)
let artisan90 : t =
  {
    lib_name = "artisan_90nm_typical";
    d_mul = 930.0;
    d_add = 350.0;
    d_cmp_rel = 220.0;
    d_cmp_eq = 60.0;
    d_divmod = 2600.0;
    d_shift = 180.0;
    d_logic = 50.0;
    d_mux2 = 110.0;
    d_mux_per_extra_input = 5.0;
    ff_clk_q = 40.0;
    ff_clk_q_en = 70.0;
    ff_setup = 40.0;
    a_mul = 7200.0;
    a_add = 620.0;
    a_cmp_rel = 290.0;
    a_cmp_eq = 140.0;
    a_divmod = 9500.0;
    a_shift = 380.0;
    a_logic = 90.0;
    a_mux2_per_bit = 3.2;
    a_ff_per_bit = 5.5;
    a_port = 0.0;
    control_area_base = 3200.0;
    control_area_per_state = 180.0;
    min_delay_factor = 0.55;
    sizing_gamma = 1.5;
    energy_per_area = 0.0021;
    leakage_per_area_mw = 0.00012;
    blackboxes = [];
  }

(** Register a black-box IP characterization (pre-designed, possibly
    pipelined multi-cycle blocks the binder may target). *)
let with_blackbox t ~name ~latency ~stage_delay ~area ~energy =
  {
    t with
    blackboxes =
      (name, { bb_latency = latency; bb_stage_delay = stage_delay; bb_area = area; bb_energy = energy })
      :: List.remove_assoc name t.blackboxes;
  }

(** Latency in cycles of an op kind under this library (black boxes may be
    multi-cycle; everything else is combinational = 1 state). *)
let op_latency t = function
  | Opkind.Call c ->
      let bb = blackbox t c.Opkind.callee in
      max c.Opkind.call_latency bb.bb_latency
  | _ -> 1

(** Rows of Table 1 for reporting. *)
let table1_rows t =
  let r32 rc n = { Resource.rclass = rc; in_widths = List.init n (fun _ -> 32); out_width = 32 } in
  [
    ("mul", delay t (r32 Opkind.R_mul 2));
    ("add", delay t (r32 Opkind.R_addsub 2));
    ("gt", delay t (r32 Opkind.R_cmp_rel 2));
    ("neq", delay t (r32 Opkind.R_cmp_eq 2));
    ("ff", t.ff_clk_q);
    ("ff_en", t.ff_clk_q_en);
    ("mux2", mux_delay t ~inputs:2);
    ("mux3", mux_delay t ~inputs:3);
  ]
