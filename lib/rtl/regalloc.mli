(** Register allocation for values crossing control-step boundaries:
    pipeline shift-chain copies (a value alive [u - s] cycles against a
    new instance every II needs [ceil((u-s)/II)] registers) and greedy
    life-span sharing for sequential schedules (shared registers carry the
    input mux the paper's Fig. 8 prices). *)

type value_info = {
  v_op : int;
  v_width : int;
  v_def : int;  (** producing step *)
  v_last_use : int;
  v_copies : int;  (** pipeline shift-chain length *)
  v_dedicated : bool;  (** loop-carried / cross-region: not shareable *)
}

type reg = { r_width : int; r_values : value_info list; r_copies : int }

type t = { values : value_info list; regs : reg list }

val analyze : Hls_core.Scheduler.t -> t
val n_registers : t -> int

val shared_regs : t -> reg list
(** Registers written by more than one value (these get input muxes). *)
