(** One-time compilation of a scheduled region into a specialized
    simulator.

    {!Kernel_sim}'s interpreter re-runs the kernel-cell topo sort for every
    active stage on every clock cycle and routes every operand through
    per-iteration hashtables.  [compile_cells] resolves all of that
    {e once} into a closed-over execution plan over a grid of cells: the
    folded kernel's (state, stage) cells ([compile]), or the single flat
    cell of all region members that {!Schedule_sim} runs one iteration at
    a time.  Either way:

    - cell topological orders, in-edge lists, guard atoms, result widths
      and loop-carried distances are looked up a single time and flattened
      into int-encoded instruction arrays — a register machine whose
      dispatch is a jump-table [match] on a dense opcode, with no
      per-operand closure calls (only [Call] ops and stimulus [Read]s go
      through a bound closure / array ref);
    - per-iteration value hashtables become a dense op-id-indexed arena —
      a power-of-two ring of iteration contexts (covering at least
      [stages + max_distance + 1] in-flight iterations), each an
      [int array] with an iteration-stamp array distinguishing computed
      values from stale slots, addressed by [iter land mask];
    - operand reads are mode-classified at compile time: a distance-0
      input of a main-loop op is always stamped by the time its consumer
      runs (the schedule orders producers first and an iteration walks
      the pipeline monotonically — stalls freeze everything, squash kills
      whole iterations), so it compiles to an unchecked read of the
      hoisted current-iteration row; inputs produced only by the pre
      region read the pre array directly; loop-carried inputs go through
      the ring; only the stall-condition program — whose early evaluation
      can legitimately race ahead of the producing cell — keeps the
      interpreter's stamped-else-pre check;
    - width truncation is pre-encoded per instruction ([1 lsl width], or 0
      for the >= 62-bit identity) and applied with two masks and a
      subtract;
    - output events accumulate in growable int arrays (no per-event
      allocation on the hot path) and materialize as records once at the
      end of the run.

    The controller semantics are exactly the interpreter's: kernel-state
    counter, stage-validity shift register (prologue/epilogue), external
    stall pattern and design stall condition freezing the whole pipeline,
    data-dependent exit squashing younger in-flight iterations.  The
    equivalence [interpreted ≡ compiled] (outputs and all four counters)
    is enforced by a QCheck property and the {!Equiv.fuzz} CI gate.

    A [plan] owns its arena: it is reusable across runs (arena reset per
    run) but not thread-safe and not reentrant. *)

open Hls_ir
open Hls_core
open Hls_frontend
module Diag = Hls_diag.Diag

type output_event = { k_port : string; k_iter : int; k_cycle : int; k_value : int }

type result = {
  k_outputs : output_event list;
  k_iters : int;  (** committed iterations *)
  k_cycles : int;  (** clock cycles stepped, including stalls and drain *)
  k_stall_cycles : int;
  k_squashed : int;  (** iterations issued past the exit and discarded *)
}

exception Watchdog of Diag.t

let watchdog_diag ~engine ~cap =
  Diag.make ~phase:Diag.Verify ~code:"watchdog_exceeded"
    "kernel simulation (%s engine) still active after %d cycles; a stalled pipeline never drains \
     — raise ?max_cycles if the stimulus is legitimately this long"
    engine cap

(** Default cycle cap: generous slack over the stall-free cycle count
    [(n_iters + stages) * ii] so that bounded-duty external stall patterns
    never trip it, with a floor covering short runs. *)
let default_max_cycles ~ii ~stages ~n_iters =
  max 100_000 ((n_iters + stages + 8) * max 1 ii * 8)

(** [ids] in dependency order over the distance-0 edges among them: the
    pre region, one kernel cell, or the flat plan's region members. *)
let pre_topo (dfg : Dfg.t) ids =
  (* the sort ignores successors outside [ids] *)
  let succs id =
    List.filter_map
      (fun e -> if e.Dfg.distance = 0 then Some e.Dfg.dst else None)
      (Dfg.out_edges dfg id)
  in
  match Graph_algo.topo_sort ~nodes:ids ~succs with
  | Some order -> order
  | None -> invalid_arg "Kernel_compile: combinational cycle over distance-0 edges"

(** Topologically ordered ops of one kernel cell (state, stage): within a
    cell the chained dependencies must execute producer-first.  Shared by
    the compiled plan (resolved once) and the interpreter (per cycle). *)
let cell_topo (dfg : Dfg.t) (fold : Pipeline.t) ~state ~stage =
  pre_topo dfg (Pipeline.ops_at fold ~state ~stage)

(* ------------------------------------------------------------------ *)

(* Opcodes of the flattened instruction stream.  10 and above are binary
   ops reading operands [a] and [b]; below 10, operand use varies. *)
let op_const = 0 (* imm *)
let op_read = 1 (* port.(i), sample at iter *)
let op_call = 2 (* fn.(i) iter vs ss *)
let op_loop_mux = 3 (* iter = 0 ? a : b *)
let op_shift_mask = 4 (* (a asr imm) land imm2 — Write/Sext copies, Slice, Zext *)
let op_concat = 5 (* (a lsl imm) lor (b land imm2) *)
let op_mux = 6 (* a <> 0 ? b : c *)
let op_neg = 7
let op_bnot = 8
let op_lnot = 9
let op_add = 10
let op_sub = 11
let op_mul = 12
let op_div = 13
let op_mod = 14
let op_shl = 15
let op_shr = 16
let op_band = 17
let op_bor = 18
let op_bxor = 19
let op_land = 20
let op_lor = 21
let op_eq = 22
let op_neq = 23
let op_lt = 24
let op_le = 25
let op_gt = 26
let op_ge = 27
let op_mac = 28 (* fused multiply-accumulate: both results stamped *)

(* Operand modes, encoded in the distance arrays:
     d = 0   unchecked read of the current iteration's hoisted value row
             (distance-0 input of a main-loop producer: always stamped)
     d = -1  read the pre-region array (producer lives only there)
     d = -3  immediate: the src field holds a folded constant value
     d > 0   loop-carried: ring lookup at [iter - d], stamped-else-pre
     d = -2  checked current-row read, stamped-else-pre (stall program
             only, where early evaluation can outrun the producing cell) *)
let mode_pre = -1
let mode_checked = -2
let mode_imm = -3

(* One kernel cell (or the pre region, or a stall condition) flattened
   into parallel instruction arrays, topo order.  The arena arrays are
   embedded so execution needs no further context. *)
type prog = {
  q_n : int;
  q_code : int array;
  q_dst : int array;  (* op id *)
  q_a : int array;  (* operand 0 src op id *)
  q_ad : int array;  (* operand 0 mode/distance *)
  q_b : int array;
  q_bd : int array;
  q_c : int array;
  q_cd : int array;
  q_imm : int array;  (* constant / shift amount *)
  q_imm2 : int array;  (* mask (-1 = none) *)
  q_tm : int array;  (* truncation: [1 lsl width], 0 = identity (>= 62) *)
  q_port : int array ref array;  (* op_read: bound stimulus samples *)
  q_fn : (int -> int array -> int array -> int) array;  (* op_call *)
  q_mask : int;  (* ring slots - 1 *)
  q_values : int array array;
  q_stamp : int array array;
  q_pre : int array;
}

type write = {
  w_id : int;
  w_pidx : int;  (* index into the plan's port-name table *)
  w_preds : int array;  (* guard atoms *)
  w_pols : bool array;
}

type plan = {
  p_ii : int;
  p_stages : int;
  p_mask : int;  (** ring slots - 1; the ring size is a power of two *)
  p_values : int array array;  (** slot -> op id -> value *)
  p_stamp : int array array;  (** slot -> op id -> owning iteration, -1 = stale *)
  p_pre : int array;  (** pre-region values, op-id-indexed (0 = unset) *)
  p_pre_stamp : int array;  (** all-zero stamp row the pre program runs against *)
  p_progs : prog array array;  (** kernel state -> stage -> flattened cell *)
  p_writes : write array array array;  (** kernel state -> stage -> port writes, topo order *)
  p_n_writes : int;  (** total write ops: exact per-iteration output-event bound *)
  p_wports : string array;  (** write-port names, indexed by [w_pidx] *)
  p_pre_prog : prog;
  p_stall : (int * prog) option;  (** design stall-condition op and its evaluator *)
  p_continue : int option;  (** continue-condition op (computed value 0 = exit) *)
  p_funcs : (string -> int list -> int) ref;
  p_ports : (string * int array ref) list;  (** read ports rebound per run *)
}

let stages t = t.p_stages
let ii t = t.p_ii

(* Cold operand paths: loop-carried ring lookup and the stall program's
   checked current-row read.  Kept out of line so the two hot modes stay
   branch-cheap at every inlined read site in [exec_prog]. *)
let rd_slow (q : prog) iter (vs : int array) (ss : int array) s d =
  if d > 0 then begin
    let fi = iter - d in
    if fi < 0 then q.q_pre.(s)
    else
      let sl = fi land q.q_mask in
      if (Array.unsafe_get q.q_stamp sl).(s) = fi then (Array.unsafe_get q.q_values sl).(s)
      else q.q_pre.(s)
  end
  else if (* mode_checked *) Array.unsafe_get ss s = iter then Array.unsafe_get vs s
  else q.q_pre.(s)

(* Execute a flattened cell for [iter]; [vs]/[ss] are the iteration's
   hoisted arena rows ([values]/[stamp] at slot [iter land mask]). *)
let exec_prog (q : prog) iter (vs : int array) (ss : int array) =
  let code = q.q_code and qa = q.q_a and qad = q.q_ad and qb = q.q_b and qbd = q.q_bd in
  let pre = q.q_pre in
  for i = 0 to q.q_n - 1 do
    let k = Array.unsafe_get code i in
    let v =
      if k >= op_add then begin
        (* binary op: operand evaluation is pure, order is immaterial *)
        let x =
          let s = Array.unsafe_get qa i and d = Array.unsafe_get qad i in
          if d = 0 then Array.unsafe_get vs s
          else if d = mode_imm then s
          else if d = mode_pre then Array.unsafe_get pre s
          else rd_slow q iter vs ss s d
        in
        let y =
          let s = Array.unsafe_get qb i and d = Array.unsafe_get qbd i in
          if d = 0 then Array.unsafe_get vs s
          else if d = mode_imm then s
          else if d = mode_pre then Array.unsafe_get pre s
          else rd_slow q iter vs ss s d
        in
        match k with
        | 10 -> x + y
        | 11 -> x - y
        | 12 -> x * y
        | 13 -> if y = 0 then 0 else x / y
        | 14 -> if y = 0 then 0 else x mod y
        | 15 -> x lsl (y land 63)
        | 16 -> x asr (y land 63)
        | 17 -> x land y
        | 18 -> x lor y
        | 19 -> x lxor y
        | 20 -> if x <> 0 && y <> 0 then 1 else 0
        | 21 -> if x <> 0 || y <> 0 then 1 else 0
        | 22 -> if x = y then 1 else 0
        | 23 -> if x <> y then 1 else 0
        | 24 -> if x < y then 1 else 0
        | 25 -> if x <= y then 1 else 0
        | 26 -> if x > y then 1 else 0
        | 27 -> if x >= y then 1 else 0
        | _ ->
            (* op_mac: x*y truncated and stamped as the fused multiply's
               own result, then accumulated into operand [c] *)
            let m = x * y in
            let tp = Array.unsafe_get q.q_imm i in
            let m =
              if tp = 0 then m
              else
                let m' = m land (tp - 1) in
                if m' land (tp asr 1) = 0 then m' else m' - tp
            in
            let pid = Array.unsafe_get q.q_imm2 i in
            Array.unsafe_set vs pid m;
            Array.unsafe_set ss pid iter;
            let z =
              let s = Array.unsafe_get q.q_c i and d = Array.unsafe_get q.q_cd i in
              if d = 0 then Array.unsafe_get vs s
              else if d = mode_imm then s
              else if d = mode_pre then Array.unsafe_get pre s
              else rd_slow q iter vs ss s d
            in
            m + z
      end
      else if k = op_shift_mask then
        let a =
          let s = Array.unsafe_get qa i and d = Array.unsafe_get qad i in
          if d = 0 then Array.unsafe_get vs s
          else if d = mode_imm then s
          else if d = mode_pre then Array.unsafe_get pre s
          else rd_slow q iter vs ss s d
        in
        (a asr Array.unsafe_get q.q_imm i) land Array.unsafe_get q.q_imm2 i
      else
        match k with
        | 0 -> Array.unsafe_get q.q_imm i
        | 1 ->
            let arr = !(q.q_port.(i)) in
            if iter < 0 || iter >= Array.length arr then 0 else Array.unsafe_get arr iter
        | 2 -> q.q_fn.(i) iter vs ss
        | 3 ->
            (* loop_mux *)
            let s, d =
              if iter = 0 then (qa.(i), qad.(i)) else (qb.(i), qbd.(i))
            in
            if d = 0 then Array.unsafe_get vs s
            else if d = mode_imm then s
            else if d = mode_pre then Array.unsafe_get pre s
            else rd_slow q iter vs ss s d
        | 5 ->
            (* concat *)
            let a =
              let s = qa.(i) and d = qad.(i) in
              if d = 0 then Array.unsafe_get vs s
              else if d = mode_imm then s
              else if d = mode_pre then Array.unsafe_get pre s
              else rd_slow q iter vs ss s d
            in
            let b =
              let s = qb.(i) and d = qbd.(i) in
              if d = 0 then Array.unsafe_get vs s
              else if d = mode_imm then s
              else if d = mode_pre then Array.unsafe_get pre s
              else rd_slow q iter vs ss s d
            in
            (a lsl q.q_imm.(i)) lor (b land q.q_imm2.(i))
        | 6 ->
            (* mux: evaluate the selected arm, as the interpreter does *)
            let sel =
              let s = qa.(i) and d = qad.(i) in
              if d = 0 then Array.unsafe_get vs s
              else if d = mode_imm then s
              else if d = mode_pre then Array.unsafe_get pre s
              else rd_slow q iter vs ss s d
            in
            let s, d = if sel <> 0 then (qb.(i), qbd.(i)) else (q.q_c.(i), q.q_cd.(i)) in
            if d = 0 then Array.unsafe_get vs s
            else if d = mode_imm then s
            else if d = mode_pre then Array.unsafe_get pre s
            else rd_slow q iter vs ss s d
        | _ ->
            (* unary: neg / bnot / lnot *)
            let a =
              let s = qa.(i) and d = qad.(i) in
              if d = 0 then Array.unsafe_get vs s
              else if d = mode_imm then s
              else if d = mode_pre then Array.unsafe_get pre s
              else rd_slow q iter vs ss s d
            in
            if k = op_neg then -a else if k = op_bnot then lnot a else if a = 0 then 1 else 0
    in
    (* Width.truncate with [1 lsl width] pre-encoded (0 = identity) *)
    let t = Array.unsafe_get q.q_tm i in
    let v =
      if t = 0 then v
      else
        let v = v land (t - 1) in
        if v land (t asr 1) = 0 then v else v - t
    in
    let d = Array.unsafe_get q.q_dst i in
    Array.unsafe_set vs d v;
    Array.unsafe_set ss d iter
  done

let compile_cells (elab : Elaborate.t) (sched : Scheduler.t) ~ii ~stages
    ~(cell : state:int -> stage:int -> int list) : plan =
  let dfg = elab.Elaborate.cdfg.Cdfg.dfg in
  let region = sched.Scheduler.s_region in
  let cells = Array.init ii (fun state -> Array.init stages (fun stage -> cell ~state ~stage)) in
  let max_distance =
    List.fold_left (fun acc e -> max acc e.Dfg.distance) 1 (Dfg.all_edges dfg)
  in
  let ring =
    let need = stages + max_distance + 1 in
    let r = ref 1 in
    while !r < need do
      r := !r * 2
    done;
    !r
  in
  let mask = ring - 1 in
  let n_ops = Dfg.size dfg in
  let values = Array.init ring (fun _ -> Array.make n_ops 0) in
  let stamp = Array.init ring (fun _ -> Array.make n_ops (-1)) in
  let pre = Array.make n_ops 0 in
  let funcs = ref Behav.default_fun in
  (* ops executed by the main loop (member of some kernel cell): their
     distance-0 consumers always find them stamped; anything else only
     ever has a pre-region value *)
  let in_main = Array.make n_ops false in
  Array.iter (Array.iter (List.iter (fun id -> in_main.(id) <- true))) cells;
  let in_pre = Array.make n_ops false in
  List.iter (fun id -> in_pre.(id) <- true) elab.Elaborate.pre_members;
  (* Constant-folding support.  A [Const] op folds into its distance-0
     consumers' operand immediates; its own instruction is then removable
     unless the arena slot is [observed] by something that addresses it
     by id: write-guard atoms, the stall / continue conditions (and the
     stall op's checked operand reads), Call argument closures, and
     loop-carried ring reads. *)
  let is_const = Array.make n_ops false in
  let const_val = Array.make n_ops 0 in
  let observed = Array.make n_ops false in
  Dfg.fold_ops dfg
    (fun op () ->
      (match op.Dfg.kind with
      | Opkind.Const v ->
          is_const.(op.Dfg.id) <- true;
          let w = Width.clamp op.Dfg.width in
          const_val.(op.Dfg.id) <-
            (if w >= 62 then v
             else
               let t = 1 lsl w in
               let v = v land (t - 1) in
               if v land (t asr 1) = 0 then v else v - t)
      | Opkind.Call _ ->
          List.iter
            (fun (e : Dfg.edge) -> observed.(e.Dfg.src) <- true)
            (Dfg.in_edges dfg op.Dfg.id)
      | _ -> ());
      List.iter (fun (at : Guard.atom) -> observed.(at.Guard.pred) <- true) op.Dfg.guard;
      List.iter
        (fun (e : Dfg.edge) -> if e.Dfg.distance > 0 then observed.(e.Dfg.src) <- true)
        (Dfg.in_edges dfg op.Dfg.id))
    ();
  Option.iter (fun c -> observed.(c) <- true) region.Region.continue_cond;
  Option.iter
    (fun c ->
      observed.(c) <- true;
      List.iter (fun (e : Dfg.edge) -> observed.(e.Dfg.src) <- true) (Dfg.in_edges dfg c))
    region.Region.stall_cond;
  (* one sample-array ref per distinct read port of the compiled ops *)
  let ports : (string, int array ref) Hashtbl.t = Hashtbl.create 8 in
  let port_ref p =
    match Hashtbl.find_opt ports p with
    | Some r -> r
    | None ->
        let r = ref [||] in
        Hashtbl.replace ports p r;
        r
  in
  let no_port = ref [||] in
  let no_fn _ _ _ = 0 in
  (* Flatten a topo-ordered op list into an instruction program.  [mode]
     selects the operand read classification: [`Pre] reads everything
     from the pre array (the pre region runs once against it at iteration
     0), [`Stall] keeps the stamped-else-pre check on distance-0 reads
     (early evaluation can outrun the producing cell), [`Main] uses the
     unchecked fast path for main-loop distance-0 producers. *)
  let build_prog ~mode ids =
    (* a Const whose every observer is a foldable distance-0 operand read
       needs no instruction at all in main-loop cells *)
    let ids =
      match mode with
      | `Main -> List.filter (fun id -> not (is_const.(id) && not observed.(id))) ids
      | `Pre | `Stall -> ids
    in
    let n = List.length ids in
    let code = Array.make n 0
    and dst = Array.make n 0
    and a = Array.make n 0
    and ad = Array.make n 0
    and b = Array.make n 0
    and bd = Array.make n 0
    and c = Array.make n 0
    and cd = Array.make n 0
    and imm = Array.make n 0
    and imm2 = Array.make n (-1)
    and tm = Array.make n 0
    and port = Array.make n no_port
    and fn = Array.make n no_fn in
    let operand_mode src dist =
      match mode with
      | `Pre -> mode_pre
      | `Stall -> if dist > 0 then dist else if in_main.(src) then mode_checked else mode_pre
      | `Main -> if dist > 0 then dist else if in_main.(src) then 0 else mode_pre
    in
    List.iteri
      (fun i id ->
        let op = Dfg.find dfg id in
        let ins = Array.of_list (Dfg.in_edges dfg id) in
        let set_in k (sa, da) =
          let e = ins.(k) in
          let src = e.Dfg.src in
          if
            (match mode with `Main -> true | `Pre | `Stall -> false)
            && e.Dfg.distance = 0
            && is_const.(src)
            && (in_main.(src) || in_pre.(src))
          then begin
            (* fold: the stamped (main) or pre-array (pre-only) value of a
               Const is its width-truncated literal either way.  The stall
               program must NOT fold: its early evaluation legitimately
               sees the pre fallback of a not-yet-stamped Const, exactly
               as the interpreter does. *)
            sa.(i) <- const_val.(src);
            da.(i) <- mode_imm
          end
          else begin
            sa.(i) <- src;
            da.(i) <- operand_mode src e.Dfg.distance
          end
        in
        let unary () = set_in 0 (a, ad) in
        let binary () =
          set_in 0 (a, ad);
          set_in 1 (b, bd)
        in
        dst.(i) <- id;
        (let w = Width.clamp op.Dfg.width in
         tm.(i) <- (if w >= 62 then 0 else 1 lsl w));
        (match op.Dfg.kind with
        | Opkind.Const v ->
            code.(i) <- op_const;
            imm.(i) <- v
        | Opkind.Read p ->
            code.(i) <- op_read;
            port.(i) <- port_ref p
        | Opkind.Call cl ->
            code.(i) <- op_call;
            let callee = cl.Opkind.callee in
            let readers =
              Array.map
                (fun (e : Dfg.edge) ->
                  let src = e.Dfg.src in
                  let m = operand_mode src e.Dfg.distance in
                  if m = mode_pre then fun _ _ _ -> pre.(src)
                  else if m > 0 then
                    fun iter _ _ ->
                      let fi = iter - m in
                      if fi < 0 then pre.(src)
                      else
                        let sl = fi land mask in
                        if stamp.(sl).(src) = fi then values.(sl).(src) else pre.(src)
                  else
                    (* unchecked and checked current-row reads coincide
                       for a rare Call argument: keep the check *)
                    fun iter vs ss -> if ss.(src) = iter then vs.(src) else pre.(src))
                ins
            in
            fn.(i) <-
              (fun iter vs ss ->
                !funcs callee (Array.to_list (Array.map (fun r -> r iter vs ss) readers)))
        | Opkind.Loop_mux ->
            code.(i) <- op_loop_mux;
            binary ()
        | Opkind.Write _ ->
            code.(i) <- op_shift_mask;
            unary ()
        | Opkind.Sext _ ->
            code.(i) <- op_shift_mask;
            unary ()
        | Opkind.Slice (hi, lo) ->
            code.(i) <- op_shift_mask;
            unary ();
            imm.(i) <- lo;
            let w = hi - lo + 1 in
            if w < 62 then imm2.(i) <- (1 lsl w) - 1
        | Opkind.Zext w ->
            code.(i) <- op_shift_mask;
            unary ();
            if w < 62 then imm2.(i) <- (1 lsl w) - 1
        | Opkind.Concat ->
            code.(i) <- op_concat;
            binary ();
            let wb = (Dfg.find dfg ins.(1).Dfg.src).Dfg.width in
            imm.(i) <- wb;
            imm2.(i) <- (1 lsl wb) - 1
        | Opkind.Mux ->
            code.(i) <- op_mux;
            binary ();
            set_in 2 (c, cd)
        | Opkind.Un u ->
            code.(i) <-
              (match u with
              | Opkind.Neg -> op_neg
              | Opkind.Bnot -> op_bnot
              | Opkind.Lnot -> op_lnot);
            unary ()
        | Opkind.Bin bk ->
            code.(i) <-
              (match bk with
              | Opkind.Add -> op_add
              | Opkind.Sub -> op_sub
              | Opkind.Mul -> op_mul
              | Opkind.Div -> op_div
              | Opkind.Mod -> op_mod
              | Opkind.Shl -> op_shl
              | Opkind.Shr -> op_shr
              | Opkind.Band -> op_band
              | Opkind.Bor -> op_bor
              | Opkind.Bxor -> op_bxor
              | Opkind.Land -> op_land
              | Opkind.Lor -> op_lor
              | Opkind.Eq -> op_eq
              | Opkind.Neq -> op_neq
              | Opkind.Lt -> op_lt
              | Opkind.Le -> op_le
              | Opkind.Gt -> op_gt
              | Opkind.Ge -> op_ge);
            binary ()))
      ids;
    (* MAC fusion (main cells only): a multiply feeding an add over a
       distance-0 edge within the same cell, with no reader between the
       two instructions, collapses into one op_mac that still truncates
       and stamps the multiply's own result — so write guards, the
       stall/continue conditions, later cells and ring reads all observe
       exactly the interpreter's values. *)
    let removed = Array.make (max n 1) false in
    (match mode with
    | `Pre | `Stall -> ()
    | `Main ->
        let posn = Hashtbl.create 16 in
        for i = 0 to n - 1 do
          Hashtbl.replace posn dst.(i) i
        done;
        let blocked pid lo hi =
          (* an instruction strictly between producer and consumer that
             reads [pid] at distance 0 would see it unstamped after
             fusion; a Call hides its operand reads in a closure *)
          let hit = ref false in
          for j = lo + 1 to hi - 1 do
            if
              code.(j) = op_call
              || (ad.(j) = 0 && a.(j) = pid)
              || (bd.(j) = 0 && b.(j) = pid)
              || ((code.(j) = op_mux || code.(j) = op_mac) && cd.(j) = 0 && c.(j) = pid)
            then hit := true
          done;
          !hit
        in
        for ci = 0 to n - 1 do
          if code.(ci) = op_add then begin
            let fuse psrc pd zs zd =
              if code.(ci) = op_add && pd = 0 then
                match Hashtbl.find_opt posn psrc with
                | Some pi
                  when pi < ci && code.(pi) = op_mul && (not removed.(pi))
                       && not (blocked psrc pi ci) ->
                    code.(ci) <- op_mac;
                    imm.(ci) <- tm.(pi);
                    imm2.(ci) <- dst.(pi);
                    c.(ci) <- zs;
                    cd.(ci) <- zd;
                    a.(ci) <- a.(pi);
                    ad.(ci) <- ad.(pi);
                    b.(ci) <- b.(pi);
                    bd.(ci) <- bd.(pi);
                    removed.(pi) <- true
                | _ -> ()
            in
            fuse a.(ci) ad.(ci) b.(ci) bd.(ci);
            fuse b.(ci) bd.(ci) a.(ci) ad.(ci)
          end
        done);
    let live = ref [] in
    for i = n - 1 downto 0 do
      if not removed.(i) then live := i :: !live
    done;
    let live = Array.of_list !live in
    let pick arr = Array.map (fun i -> arr.(i)) live in
    {
      q_n = Array.length live;
      q_code = pick code;
      q_dst = pick dst;
      q_a = pick a;
      q_ad = pick ad;
      q_b = pick b;
      q_bd = pick bd;
      q_c = pick c;
      q_cd = pick cd;
      q_imm = pick imm;
      q_imm2 = pick imm2;
      q_tm = pick tm;
      q_port = pick port;
      q_fn = pick fn;
      q_mask = mask;
      q_values = values;
      q_stamp = stamp;
      q_pre = pre;
    }
  in
  let progs = Array.map (Array.map (build_prog ~mode:`Main)) cells in
  (* port writes split out of the instruction stream: all events of one
     cell share (cycle, iter) and each write reads only its own op's
     value, so emitting them after the cell's instructions in topo order
     yields the exact interpreter event list *)
  let wports : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let wport_names = ref [] in
  let wport_idx p =
    match Hashtbl.find_opt wports p with
    | Some i -> i
    | None ->
        let i = Hashtbl.length wports in
        Hashtbl.replace wports p i;
        wport_names := p :: !wport_names;
        i
  in
  let writes =
    Array.map
      (Array.map (fun ids ->
           ids
            |> List.filter_map (fun id ->
                   let op = Dfg.find dfg id in
                   match op.Dfg.kind with
                   | Opkind.Write p ->
                       Some
                         {
                           w_id = id;
                           w_pidx = wport_idx p;
                           w_preds =
                             Array.of_list
                               (List.map (fun (at : Guard.atom) -> at.Guard.pred) op.Dfg.guard);
                           w_pols =
                             Array.of_list
                               (List.map
                                  (fun (at : Guard.atom) -> at.Guard.polarity)
                                  op.Dfg.guard);
                         }
                   | _ -> None)
            |> Array.of_list))
      cells
  in
  let pre_prog = build_prog ~mode:`Pre (pre_topo dfg elab.Elaborate.pre_members) in
  {
    p_ii = ii;
    p_stages = stages;
    p_mask = mask;
    p_values = values;
    p_stamp = stamp;
    p_pre = pre;
    p_pre_stamp = Array.make (max n_ops 1) 0;
    p_progs = progs;
    p_writes = writes;
    p_n_writes =
      Array.fold_left
        (fun acc per_state ->
          Array.fold_left (fun acc ws -> acc + Array.length ws) acc per_state)
        0 writes;
    p_wports = Array.of_list (List.rev !wport_names);
    p_pre_prog = pre_prog;
    p_stall =
      Option.map (fun c -> (c, build_prog ~mode:`Stall [ c ])) region.Region.stall_cond;
    p_continue = region.Region.continue_cond;
    p_funcs = funcs;
    p_ports = Hashtbl.fold (fun p r acc -> (p, r) :: acc) ports [];
  }

let compile (elab : Elaborate.t) (sched : Scheduler.t) (fold : Pipeline.t) : plan =
  compile_cells elab sched ~ii:fold.Pipeline.f_ii ~stages:fold.Pipeline.f_stages
    ~cell:(cell_topo elab.Elaborate.cdfg.Cdfg.dfg fold)

(* ------------------------------------------------------------------ *)

let start ?(funcs = Behav.default_fun) (plan : plan) (stim : Stimulus.t) =
  plan.p_funcs := funcs;
  List.iter
    (fun (p, r) ->
      match List.assoc_opt p stim.Stimulus.samples with
      | Some a -> r := a
      | None -> invalid_arg ("Stimulus.value: no samples for port " ^ p))
    plan.p_ports;
  (* reset the arena (stamps only; values are gated by their stamp) *)
  Array.iter (fun s -> Array.fill s 0 (Array.length s) (-1)) plan.p_stamp;
  Array.fill plan.p_pre 0 (Array.length plan.p_pre) 0;
  exec_prog plan.p_pre_prog 0 plan.p_pre plan.p_pre_stamp

(* A write's guard, read from the iteration's row (stamped) or the pre
   region. *)
let guard_holds pre w iter (vs : int array) (ss : int array) =
  let ok = ref true in
  for j = 0 to Array.length w.w_preds - 1 do
    let p = w.w_preds.(j) in
    let v = if ss.(p) = iter then vs.(p) else pre.(p) in
    if v <> 0 <> w.w_pols.(j) then ok := false
  done;
  !ok

let exec_cell (plan : plan) ~state ~stage iter emit =
  let sl = iter land plan.p_mask in
  let vs = plan.p_values.(sl) and ss = plan.p_stamp.(sl) in
  exec_prog plan.p_progs.(state).(stage) iter vs ss;
  Array.iter
    (fun w ->
      if guard_holds plan.p_pre w iter vs ss then emit w.w_id plan.p_wports.(w.w_pidx) vs.(w.w_id))
    plan.p_writes.(state).(stage)

let stamped_nonzero (plan : plan) ~iter id =
  let sl = iter land plan.p_mask in
  plan.p_stamp.(sl).(id) = iter && plan.p_values.(sl).(id) <> 0

let run ?funcs ?max_iters ?max_cycles ?(stall_pattern = fun _ -> true) (plan : plan)
    (stim : Stimulus.t) : result =
  start ?funcs plan stim;
  let ii = plan.p_ii and stages = plan.p_stages and mask = plan.p_mask in
  let values = plan.p_values and stamp = plan.p_stamp and pre = plan.p_pre in
  let n_iters = min (Option.value max_iters ~default:stim.Stimulus.n_iters) stim.Stimulus.n_iters in
  let cap =
    match max_cycles with Some c -> c | None -> default_max_cycles ~ii ~stages ~n_iters
  in
  let cont_c = match plan.p_continue with Some c -> c | None -> -1 in
  let stage_iter = Array.make stages (-1) in
  let issued = ref 0 in
  let committed = ref 0 in
  let squashed = ref 0 in
  let stalls = ref 0 in
  let cycle = ref 0 in
  let kernel_state = ref 0 in
  let stop_issue = ref false in
  let exit_at = ref (-1) in
  (* -1 = no exit seen *)
  (* output events in int columns; [out_bound] is the exact event bound
     (each write op fires at most once per issued iteration), but a
     data-dependent exit can finish a million-iteration stimulus in a few
     hundred cycles, so start small and jump straight to the bound on the
     first growth — at most one reallocation either way.  Records
     materialize once at the end — no allocation on the hot path. *)
  let out_n = ref 0 in
  let out_bound = max 16 ((plan.p_n_writes * (n_iters + 1)) + 16) in
  let out_cap = min out_bound 256 in
  let out_port = ref (Array.make out_cap 0) in
  let out_iter = ref (Array.make out_cap 0) in
  let out_cycle = ref (Array.make out_cap 0) in
  let out_value = ref (Array.make out_cap 0) in
  let push_event p it cy v =
    let n = !out_n in
    if n = Array.length !out_port then begin
      let newcap = max out_bound (n * 2) in
      let grow r =
        let a = Array.make newcap 0 in
        Array.blit !r 0 a 0 n;
        r := a
      in
      grow out_port;
      grow out_iter;
      grow out_cycle;
      grow out_value
    end;
    !out_port.(n) <- p;
    !out_iter.(n) <- it;
    !out_cycle.(n) <- cy;
    !out_value.(n) <- v;
    out_n := n + 1
  in
  (* iteration 0 enters stage 0 at once, unless the stimulus is empty *)
  if n_iters > 0 then begin
    stage_iter.(0) <- 0;
    issued := 1
  end;
  (* count of stage slots holding a live iteration — the interpreter's
     "any stage active" scan, maintained incrementally at wrap points *)
  let in_flight = ref !issued in
  let guard_cycles = ref 0 in
  while !in_flight > 0 do
    incr guard_cycles;
    if !guard_cycles > cap then raise (Watchdog (watchdog_diag ~engine:"compiled" ~cap));
    (* design-level stall, evaluated against the newest in-flight iteration *)
    let design_go =
      match plan.p_stall with
      | None -> true
      | Some (c, prog) ->
          let iter = ref (-1) in
          for sg = 0 to stages - 1 do
            if stage_iter.(sg) > !iter then iter := stage_iter.(sg)
          done;
          let iter = !iter in
          iter < 0
          ||
          let vs = values.(iter land mask) and ss = stamp.(iter land mask) in
          let v =
            if ss.(c) = iter then vs.(c)
            else begin
              (* not yet computed this iteration: evaluate directly from
                 the current arena state, as the interpreter does *)
              exec_prog prog iter vs ss;
              vs.(c)
            end
          in
          v <> 0
    in
    if not (stall_pattern !cycle && design_go) then begin
      incr stalls;
      incr cycle
    end
    else begin
      (* execute every active stage's cell for this kernel state *)
      let state_progs = plan.p_progs.(!kernel_state) in
      let state_writes = plan.p_writes.(!kernel_state) in
      for sg = 0 to stages - 1 do
        let iter = stage_iter.(sg) in
        if iter >= 0 then begin
          let vs = values.(iter land mask) and ss = stamp.(iter land mask) in
          exec_prog (Array.unsafe_get state_progs sg) iter vs ss;
          let ws = Array.unsafe_get state_writes sg in
          for i = 0 to Array.length ws - 1 do
            let w = Array.unsafe_get ws i in
            if guard_holds pre w iter vs ss then push_event w.w_pidx iter !cycle vs.(w.w_id)
          done;
          (* data-dependent exit evaluated in the stage that computes it *)
          if cont_c >= 0 && !exit_at < 0 && ss.(cont_c) = iter && vs.(cont_c) = 0 then begin
            exit_at := iter;
            stop_issue := true
          end
        end
      done;
      (* advance the kernel state; on wrap, shift stages and issue *)
      incr cycle;
      if !kernel_state = ii - 1 then begin
        kernel_state := 0;
        if !exit_at >= 0 then begin
          let e = !exit_at in
          for sg = 0 to stages - 1 do
            if stage_iter.(sg) > e then begin
              stage_iter.(sg) <- -1;
              incr squashed;
              decr in_flight
            end
          done
        end;
        let oldest = stages - 1 in
        if stage_iter.(oldest) >= 0 then begin
          incr committed;
          decr in_flight
        end;
        for sg = stages - 1 downto 1 do
          stage_iter.(sg) <- stage_iter.(sg - 1)
        done;
        stage_iter.(0) <-
          (if (not !stop_issue) && !issued < n_iters then begin
             let i = !issued in
             incr issued;
             incr in_flight;
             i
           end
           else -1)
      end
      else incr kernel_state
    end
  done;
  (* squashed iterations' outputs never commit *)
  let cutoff = if !exit_at >= 0 then !exit_at else max_int in
  let outputs = ref [] in
  for i = !out_n - 1 downto 0 do
    let it = !out_iter.(i) in
    if it <= cutoff then
      outputs :=
        {
          k_port = plan.p_wports.(!out_port.(i));
          k_iter = it;
          k_cycle = !out_cycle.(i);
          k_value = !out_value.(i);
        }
        :: !outputs
  done;
  {
    k_outputs = !outputs;
    k_iters = !committed;
    k_cycles = !cycle;
    k_stall_cycles = !stalls;
    k_squashed = !squashed;
  }
