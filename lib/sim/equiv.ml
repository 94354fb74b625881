(** Functional equivalence between the golden behavioural interpreter and
    the scheduled-design simulator.

    The schedule preserves semantics iff, for every output port, the
    committed value sequence matches the behavioural one.  The check is run
    by the test suite on every design × micro-architecture combination. *)

type mismatch = {
  m_port : string;
  m_index : int;
  m_expected : int option;  (** [None] = golden produced fewer values *)
  m_actual : int option;
}

type verdict = { equivalent : bool; mismatches : mismatch list; checked_values : int }

(* The checked ports, [out_ports]'s names in order.  A port repeated there
   is checked, and counted, once per occurrence, from the bucket of its
   first occurrence. *)
let rec first_index (ports : string array) p j =
  if j = Array.length ports then -1
  else if String.equal ports.(j) p then j
  else first_index ports p (j + 1)

(* the bucket of a port string met before (found by physical equality),
   or -2 *)
let rec find_met p = function
  | [] -> -2
  | (q, k) :: l -> if q == p then k else find_met p l

(** Each checked port's events from one pass over [events], newest first;
    events on other ports are dropped.  The simulators pass one string per
    write along, so an event's port is looked up among the strings met so
    far by physical equality; only a string not met before is compared
    with [String.equal] against the checked ports. *)
let group ports port_of events =
  let buckets = Array.make (Array.length ports) [] in
  let met = ref [] in
  List.iter
    (fun e ->
      let p = port_of e in
      let k =
        match find_met p !met with
        | -2 ->
            let k = first_index ports p 0 in
            met := (p, k) :: !met;
            k
        | k -> k
      in
      if k >= 0 then buckets.(k) <- e :: buckets.(k))
    events;
  buckets

(* the values of a newest-first event list, oldest first *)
let values_of_rev value_of l =
  let a = Array.make (List.length l) 0 in
  let rec fill i = function
    | [] -> ()
    | e :: l ->
        a.(i) <- value_of e;
        fill (i - 1) l
  in
  fill (Array.length a - 1) l;
  a

(** Per port in [out_ports] order, every index where the golden and the
    actual sequence differ, ascending. *)
let verdict ports (expected : int array array) (actual : int array array) =
  let mismatches = ref [] and checked = ref 0 in
  for j = Array.length ports - 1 downto 0 do
    let k = first_index ports ports.(j) 0 in
    let e = expected.(k) and a = actual.(k) in
    let ne = Array.length e and na = Array.length a in
    checked := !checked + ne;
    for i = Int.max ne na - 1 downto 0 do
      if i >= ne || i >= na || e.(i) <> a.(i) then
        mismatches :=
          {
            m_port = ports.(j);
            m_index = i;
            m_expected = (if i < ne then Some e.(i) else None);
            m_actual = (if i < na then Some a.(i) else None);
          }
          :: !mismatches
    done
  done;
  { equivalent = !mismatches = []; mismatches = !mismatches; checked_values = !checked }

let golden_values ports (golden : Behav.result) =
  Array.map
    (values_of_rev (fun o -> o.Behav.o_value))
    (group ports (fun o -> o.Behav.o_port) golden.Behav.r_outputs)

(** [check design_outs golden scheduled] compares every output port. *)
let check ~(out_ports : (string * int) list) (golden : Behav.result)
    (scheduled : Schedule_sim.result) : verdict =
  let ports = Array.of_list (List.map fst out_ports) in
  verdict ports (golden_values ports golden)
    (Array.map
       (values_of_rev (fun o -> o.Schedule_sim.o_value))
       (group ports (fun o -> o.Schedule_sim.o_port) scheduled.Schedule_sim.r_outputs))

(** [check_kernel design_outs golden kernel] compares the behavioural
    trace against the folded-kernel simulator — the gate the loop-nest
    path adds on top of {!check}: a flattened nest must stay byte-identical
    through folding too.  Each port reads its commits in
    {!Kernel_sim.commit_order} under a stable sort, which a port's commits
    usually already follow. *)
let check_kernel ~(out_ports : (string * int) list) (golden : Behav.result)
    (kernel : Kernel_sim.result) : verdict =
  let ports = Array.of_list (List.map fst out_ports) in
  (* newest first: in commit order when each event is not before the next *)
  let rec sorted = function
    | a :: (b :: _ as l) -> Kernel_sim.commit_order b a <= 0 && sorted l
    | _ -> true
  in
  let value o = o.Kernel_sim.k_value in
  let values l =
    if sorted l then values_of_rev value l
    else Array.of_list (List.map value (List.stable_sort Kernel_sim.commit_order (List.rev l)))
  in
  verdict ports (golden_values ports golden)
    (Array.map values (group ports (fun o -> o.Kernel_sim.k_port) kernel.Kernel_sim.k_outputs))

(** Merge two verdicts (e.g. schedule-sim and kernel-sim gates). *)
let both a b =
  {
    equivalent = a.equivalent && b.equivalent;
    mismatches = a.mismatches @ b.mismatches;
    checked_values = a.checked_values + b.checked_values;
  }

let mismatch_to_string m =
  Printf.sprintf "port %s[%d]: expected %s, got %s" m.m_port m.m_index
    (match m.m_expected with Some v -> string_of_int v | None -> "<none>")
    (match m.m_actual with Some v -> string_of_int v | None -> "<none>")

let verdict_to_string v =
  if v.equivalent then Printf.sprintf "equivalent (%d values)" v.checked_values
  else
    Printf.sprintf "MISMATCH (%d values, %d differences): %s" v.checked_values
      (List.length v.mismatches)
      (String.concat "; " (List.map mismatch_to_string (List.filteri (fun i _ -> i < 5) v.mismatches)))

(* ------------------------------------------------------------------ *)
(* Randomized three-way equivalence fuzzing: seeded random designs ×
   micro-architectures × stimuli (stall patterns and early exits
   included), behavioural vs schedule-sim vs compiled-kernel (plus
   interpreted-kernel cross-check of the full result record).  This is
   the CI gate behind the compiled engine, in the spirit of "Automated
   Formal Equivalence Verification of Pipelined Nested Loops"
   (arXiv 1712.09818): no proof, but an adversarial randomized search
   over the exact semantics the proof would cover. *)

open Hls_frontend

(* deterministic splitmix-style PRNG; no global [Random] state *)
type rng = { mutable rs : int }

let mix x =
  let x = x * 0x9E3779B1 land max_int in
  let x = x lxor (x lsr 15) in
  let x = x * 0x85EBCA77 land max_int in
  x lxor (x lsr 13)

let rng_make seed = { rs = mix ((seed * 0x5DEECE66D land max_int) + 0xB) }

let rnd r bound =
  r.rs <- mix r.rs;
  r.rs mod bound

let pick r l = List.nth l (rnd r (List.length l))

(** Generate a seeded random pipelineable design: 1–3 input ports, 1–2
    output ports, declared accumulator variables with a loop-carried SCC,
    random expression dataflow (arith, logic, compares, mux, div/mod),
    optionally guarded writes, and (one in three) a data-dependent exit
    with geometric survival — the construct that exercises squash. *)
let gen_design ~seed : Ast.design =
  let r = rng_make seed in
  let open Dsl in
  let n_ins = 1 + rnd r 3 in
  let ins = List.init n_ins (fun i -> in_port (Printf.sprintf "i%d" i) (8 + rnd r 9)) in
  let n_outs = 1 + rnd r 2 in
  let outs = List.init n_outs (fun i -> out_port (Printf.sprintf "o%d" i) (12 + rnd r 9)) in
  let n_vars = 2 + rnd r 3 in
  let vars = List.init n_vars (fun i -> var (Printf.sprintf "t%d" i) (10 + rnd r 11)) in
  let var_name i = Printf.sprintf "t%d" (i mod n_vars) in
  let leaf () =
    match rnd r 4 with
    | 0 -> int (rnd r 64)
    | 1 -> v (var_name (rnd r n_vars))
    | _ -> port (fst (List.nth ins (rnd r n_ins)))
  in
  let rec expr depth =
    if depth = 0 then leaf ()
    else
      let sub () = expr (depth - 1) in
      match rnd r 12 with
      | 0 -> sub () +: sub ()
      | 1 -> sub () -: sub ()
      | 2 -> sub () *: sub ()
      | 3 -> sub () &: sub ()
      | 4 -> sub () |: sub ()
      | 5 -> sub () ^: sub ()
      | 6 -> sub () <<: int (1 + rnd r 3)
      | 7 -> sub () >>: int (1 + rnd r 3)
      | 8 -> cond (sub () <: sub ()) (sub ()) (sub ())
      | 9 -> sub () /: (sub () |: int 1)
      | 10 -> sub () %: (int (3 + rnd r 13))
      | _ -> sub () +: (sub () *: sub ())
  in
  (* every variable is seeded in the pre region (no read-before-assign)
     and re-assigned in the body; one accumulator folds in its own
     previous value so the kernel carries an SCC across iterations *)
  let pre = List.map (fun (name, _) -> name := int (rnd r 16)) vars @ [ wait ] in
  let body_assigns =
    List.mapi
      (fun i (name, _) ->
        let e = expr (1 + rnd r 2) in
        if i = 0 then name := v name +: e else name := e)
      vars
  in
  let writes =
    List.mapi
      (fun i (p, _) ->
        let w = write p (v (var_name (rnd r n_vars)) +: if i = 0 then int 0 else expr 1) in
        (* one in three writes sits under a data-dependent guard *)
        if rnd r 3 = 0 then when_ (v (var_name (rnd r n_vars)) >=: int (rnd r 24)) [ w ] else w)
      outs
  in
  let continue_cond =
    if rnd r 3 = 0 then
      (* geometric early exit: survives each iteration with prob 7/8 *)
      v (var_name (rnd r n_vars)) &: int 7 <>: int (rnd r 8)
    else int 1
  in
  let body = body_assigns @ [ wait ] @ writes in
  design
    (Printf.sprintf "fuzz%d" seed)
    ~ins ~outs ~vars
    (pre @ [ do_while ~name:"main" ~min_latency:1 ~max_latency:64 body continue_cond ])

type fuzz_failure = {
  ff_case : int;
  ff_seed : int;
  ff_arch : string;  (** micro-architecture + stimulus description *)
  ff_detail : string;  (** mismatching verdict or exception *)
}

type fuzz_report = {
  fz_cases : int;
  fz_equivalent : int;
  fz_infeasible : int;  (** schedule found no feasible pipeline: skipped *)
  fz_checked_values : int;
  fz_failures : fuzz_failure list;
}

(* the full kernel result record, field by field *)
let same_kernel_result (a : Kernel_sim.result) (b : Kernel_sim.result) =
  let same_event (x : Kernel_sim.output_event) (y : Kernel_sim.output_event) =
    String.equal x.k_port y.k_port && x.k_iter = y.k_iter && x.k_cycle = y.k_cycle
    && x.k_value = y.k_value
  in
  a.k_iters = b.k_iters && a.k_cycles = b.k_cycles && a.k_stall_cycles = b.k_stall_cycles
  && a.k_squashed = b.k_squashed
  && List.equal same_event a.k_outputs b.k_outputs

let fuzz_ok r = r.fz_failures = [] && r.fz_equivalent > 0

let fuzz_to_string r =
  Printf.sprintf "fuzz: %d cases, %d equivalent, %d infeasible, %d values checked, %d failures%s"
    r.fz_cases r.fz_equivalent r.fz_infeasible r.fz_checked_values (List.length r.fz_failures)
    (match r.fz_failures with
    | [] -> ""
    | f :: _ -> Printf.sprintf " (first: case %d seed %d [%s] %s)" f.ff_case f.ff_seed f.ff_arch f.ff_detail)

(** Run [cases] seeded random three-way checks.  Per case: generate a
    design, pick a micro-architecture (II, clock) and a stimulus (length,
    stall duty), then require behavioural ≡ schedule-sim ≡ compiled
    kernel on every output port, equal commit counts, and an identical
    full result record between the interpreted and compiled kernel
    engines.  Infeasible schedules are skipped (counted), never hidden
    failures.  Deterministic for a given [seed]. *)
let fuzz ?(cases = 200) ~seed () =
  let lib = Hls_techlib.Library.artisan90 in
  let equivalent = ref 0 and infeasible = ref 0 and checked = ref 0 in
  let failures = ref [] in
  for case = 0 to cases - 1 do
    let cseed = mix ((seed * 1000003) + case) land 0xFFFFFF in
    let r = rng_make (cseed + 77) in
    let d = gen_design ~seed:cseed in
    let ii = pick r [ None; None; Some 1; Some 2; Some 3 ] in
    let clock_ps = pick r [ 1200.0; 1600.0; 2500.0 ] in
    let n_iters = pick r [ 5; 13; 40 ] in
    let duty = pick r [ `Full; `Half; `Hash ] in
    let stall_pattern =
      match duty with
      | `Full -> fun _ -> true
      | `Half -> fun c -> c mod 2 = 0
      | `Hash -> fun c -> mix (c + cseed) land 3 <> 0 (* 75% go *)
    in
    let arch =
      Printf.sprintf "ii=%s clock=%.0f n=%d duty=%s"
        (match ii with None -> "auto" | Some i -> string_of_int i)
        clock_ps n_iters
        (match duty with `Full -> "full" | `Half -> "half" | `Hash -> "hash75")
    in
    match
      let e = Elaborate.design d in
      let region = Elaborate.main_region ?ii e in
      (e, Hls_core.Scheduler.schedule ~lib ~clock_ps region)
    with
    | exception exn ->
        failures :=
          { ff_case = case; ff_seed = cseed; ff_arch = arch;
            ff_detail = "front-end raised: " ^ Printexc.to_string exn }
          :: !failures
    | _, Error _ -> incr infeasible
    | e, Ok s -> (
        let stim = Stimulus.small_random ~seed:cseed ~n_iters ~ports:d.Ast.d_ins in
        match
          let golden = Behav.run d stim in
          let analytic = Schedule_sim.run e s stim in
          let compiled = Kernel_sim.run ~stall_pattern ~engine:`Compiled e s stim in
          let interp = Kernel_sim.run ~stall_pattern ~engine:`Interp e s stim in
          (golden, analytic, compiled, interp)
        with
        | exception exn ->
            failures :=
              { ff_case = case; ff_seed = cseed; ff_arch = arch;
                ff_detail = "simulation raised: " ^ Printexc.to_string exn }
              :: !failures
        | golden, analytic, compiled, interp ->
            let va = check ~out_ports:d.Ast.d_outs golden analytic in
            let vk = check_kernel ~out_ports:d.Ast.d_outs golden compiled in
            let v = both va vk in
            checked := !checked + v.checked_values;
            let fail detail =
              failures :=
                { ff_case = case; ff_seed = cseed; ff_arch = arch; ff_detail = detail }
                :: !failures
            in
            if not v.equivalent then fail (verdict_to_string v)
            else if analytic.Schedule_sim.r_iters <> compiled.Kernel_sim.k_iters then
              fail
                (Printf.sprintf "commit counts differ: analytic %d vs kernel %d"
                   analytic.Schedule_sim.r_iters compiled.Kernel_sim.k_iters)
            else if not (same_kernel_result interp compiled) then
              fail
                (Printf.sprintf
                   "engines diverge: interp {iters=%d;cycles=%d;stalls=%d;squashed=%d;outs=%d} vs \
                    compiled {iters=%d;cycles=%d;stalls=%d;squashed=%d;outs=%d}"
                   interp.Kernel_sim.k_iters interp.Kernel_sim.k_cycles
                   interp.Kernel_sim.k_stall_cycles interp.Kernel_sim.k_squashed
                   (List.length interp.Kernel_sim.k_outputs) compiled.Kernel_sim.k_iters
                   compiled.Kernel_sim.k_cycles compiled.Kernel_sim.k_stall_cycles
                   compiled.Kernel_sim.k_squashed
                   (List.length compiled.Kernel_sim.k_outputs))
            else incr equivalent)
  done;
  {
    fz_cases = cases;
    fz_equivalent = !equivalent;
    fz_infeasible = !infeasible;
    fz_checked_values = !checked;
    fz_failures = List.rev !failures;
  }
