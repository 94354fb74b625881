(** Elaboration: lowered {!Ast.design} → {!Hls_ir.Cdfg.t} plus region
    membership information.

    This reproduces the paper's elaboration step (Fig. 2/3), lowered
    straight to one graph: the thread body becomes DFG operations with data
    dependencies as DFG edges, split into pre-loop, loop-body and post-loop
    region members.  The [wait()] boundaries are not graph nodes: they
    number the control steps, which survive as the body's source latency
    ([li_waits]) and, in timed mode, as the [anchor] pinning each port op
    to its wait state.  Loop-carried variables become [Loop_mux] operations
    whose port 1 is a distance-1 edge from the value computed by the
    previous iteration — exactly the [loopMux] feeding [aver] in Fig. 3(b).

    Wait-free conditionals are predicate-converted on the fly: operations
    from the branches carry {!Hls_ir.Guard} atoms over the (1-bit
    normalized) condition op, and variables assigned in the branches are
    merged with [Mux] operations at the join — the straight-line form of
    Fig. 4(b).  Wait-bearing conditionals were already flattened by
    {!Desugar}.

    Per-iteration I/O semantics: reading the same input port several times
    within one iteration scope yields one [Read] op (one sample per
    iteration), mirroring SystemC's stable [sc_in] values within a clock
    cycle; port reads are unconditional (reads are speculation-safe), while
    port writes keep their guard and commit conditionally. *)

open Hls_ir

exception Error = Fault.Error

let err fmt = Fault.fail ~code:"frontend" fmt

type loop_info = {
  li_attrs : Ast.loop_attrs;
  li_members : int list;  (** DFG ops scheduled inside the loop body *)
  li_continue : int option;  (** continue-while-nonzero op; [None] = infinite loop *)
  li_stall : int option;
  li_waits : int;  (** source latency: number of waits in the body *)
  li_carried : (string * int) list;  (** variable -> its [Loop_mux] op *)
  li_exit_env : (string * int) list;  (** variable values at loop exit *)
}

type t = {
  cdfg : Cdfg.t;
  source : Ast.design;  (** the lowered design (input to the simulators) *)
  pre_members : int list;
  loop : loop_info option;
  post_members : int list;
  nest : Region.nest option;  (** set when the frontend flattened a loop nest *)
}

type ctx = {
  cd : Cdfg.t;
  widths : (string, int) Hashtbl.t;
  mutable env : (string, int) Hashtbl.t;
  mutable guard : Guard.t;
  mutable sink : int list ref;  (** region-membership recorder *)
  mutable touched : (string, unit) Hashtbl.t list;  (** branch write trackers *)
  mutable wait_ix : int;
  timed : bool;
  port_cache : (string, int) Hashtbl.t;
  const_cache : (int * int, int) Hashtbl.t;
  mutable stall : int option;
}

let emit ?(guard_override = None) ?anchor ctx kind ~width ~name inputs =
  let guard = match guard_override with Some g -> g | None -> ctx.guard in
  let op = Dfg.add_op ctx.cd.Cdfg.dfg kind ~width ~guard ~name ?anchor in
  List.iteri (fun i src -> Dfg.connect ctx.cd.Cdfg.dfg ~src ~dst:op.Dfg.id ~port:i) inputs;
  ctx.sink := op.Dfg.id :: !(ctx.sink);
  op.Dfg.id

let op_width ctx id = (Dfg.find ctx.cd.Cdfg.dfg id).Dfg.width

let const ctx n w =
  let w = Width.clamp (max w (Width.bits_for_signed n)) in
  match Hashtbl.find_opt ctx.const_cache (n, w) with
  | Some id -> id
  | None ->
      let id =
        emit ~guard_override:(Some Guard.always) ctx (Opkind.Const n) ~width:w
          ~name:(Printf.sprintf "c%d" n) []
      in
      Hashtbl.replace ctx.const_cache (n, w) id;
      id

(** Insert a width-conversion wire op when needed. *)
let coerce ctx id ~width =
  let w = op_width ctx id in
  if w = width then id
  else if w > width then emit ctx (Opkind.Slice (width - 1, 0)) ~width ~name:"trunc" [ id ]
  else emit ctx (Opkind.Sext width) ~width ~name:"sext" [ id ]

(** Normalize a condition to one bit ([x] becomes [x != 0]). *)
let bool_of ctx id =
  if op_width ctx id = 1 then id
  else
    let z = const ctx 0 (op_width ctx id) in
    emit ctx (Opkind.Bin Opkind.Neq) ~width:1 ~name:"truthy" [ id; z ]

let record_touch ctx v = List.iter (fun tbl -> Hashtbl.replace tbl v ()) ctx.touched

let rec expr ctx (e : Ast.expr) : int =
  match e with
  | Ast.Int n -> const ctx n (Width.bits_for_signed n)
  | Ast.Int_w (n, w) -> const ctx n w
  | Ast.Var v -> (
      match Hashtbl.find_opt ctx.env v with
      | Some id -> id
      | None -> err "variable '%s' used before assignment" v)
  | Ast.Port p -> (
      match Hashtbl.find_opt ctx.port_cache p with
      | Some id -> id
      | None ->
          let w =
            match Cdfg.port_width ctx.cd p with
            | Some w -> w
            | None -> err "undeclared input port '%s'" p
          in
          let anchor = if ctx.timed then Some ctx.wait_ix else None in
          let id =
            emit ~guard_override:(Some Guard.always) ?anchor ctx (Opkind.Read p) ~width:w
              ~name:(p ^ "_read") []
          in
          Hashtbl.replace ctx.port_cache p id;
          id)
  | Ast.Bin (op, a, b) ->
      let ia = expr ctx a and ib = expr ctx b in
      let w = Opkind.result_width (Opkind.Bin op) [ op_width ctx ia; op_width ctx ib ] in
      emit ctx (Opkind.Bin op) ~width:w ~name:"" [ ia; ib ]
  | Ast.Un (op, a) ->
      let ia = expr ctx a in
      let w = Opkind.result_width (Opkind.Un op) [ op_width ctx ia ] in
      emit ctx (Opkind.Un op) ~width:w ~name:"" [ ia ]
  | Ast.Cond (c, a, b) ->
      let ic = bool_of ctx (expr ctx c) in
      let ia = expr ctx a and ib = expr ctx b in
      let w = max (op_width ctx ia) (op_width ctx ib) in
      let ia = coerce ctx ia ~width:w and ib = coerce ctx ib ~width:w in
      emit ctx Opkind.Mux ~width:w ~name:"sel" [ ic; ia; ib ]
  | Ast.Slice (a, hi, lo) ->
      let ia = expr ctx a in
      emit ctx (Opkind.Slice (hi, lo)) ~width:(Width.clamp (hi - lo + 1)) ~name:"" [ ia ]
  | Ast.Call (f, args, w) ->
      let ids = List.map (expr ctx) args in
      emit ctx (Opkind.Call { Opkind.callee = f; call_latency = 1 }) ~width:w ~name:f ids

let var_width ctx v ~default =
  match Hashtbl.find_opt ctx.widths v with
  | Some w -> w
  | None ->
      Hashtbl.replace ctx.widths v default;
      default

let rec stmt ctx (s : Ast.stmt) =
  match s with
  | Ast.Assign (v, e) ->
      let id = expr ctx e in
      let w = var_width ctx v ~default:(op_width ctx id) in
      let id = coerce ctx id ~width:w in
      Hashtbl.replace ctx.env v id;
      record_touch ctx v
  | Ast.Write (p, e) ->
      let id = expr ctx e in
      let w =
        match List.assoc_opt p ctx.cd.Cdfg.out_ports with
        | Some w -> w
        | None -> err "undeclared output port '%s'" p
      in
      let id = coerce ctx id ~width:w in
      let anchor = if ctx.timed then Some ctx.wait_ix else None in
      ignore (emit ?anchor ctx (Opkind.Write p) ~width:w ~name:(p ^ "_write") [ id ])
  | Ast.Wait -> ctx.wait_ix <- ctx.wait_ix + 1
  | Ast.Stall_until e ->
      let id = bool_of ctx (expr ctx e) in
      ctx.stall <- Some id
  | Ast.If (c, t, f) ->
      let cid = bool_of ctx (expr ctx c) in
      let g0 = ctx.guard in
      let env0 = ctx.env in
      let run_branch polarity stmts =
        match Guard.add g0 ~pred:cid ~polarity with
        | None -> (env0, Hashtbl.create 1) (* contradictory guard: dead branch *)
        | Some g ->
            let env = Hashtbl.copy env0 in
            let touched = Hashtbl.create 8 in
            ctx.env <- env;
            ctx.guard <- g;
            ctx.touched <- touched :: ctx.touched;
            List.iter (stmt ctx) stmts;
            ctx.touched <- List.tl ctx.touched;
            ctx.env <- env0;
            ctx.guard <- g0;
            (env, touched)
      in
      let env_t, touched_t = run_branch true t in
      let env_f, touched_f = run_branch false f in
      let all_touched = Hashtbl.copy touched_t in
      Hashtbl.iter (fun v () -> Hashtbl.replace all_touched v ()) touched_f;
      Hashtbl.iter
        (fun v () ->
          let before = Hashtbl.find_opt env0 v in
          let tv = Option.value (Hashtbl.find_opt env_t v) ~default:(Option.value before ~default:(-1))
          and fv = Option.value (Hashtbl.find_opt env_f v) ~default:(Option.value before ~default:(-1)) in
          let tv = if tv = -1 then fv else tv and fv = if fv = -1 then tv else fv in
          if tv = fv then begin
            Hashtbl.replace ctx.env v tv;
            record_touch ctx v
          end
          else begin
            let w = var_width ctx v ~default:(max (op_width ctx tv) (op_width ctx fv)) in
            let tv = coerce ctx tv ~width:w and fv = coerce ctx fv ~width:w in
            let m = emit ctx Opkind.Mux ~width:w ~name:(v ^ "_sel") [ cid; tv; fv ] in
            Hashtbl.replace ctx.env v m;
            record_touch ctx v
          end)
        all_touched
  | Ast.Do_while _ | Ast.While _ | Ast.For _ ->
      err "internal: loop statement reached the statement elaborator"

let elaborate_loop ctx (body, cond, attrs) =
  let loop_sink = ref [] in
  (* Loop-carried variables: assigned in the body and live into it. *)
  let carried =
    Ast.assigned_vars body
    |> List.sort_uniq compare
    |> List.filter (fun v -> Hashtbl.mem ctx.env v)
  in
  (* Coerce initial values while still in the enclosing region. *)
  let inits =
    List.map
      (fun v ->
        let init = Hashtbl.find ctx.env v in
        let w = var_width ctx v ~default:(op_width ctx init) in
        (v, coerce ctx init ~width:w, w))
      carried
  in
  ctx.sink <- loop_sink;
  Hashtbl.reset ctx.port_cache;
  Hashtbl.reset ctx.const_cache;
  let wait_base = ctx.wait_ix in
  ctx.wait_ix <- 0;
  let muxes =
    List.map
      (fun (v, init, w) ->
        let lm = emit ctx Opkind.Loop_mux ~width:w ~name:(v ^ "_loop") [ init ] in
        Hashtbl.replace ctx.env v lm;
        (v, lm))
      inits
  in
  List.iter (stmt ctx) body;
  let continue_op =
    match cond with
    | Ast.Int k | Ast.Int_w (k, _) -> if k <> 0 then None else err "do/while(0): not a loop"
    | _ -> Some (bool_of ctx (expr ctx cond))
  in
  (* close the loop-carried cycles *)
  List.iter
    (fun (v, lm) ->
      let final = Hashtbl.find ctx.env v in
      let w = op_width ctx lm in
      let final = coerce ctx final ~width:w in
      Dfg.connect ctx.cd.Cdfg.dfg ~src:final ~dst:lm ~port:1 ~distance:1)
    muxes;
  let li_waits = max 1 ctx.wait_ix in
  ctx.wait_ix <- wait_base;
  let stall = ctx.stall in
  ctx.stall <- None;
  {
    li_attrs = attrs;
    li_members = List.rev !loop_sink;
    li_continue = continue_op;
    li_stall = stall;
    li_waits;
    li_carried = muxes;
    li_exit_env = List.map (fun (v, _) -> (v, Hashtbl.find ctx.env v)) muxes;
  }

(** Elaborate a design.  The design is desugared and checked first; raises
    {!Fault.Error} on any frontend problem.  [timed] pins I/O operations
    to their source wait states (partially-timed mode); the default untimed
    mode lets the scheduler re-time everything, as in the paper's worked
    examples.  [nest] selects the loop-nest lowering (see
    {!Desugar.nest_mode}). *)
let design ?(timed = false) ?nest (d : Ast.design) : t =
  let d, nest = Desugar.design_ex ?nest d in
  Check.run_exn d;
  let cd = Cdfg.create ~name:d.Ast.d_name ~in_ports:d.Ast.d_ins ~out_ports:d.Ast.d_outs in
  let widths = Hashtbl.create 16 in
  List.iter (fun (v, w) -> Hashtbl.replace widths v w) d.Ast.d_vars;
  let pre_sink = ref [] in
  let ctx =
    {
      cd;
      widths;
      env = Hashtbl.create 16;
      guard = Guard.always;
      sink = pre_sink;
      touched = [];
      wait_ix = 0;
      timed;
      port_cache = Hashtbl.create 8;
      const_cache = Hashtbl.create 8;
      stall = None;
    }
  in
  (* split the body at the main loop *)
  let rec split acc = function
    | [] -> (List.rev acc, None, [])
    | (Ast.Do_while (b, c, a)) :: rest -> (List.rev acc, Some (b, c, a), rest)
    | s :: rest -> split (s :: acc) rest
  in
  let pre, main_loop, post = split [] d.Ast.d_body in
  List.iter (stmt ctx) pre;
  let loop = Option.map (elaborate_loop ctx) main_loop in
  let post_sink = ref [] in
  ctx.sink <- post_sink;
  Hashtbl.reset ctx.port_cache;
  Hashtbl.reset ctx.const_cache;
  List.iter (stmt ctx) post;
  {
    cdfg = cd;
    source = d;
    pre_members = List.rev !pre_sink;
    loop;
    post_members = List.rev !post_sink;
    nest;
  }

(** Convert the elaborated main loop (or, absent a loop, the whole design)
    into a scheduling {!Region}.  [ii] requests pipelining; latency bounds
    default to the loop attributes.  When the frontend flattened a loop
    nest, the region carries the {!Region.nest} annotation, so
    per-dimension IIs and strides are available downstream. *)
let main_region ?ii ?min_latency ?max_latency (t : t) : Region.t =
  match t.loop with
  | Some li ->
      let a = li.li_attrs in
      let ii = match ii with Some _ -> ii | None -> a.Ast.l_ii in
      let pipeline = Option.map (fun ii -> { Region.ii }) ii in
      Region.create
        ~min_steps:(Option.value min_latency ~default:a.Ast.l_min_latency)
        ~max_steps:(Option.value max_latency ~default:a.Ast.l_max_latency)
        ?pipeline ?continue_cond:li.li_continue ?stall_cond:li.li_stall ~is_loop:true
        ~source_waits:li.li_waits ~members:li.li_members ?nest:t.nest ~name:a.Ast.l_name
        t.cdfg.Cdfg.dfg
  | None ->
      Region.create
        ~min_steps:(Option.value min_latency ~default:1)
        ~max_steps:(Option.value max_latency ~default:64)
        ~source_waits:(max 1 (Ast.count_waits t.source.Ast.d_body))
        ~members:t.pre_members ~name:t.source.Ast.d_name t.cdfg.Cdfg.dfg
