(** Golden behavioural interpreter over the (lowered) AST.

    Executes the design's thread body directly: the pre-loop statements,
    the main do/while loop one iteration at a time, and the post-loop
    statements.  Width semantics mirror elaboration exactly — every
    operation produces {!Hls_ir.Opkind.result_width} bits and assignments
    truncate to the variable's declared width — so the interpreter is a
    bit-accurate reference for the scheduled design.

    Port sampling follows the per-iteration convention of the frontend:
    iteration [i] of the main loop reads sample [i] of every input port it
    touches; pre-loop reads sample 0.

    Black-box [Call] operations are resolved through a user-supplied
    function table; the default is a deterministic hash so that equivalence
    checks remain meaningful without a real IP model. *)

open Hls_ir
open Hls_frontend

type output_event = { o_port : string; o_iter : int; o_value : int }

type result = {
  r_outputs : output_event list;  (** in program order *)
  r_iters : int;  (** main-loop iterations executed *)
  r_env : (string * int) list;  (** final variable values *)
}

let default_fun name args =
  List.fold_left (fun acc a -> (acc * 31) + a) (Hashtbl.hash name land 0xFFFF) args land 0xFFFFF

type ctx = {
  stim : Stimulus.t;
  funcs : string -> int list -> int;
  widths : (string, int) Hashtbl.t;
  env : (string, int) Hashtbl.t;
  mutable iter : int;
  mutable outputs : output_event list;
  design : Ast.design;
}

let trunc = Width.truncate

let rec eval ctx (e : Ast.expr) : int * int =
  (* returns (value, width) *)
  match e with
  | Ast.Int n -> (n, Width.bits_for_signed n)
  | Ast.Int_w (n, w) -> (trunc ~width:w n, w)
  | Ast.Var v -> (
      match Hashtbl.find_opt ctx.env v with
      | Some x -> (x, Option.value (Hashtbl.find_opt ctx.widths v) ~default:32)
      | None -> invalid_arg ("Behav.eval: unassigned variable " ^ v))
  | Ast.Port p ->
      let w =
        match List.assoc_opt p ctx.design.Ast.d_ins with
        | Some w -> w
        | None -> invalid_arg ("Behav.eval: unknown port " ^ p)
      in
      (trunc ~width:w (Stimulus.value ctx.stim ~port:p ~iter:ctx.iter), w)
  | Ast.Bin (op, a, b) ->
      let va, wa = eval ctx a and vb, wb = eval ctx b in
      let w = Opkind.result_width (Opkind.Bin op) [ wa; wb ] in
      (trunc ~width:w (Opkind.binop_fn op va vb), w)
  | Ast.Un (op, a) ->
      let va, wa = eval ctx a in
      let w = Opkind.result_width (Opkind.Un op) [ wa ] in
      (trunc ~width:w (Opkind.unop_fn op va), w)
  | Ast.Cond (c, a, b) ->
      let vc, _ = eval ctx c in
      (* both branches evaluate in hardware; values are pure so evaluating
         lazily here is equivalent *)
      let va, wa = eval ctx a and vb, wb = eval ctx b in
      let w = max wa wb in
      (trunc ~width:w (if vc <> 0 then va else vb), w)
  | Ast.Slice (a, hi, lo) ->
      let va, _ = eval ctx a in
      let w = Width.clamp (hi - lo + 1) in
      (trunc ~width:w (Opkind.slice_fn ~hi ~lo va), w)
  | Ast.Call (f, args, w) ->
      let vs = List.map (fun a -> fst (eval ctx a)) args in
      (trunc ~width:w (ctx.funcs f vs), w)

let assign ctx v value ~width =
  let w =
    match Hashtbl.find_opt ctx.widths v with
    | Some w -> w
    | None ->
        Hashtbl.replace ctx.widths v width;
        width
  in
  Hashtbl.replace ctx.env v (trunc ~width:w value)

let rec exec_stmt ctx (s : Ast.stmt) =
  match s with
  | Ast.Assign (v, e) ->
      let value, w = eval ctx e in
      assign ctx v value ~width:w
  | Ast.Write (p, e) ->
      let value, _ = eval ctx e in
      let w =
        match List.assoc_opt p ctx.design.Ast.d_outs with
        | Some w -> w
        | None -> invalid_arg ("Behav: unknown output port " ^ p)
      in
      ctx.outputs <-
        { o_port = p; o_iter = ctx.iter; o_value = trunc ~width:w value } :: ctx.outputs
  | Ast.Wait | Ast.Stall_until _ -> ()
  | Ast.If (c, t, f) ->
      let vc, _ = eval ctx c in
      List.iter (exec_stmt ctx) (if vc <> 0 then t else f)
  | Ast.Do_while _ | Ast.While _ | Ast.For _ ->
      invalid_arg "Behav.exec_stmt: unexpected loop (use Behav.run on the design)"

(* ------------------------------------------------------------------ *)
(* Compiled fast path for the main loop.

   The loop body dominates golden-trace generation on long stimuli, and
   its widths are almost always statically determinable: widths are
   sticky (fixed at a variable's first assignment) and every width rule
   depends only on operand widths, so as long as each undeclared
   variable's first assignment sits outside conditional branches the
   whole body compiles to closures over a dense variable-slot array —
   no hashtable lookups, no width recomputation per iteration.  Any
   construct that defeats static widths (first assignment inside an
   [If], nested loops) falls back to the tree-walker above. *)

exception Fallback

type comp = {
  c_widths : (string, int) Hashtbl.t;  (** static widths, seeded from ctx *)
  c_slot : (string, int) Hashtbl.t;
  mutable c_nslots : int;
  c_stim : Stimulus.t;
  c_funcs : string -> int list -> int;
  c_design : Ast.design;
  c_iter : int ref;
}

let slot_of c v =
  match Hashtbl.find_opt c.c_slot v with
  | Some i -> i
  | None ->
      let i = c.c_nslots in
      c.c_nslots <- i + 1;
      Hashtbl.replace c.c_slot v i;
      i

(* compile an expression to (closure, static width) over the slot arrays *)
let rec cexpr c ~(slots : int array ref) ~(live : bool array ref) (e : Ast.expr) :
    (unit -> int) * int =
  let sub e = cexpr c ~slots ~live e in
  match e with
  | Ast.Int n -> ((fun () -> n), Width.bits_for_signed n)
  | Ast.Int_w (n, w) ->
      let v = trunc ~width:w n in
      ((fun () -> v), w)
  | Ast.Var v -> (
      match Hashtbl.find_opt c.c_widths v with
      | None -> raise Fallback (* width unknown statically: first use precedes assignment *)
      | Some w ->
          let i = slot_of c v in
          ( (fun () ->
              if not !live.(i) then invalid_arg ("Behav.eval: unassigned variable " ^ v);
              !slots.(i)),
            w ))
  | Ast.Port p ->
      (* unknown ports fall back so the raise happens (or not) exactly
         where the tree-walker would raise it *)
      let w =
        match List.assoc_opt p c.c_design.Ast.d_ins with
        | Some w -> w
        | None -> raise Fallback
      in
      let samples =
        match List.assoc_opt p c.c_stim.Stimulus.samples with
        | Some a -> a
        | None -> raise Fallback
      in
      let n = Array.length samples in
      let iter = c.c_iter in
      ( (fun () ->
          let i = !iter in
          trunc ~width:w (if i < 0 || i >= n then 0 else samples.(i))),
        w )
  | Ast.Bin (op, a, b) ->
      let fa, wa = sub a and fb, wb = sub b in
      let w = Opkind.result_width (Opkind.Bin op) [ wa; wb ] in
      let f = Opkind.binop_fn op in
      (* the left operand first, as in the tree-walker (visible only
         through impure [funcs]) *)
      ( (fun () ->
          let va = fa () in
          let vb = fb () in
          trunc ~width:w (f va vb)),
        w )
  | Ast.Un (op, a) ->
      let fa, wa = sub a in
      let w = Opkind.result_width (Opkind.Un op) [ wa ] in
      let f = Opkind.unop_fn op in
      ((fun () -> trunc ~width:w (f (fa ()))), w)
  | Ast.Cond (cnd, a, b) ->
      let fc, _ = sub cnd in
      let fa, wa = sub a and fb, wb = sub b in
      let w = max wa wb in
      (* both branches evaluate, as in the tree-walker (hardware computes
         both; visible only through impure [funcs]) *)
      ( (fun () ->
          let vc = fc () in
          let va = fa () and vb = fb () in
          trunc ~width:w (if vc <> 0 then va else vb)),
        w )
  | Ast.Slice (a, hi, lo) ->
      let fa, _ = sub a in
      let w = Width.clamp (hi - lo + 1) in
      let f = Opkind.slice_fn ~hi ~lo in
      ((fun () -> trunc ~width:w (f (fa ()))), w)
  | Ast.Call (f, args, w) ->
      let fs = List.map (fun a -> fst (sub a)) args in
      let funcs = c.c_funcs in
      ((fun () -> trunc ~width:w (funcs f (List.map (fun g -> g ()) fs))), w)

(* compile a statement list; [conditional] guards the sticky-width rule *)
let rec cstmts c ~slots ~live ~conditional ~(emit : output_event -> unit) stmts :
    (unit -> unit) array =
  let cstmt (s : Ast.stmt) : unit -> unit =
    match s with
    | Ast.Assign (v, e) ->
        let f, we = cexpr c ~slots ~live e in
        let w =
          match Hashtbl.find_opt c.c_widths v with
          | Some w -> w
          | None ->
              (* first assignment fixes the width; inside a conditional the
                 tree-walker's choice depends on the branch taken *)
              if conditional then raise Fallback;
              Hashtbl.replace c.c_widths v we;
              we
        in
        let i = slot_of c v in
        fun () ->
          let value = trunc ~width:w (f ()) in
          !slots.(i) <- value;
          !live.(i) <- true
    | Ast.Write (p, e) ->
        let f, _ = cexpr c ~slots ~live e in
        let w =
          match List.assoc_opt p c.c_design.Ast.d_outs with
          | Some w -> w
          | None -> raise Fallback
        in
        let iter = c.c_iter in
        fun () -> emit { o_port = p; o_iter = !iter; o_value = trunc ~width:w (f ()) }
    | Ast.Wait | Ast.Stall_until _ -> fun () -> ()
    | Ast.If (cnd, t, f) ->
        let fc, _ = cexpr c ~slots ~live cnd in
        let ft = cstmts c ~slots ~live ~conditional:true ~emit t in
        let ff = cstmts c ~slots ~live ~conditional:true ~emit f in
        fun () -> Array.iter (fun g -> g ()) (if fc () <> 0 then ft else ff)
    | Ast.Do_while _ | Ast.While _ | Ast.For _ -> raise Fallback
  in
  Array.of_list (List.map cstmt stmts)

(** Execute one outer round of the design: pre statements, the main loop
    (bounded by [stim.n_iters]), post statements. *)
let run ?(funcs = default_fun) ?nest (design : Ast.design) (stim : Stimulus.t) : result =
  let design = Desugar.design ?nest design in
  let ctx =
    {
      stim;
      funcs;
      widths = Hashtbl.create 16;
      env = Hashtbl.create 16;
      iter = 0;
      outputs = [];
      design;
    }
  in
  List.iter (fun (v, w) -> Hashtbl.replace ctx.widths v w) design.Ast.d_vars;
  let rec split acc = function
    | [] -> (List.rev acc, None, [])
    | Ast.Do_while (b, c, a) :: rest -> (List.rev acc, Some (b, c, a), rest)
    | s :: rest -> split (s :: acc) rest
  in
  let pre, main_loop, post = split [] design.Ast.d_body in
  List.iter (exec_stmt ctx) pre;
  let iters = ref 0 in
  let run_tree body cond =
    let continue_ = ref true in
    while !continue_ && ctx.iter < stim.Stimulus.n_iters do
      List.iter (exec_stmt ctx) body;
      incr iters;
      let vc, _ = eval ctx cond in
      if vc = 0 then continue_ := false else ctx.iter <- ctx.iter + 1
    done
  in
  (match main_loop with
  | None -> ()
  | Some (body, cond, _) -> (
      (* compile the loop body once; widths must be fully static *)
      let c =
        {
          c_widths = Hashtbl.copy ctx.widths;
          c_slot = Hashtbl.create 16;
          c_nslots = 0;
          c_stim = stim;
          c_funcs = funcs;
          c_design = design;
          c_iter = ref ctx.iter;
        }
      in
      let slots = ref [||] and live = ref [||] in
      let out = ref [] in
      let emit ev = out := ev :: !out in
      match
        let fbody = cstmts c ~slots ~live ~conditional:false ~emit body in
        let fcond = fst (cexpr c ~slots ~live cond) in
        (fbody, fcond)
      with
      | exception Fallback -> run_tree body cond
      | fbody, fcond ->
          slots := Array.make (max 1 c.c_nslots) 0;
          live := Array.make (max 1 c.c_nslots) false;
          Hashtbl.iter
            (fun v i ->
              match Hashtbl.find_opt ctx.env v with
              | Some x ->
                  !slots.(i) <- x;
                  !live.(i) <- true
              | None -> ())
            c.c_slot;
          let n_iters = stim.Stimulus.n_iters in
          let iter = c.c_iter in
          let continue_ = ref true in
          while !continue_ && !iter < n_iters do
            Array.iter (fun f -> f ()) fbody;
            incr iters;
            if fcond () = 0 then continue_ := false else incr iter
          done;
          ctx.iter <- !iter;
          (* publish the compiled state back into the interpreter context
             for the post statements and the final environment *)
          Hashtbl.iter
            (fun v i -> if !live.(i) then Hashtbl.replace ctx.env v !slots.(i))
            c.c_slot;
          Hashtbl.iter (fun v w -> Hashtbl.replace ctx.widths v w) c.c_widths;
          ctx.outputs <- !out @ ctx.outputs));
  List.iter (exec_stmt ctx) post;
  {
    r_outputs = List.rev ctx.outputs;
    r_iters = !iters;
    r_env =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) ctx.env []
      |> List.sort (fun (a, x) (b, y) ->
             let c = String.compare a b in
             if c <> 0 then c else Int.compare x y);
  }

(** Outputs of one port, in emission order. *)
let port_values (r : result) port =
  List.filter_map (fun o -> if o.o_port = port then Some o.o_value else None) r.r_outputs
