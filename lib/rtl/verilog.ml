(** Verilog-2001 emitter for a scheduled (and folded) design.

    The generated module is the structural mirror of what the area model
    counts: one FSM whose states are the kernel states (II of them for a
    pipelined loop), stage-valid bits implementing prologue/epilogue and
    stalling, a first-iteration flag driving the loop muxes, per-value
    registers with enables decoded from (state, stage-valid, guard), and
    combinational datapath expressions that inline the same-step chains the
    scheduler approved.

    The emitter aims for readable, synthesizable RTL; its output is
    exercised by golden tests and by a structural self-check
    ({!lint}) that verifies every referenced identifier is declared and
    begin/end pairs balance.

    One pass over the region writes straight into the buffer: each op's
    wire and register names are built once (on first reference) into
    per-op-id arrays, and its placement is read once into int arrays. *)

open Hls_ir
open Hls_core
module Netlist = Hls_netlist.Netlist

(* characters of an op name that cannot appear in a Verilog identifier *)
let sanitize = function
  | '[' | ']' | ':' | '(' | ')' | '*' | '+' | '-' | '/' | '%' | '!' | '=' | '<' | '>' | '&' | '|'
  | '^' | '~' | ' ' | ',' ->
      '_'
  | c -> c

let binop_v : Opkind.binop -> string = function
  | Opkind.Add -> "+"
  | Opkind.Sub -> "-"
  | Opkind.Mul -> "*"
  | Opkind.Div -> "/"
  | Opkind.Mod -> "%"
  | Opkind.Shl -> "<<<"
  | Opkind.Shr -> ">>>"
  | Opkind.Band -> "&"
  | Opkind.Bor -> "|"
  | Opkind.Bxor -> "^"
  | Opkind.Land -> "&&"
  | Opkind.Lor -> "||"
  | Opkind.Eq -> "=="
  | Opkind.Neq -> "!="
  | Opkind.Lt -> "<"
  | Opkind.Le -> "<="
  | Opkind.Gt -> ">"
  | Opkind.Ge -> ">="

type ctx = {
  b : Buffer.t;
  dfg : Dfg.t;
  placed : bool array;  (** by op id *)
  step : int array;  (** placed ops only *)
  finish : int array;
  wires : string array;  (** ["v<id>_<name>"]; [""] until first built *)
  regs : string array;  (** the wire name ^ ["_r"]; [""] until first built *)
}

let str ctx s = Buffer.add_string ctx.b s
let strs ctx l = List.iter (str ctx) l
let num = string_of_int

let vname ctx id =
  let s = ctx.wires.(id) in
  if String.length s > 0 then s
  else
    let s = "v" ^ string_of_int id ^ "_" ^ String.map sanitize (Dfg.find ctx.dfg id).Dfg.name in
    ctx.wires.(id) <- s;
    s

let rname ctx id =
  let s = ctx.regs.(id) in
  if String.length s > 0 then s
  else
    let s = vname ctx id ^ "_r" in
    ctx.regs.(id) <- s;
    s

(** A producer as its consumer reads it: the producer's wire when it is
    chained into the consumer's step, else its register (a pre-region
    value is held in a register too). *)
let add_ref ctx ~consumer p =
  str ctx
    (if ctx.placed.(p) && ctx.placed.(consumer) && ctx.finish.(p) = ctx.step.(consumer) then
       vname ctx p
     else rname ctx p)

(** The driving expression of an op's input edge: the producer's register
    when the value crosses an iteration, else {!add_ref}. *)
let add_src ctx ~consumer (e : Dfg.edge) =
  if e.Dfg.distance > 0 then str ctx (rname ctx e.Dfg.src) else add_ref ctx ~consumer e.Dfg.src

let add_expr ctx (op : Dfg.op) =
  let id = op.Dfg.id in
  let ins = Array.of_list (Dfg.in_edges ctx.dfg id) in
  let arg i = add_src ctx ~consumer:id ins.(i) in
  match op.Dfg.kind with
  | Opkind.Bin b ->
      arg 0;
      strs ctx [ " "; binop_v b; " " ];
      arg 1
  | Opkind.Un u ->
      str ctx (match u with Opkind.Neg -> "-" | Opkind.Bnot -> "~" | Opkind.Lnot -> "!");
      arg 0
  | Opkind.Const n ->
      strs ctx [ (if n < 0 then "-" else ""); num op.Dfg.width; "'sd"; num (abs n) ]
  | Opkind.Read p -> str ctx p
  | Opkind.Write _ -> arg 0
  | Opkind.Mux ->
      arg 0;
      str ctx " ? ";
      arg 1;
      str ctx " : ";
      arg 2
  | Opkind.Loop_mux ->
      str ctx "first_iter ? ";
      arg 0;
      str ctx " : ";
      arg 1
  | Opkind.Slice (hi, lo) ->
      arg 0;
      strs ctx [ "["; num hi; ":"; num lo; "]" ]
  | Opkind.Zext n ->
      strs ctx [ "{{"; num n; "{1'b0}}, " ];
      arg 0;
      str ctx "}"
  | Opkind.Sext n ->
      strs ctx [ "{{"; num n; "{" ];
      arg 0;
      strs ctx [ "["; num (op.Dfg.width - 1); "]}}, " ];
      arg 0;
      str ctx "}"
  | Opkind.Concat ->
      str ctx "{";
      arg 0;
      str ctx ", ";
      arg 1;
      str ctx "}"
  | Opkind.Call c ->
      str ctx c.Opkind.callee;
      str ctx "(";
      Array.iteri
        (fun i _ ->
          if i > 0 then str ctx ", ";
          arg i)
        ins;
      str ctx ")"

let add_guard ctx (op : Dfg.op) =
  if Guard.is_always op.Dfg.guard then str ctx "1'b1"
  else
    List.iteri
      (fun i (a : Guard.atom) ->
        if i > 0 then str ctx " && ";
        if not a.Guard.polarity then str ctx "!";
        add_ref ctx ~consumer:op.Dfg.id a.Guard.pred)
      op.Dfg.guard

(* "state == <st> && stage_valid[<sg>] && (<guard>)" *)
let add_enable ctx op (st, sg) =
  strs ctx [ "state == "; num st; " && stage_valid["; num sg; "] && (" ];
  add_guard ctx op;
  str ctx ")"

(* "  <kind> signed [<width - 1>:0] <name>;\n" *)
let add_decl ctx kind width name =
  strs ctx [ kind; " signed ["; num (width - 1); ":0] "; name; ";\n" ]

(** Emit the full module. *)
let emit (elab : Hls_frontend.Elaborate.t) (sched : Scheduler.t) (fold : Pipeline.t) : string =
  let cd = elab.Hls_frontend.Elaborate.cdfg in
  let dfg = cd.Cdfg.dfg in
  let n = Dfg.size dfg in
  let region = sched.Scheduler.s_region in
  let nl = sched.Scheduler.s_binding.Binding.net in
  let ctx =
    {
      b = Buffer.create (4096 + (128 * n));
      dfg;
      placed = Array.make n false;
      step = Array.make n 0;
      finish = Array.make n 0;
      wires = Array.make n "";
      regs = Array.make n "";
    }
  in
  Netlist.iter_placements nl (fun id pl ->
      ctx.placed.(id) <- true;
      ctx.step.(id) <- pl.Netlist.pl_step;
      ctx.finish.(id) <- pl.Netlist.pl_finish);
  let ii = fold.Pipeline.f_ii in
  let stages = fold.Pipeline.f_stages in
  let pipelined = Region.is_pipelined region in
  let design_name = cd.Cdfg.name in
  let width id = (Dfg.find dfg id).Dfg.width in
  (* placed region members, ascending *)
  let iter_placed_members f =
    for id = 0 to n - 1 do
      if ctx.placed.(id) && Region.mem region id then f (Dfg.find dfg id)
    done
  in
  (* ---- header ---- *)
  strs ctx
    [
      "// Generated by hlspipe from design '"; design_name; "'\n";
      "// LI="; num fold.Pipeline.f_li; " II="; num ii; " stages="; num stages;
      " clock="; Printf.sprintf "%.0f" (Netlist.clock_ps nl);
      " ps\nmodule "; design_name; " (\n  input  wire clk,\n  input  wire rst,\n";
    ];
  List.iter
    (fun (p, w) -> strs ctx [ "  input  wire signed ["; num (w - 1); ":0] "; p; ",\n" ])
    cd.Cdfg.in_ports;
  let outs = cd.Cdfg.out_ports in
  let last = List.length outs - 1 in
  List.iteri
    (fun k (p, w) ->
      strs ctx
        [
          "  output reg  signed ["; num (w - 1); ":0] "; p; ",\n  output reg  "; p; "_valid";
          (if k = last then "\n" else ",\n");
        ])
    outs;
  str ctx ");\n\n";
  (* ---- controller ---- *)
  let state_bits =
    Int.max 1 (int_of_float (ceil (log (float_of_int (Int.max 2 ii)) /. log 2.0)))
  in
  strs ctx
    [
      "  // controller: "; num ii; " kernel state(s), "; num stages; " stage(s)\n";
      "  reg ["; num (state_bits - 1); ":0] state;\n";
      "  reg ["; num (stages - 1); ":0] stage_valid;\n";
      "  reg first_iter;\n";
      "  wire advance = 1'b1";
      (match region.Region.stall_cond with Some c -> " && " ^ rname ctx c | None -> "");
      ";\n  always @(posedge clk) begin\n";
      "    if (rst) begin\n      state <= 0;\n      stage_valid <= "; num stages; "'b";
      String.make (Int.max 0 (stages - 1)) '0'; "1;\n      first_iter <= 1'b1;\n    end\n";
      "    else if (advance) begin\n      if (state == "; num (ii - 1);
      ") begin\n        state <= 0;\n";
      (if pipelined && stages > 1 then
         "        stage_valid <= {stage_valid[" ^ num (stages - 2) ^ ":0], 1'b1};\n"
       else "        stage_valid <= 1'b1;\n");
      "        first_iter <= 1'b0;\n      end\n";
      "      else state <= state + 1;\n";
      "    end\n  end\n\n";
    ];
  (* ---- value wires ---- *)
  str ctx "  // datapath wires (one per scheduled operation)\n";
  iter_placed_members (fun op -> add_decl ctx "  wire" op.Dfg.width (vname ctx op.Dfg.id));
  str ctx "\n  // registered values\n";
  let registered = Netlist.registered_ops nl in
  let is_registered = Array.make n false in
  List.iter
    (fun id ->
      is_registered.(id) <- true;
      add_decl ctx "  reg" (width id) (rname ctx id))
    registered;
  (* pre-region values live in registers loaded before the loop; emitted as
     localparam-initialized registers for brevity *)
  (match elab.Hls_frontend.Elaborate.pre_members with
  | [] -> ()
  | pre ->
      str ctx "\n  // pre-loop values (loaded during the init state in the full FSM)\n";
      List.iter
        (fun id -> if not is_registered.(id) then add_decl ctx "  reg" (width id) (rname ctx id))
        pre);
  (* ---- combinational datapath ---- *)
  str ctx "\n  // combinational datapath\n";
  iter_placed_members (fun op ->
      strs ctx [ "  assign "; vname ctx op.Dfg.id; " = " ];
      add_expr ctx op;
      str ctx ";\n");
  (* ---- sequential commits ---- *)
  str ctx "\n  // registered commits, decoded by (kernel state, stage validity, guard)\n";
  str ctx "  always @(posedge clk) begin\n    if (advance) begin\n";
  List.iter
    (fun id ->
      if Region.mem region id then
        match Pipeline.kernel_state fold id with
        | Some ks ->
            str ctx "      if (";
            add_enable ctx (Dfg.find dfg id) ks;
            strs ctx [ ") "; rname ctx id; " <= "; vname ctx id; ";\n" ]
        | None -> ())
    registered;
  str ctx "    end\n  end\n\n";
  (* ---- output ports ---- *)
  str ctx "  // output port commits\n  always @(posedge clk) begin\n";
  List.iter (fun (p, _) -> strs ctx [ "    "; p; "_valid <= 1'b0;\n" ]) outs;
  str ctx "    if (advance) begin\n";
  iter_placed_members (fun op ->
      match op.Dfg.kind with
      | Opkind.Write p -> (
          match Pipeline.kernel_state fold op.Dfg.id with
          | Some ks ->
              str ctx "      if (";
              add_enable ctx op ks;
              strs ctx
                [ ") begin "; p; " <= "; vname ctx op.Dfg.id; "; "; p; "_valid <= 1'b1; end\n" ]
          | None -> ())
      | _ -> ());
  str ctx "    end\n  end\n\nendmodule\n";
  Buffer.contents ctx.b

(** Structural self-check of emitted Verilog: balanced begin/end and
    module/endmodule pairs, and every generated [vNN_*]/[..._r] identifier
    referenced is also declared.  Returns problems found (empty = clean). *)
let lint (src : string) : string list =
  let errs = ref [] in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  (* tokenize into identifiers *)
  let tokens = ref [] in
  let n = String.length src in
  let i = ref 0 in
  while !i < n do
    if is_ident_char src.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      tokens := String.sub src !i (!j - !i) :: !tokens;
      i := !j
    end
    else incr i
  done;
  let tokens = List.rev !tokens in
  let count t = List.length (List.filter (( = ) t) tokens) in
  if count "begin" <> count "end" then
    errs := Printf.sprintf "begin/end imbalance (%d vs %d)" (count "begin") (count "end") :: !errs;
  if count "module" <> count "endmodule" then errs := "module/endmodule imbalance" :: !errs;
  (* declarations: identifiers on lines containing wire/reg/input/output *)
  let declared = Hashtbl.create 128 in
  List.iter
    (fun line ->
      let has kw =
        let kl = String.length kw and ll = String.length line in
        let rec go k = k + kl <= ll && (String.sub line k kl = kw || go (k + 1)) in
        go 0
      in
      if has "wire" || has "reg " || has "input" || has "output" then begin
        (* last identifier before ; or , or = is the declared name; simply
           mark all identifiers on declaration lines as declared *)
        let li = ref 0 and ll = String.length line in
        while !li < ll do
          if is_ident_char line.[!li] then begin
            let j = ref !li in
            while !j < ll && is_ident_char line.[!j] do
              incr j
            done;
            Hashtbl.replace declared (String.sub line !li (!j - !li)) ();
            li := !j
          end
          else incr li
        done
      end)
    (String.split_on_char '\n' src);
  let is_generated id =
    String.length id > 1
    && id.[0] = 'v'
    && id.[1] >= '0'
    && id.[1] <= '9'
  in
  List.iter
    (fun tok ->
      if is_generated tok && not (Hashtbl.mem declared tok) then
        let msg = "undeclared identifier: " ^ tok in
        if not (List.exists (String.equal msg) !errs) then errs := msg :: !errs)
    tokens;
  List.rev !errs
