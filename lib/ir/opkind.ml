(** Operation kinds of the data-flow graph.

    Each DFG node carries one [t].  The classification functions below are
    what the rest of the tool keys on: [arity] (shape checking), [rclass]
    (which datapath resource class can implement the op — the basis of
    resource sharing, Section IV.A of the paper), [complexity] (scheduling
    priority, Section IV.B) and [result_width] (width propagation). *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Shl
  | Shr
  | Band
  | Bor
  | Bxor
  | Land
  | Lor
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

type unop = Neg | Bnot | Lnot

type t =
  | Bin of binop
  | Un of unop
  | Const of int  (** literal; width on the node *)
  | Read of string  (** read of an input port *)
  | Write of string  (** write of an output port; input 0 is the value *)
  | Mux  (** [Mux(sel, a, b)]: [a] when [sel <> 0], else [b] *)
  | Loop_mux
      (** loop-carried merge: input 0 = initial value (pre-loop), input 1 =
          value from the previous iteration (distance-1 edge).  Selected by
          the controller's first-iteration flag, not by a data input. *)
  | Slice of int * int  (** [Slice (hi, lo)]: bit-field extract *)
  | Zext of int
  | Sext of int
  | Concat  (** input 0 becomes the high bits *)
  | Call of call_spec
      (** black-box operation bound to a pre-designed IP block; possibly
          multi-cycle (Section IV.B, item 2) *)

and call_spec = { callee : string; call_latency : int  (** cycles; 1 = combinational *) }

(** Resource classes: two operations may share a datapath resource only if
    they map to the same class (and to compatible widths; see
    {!Hls_techlib}).  [Wire] ops (slices, extensions, constants…) consume no
    resource and no delay budget beyond wiring. *)
type rclass =
  | R_addsub
  | R_mul
  | R_divmod
  | R_shift
  | R_logic
  | R_cmp_rel  (** <, <=, >, >= *)
  | R_cmp_eq  (** =, <> *)
  | R_mux
  | R_port_in
  | R_port_out
  | R_blackbox of string
  | R_wire

let rclass = function
  | Bin (Add | Sub) | Un Neg -> R_addsub
  | Bin Mul -> R_mul
  | Bin (Div | Mod) -> R_divmod
  | Bin (Shl | Shr) -> R_shift
  | Bin (Band | Bor | Bxor | Land | Lor) | Un (Bnot | Lnot) -> R_logic
  | Bin (Lt | Le | Gt | Ge) -> R_cmp_rel
  | Bin (Eq | Neq) -> R_cmp_eq
  | Mux | Loop_mux -> R_mux
  | Read _ -> R_port_in
  | Write _ -> R_port_out
  | Call c -> R_blackbox c.callee
  | Const _ | Slice _ | Zext _ | Sext _ | Concat -> R_wire

(** Number of data inputs the op expects. *)
let arity = function
  | Bin _ -> 2
  | Un _ -> 1
  | Const _ -> 0
  | Read _ -> 0
  | Write _ -> 1
  | Mux -> 3
  | Loop_mux -> 2
  | Slice _ -> 1
  | Zext _ | Sext _ -> 1
  | Concat -> 2
  | Call _ -> -1 (* variable; checked against the node's recorded arity *)

(** Relative structural complexity, used by the scheduling priority function
    ("more complex operations are scheduled first"). *)
let complexity = function
  | Bin (Div | Mod) -> 10.0
  | Bin Mul -> 8.0
  | Call _ -> 8.0
  | Bin (Add | Sub) | Un Neg -> 3.0
  | Bin (Shl | Shr) -> 2.5
  | Bin (Lt | Le | Gt | Ge) -> 2.0
  | Bin (Eq | Neq) -> 1.5
  | Bin (Band | Bor | Bxor | Land | Lor) | Un (Bnot | Lnot) -> 1.0
  | Mux | Loop_mux -> 1.0
  | Read _ | Write _ -> 0.5
  | Const _ | Slice _ | Zext _ | Sext _ | Concat -> 0.0

(** [result_width kind ws] propagates operand widths [ws] to the result
    width.  [Read]/[Const] widths are fixed on the node, so callers pass the
    recorded width through [~self]. *)
let result_width ?(self = 0) kind ws =
  let w i = try List.nth ws i with _ -> 1 in
  match kind with
  | Bin Add | Bin Sub -> Width.add_result (w 0) (w 1)
  | Bin Mul -> Width.mul_result (w 0) (w 1)
  | Bin Div -> Width.div_result (w 0) (w 1)
  | Bin Mod -> Width.mod_result (w 0) (w 1)
  | Bin Shl -> Width.shl_result (w 0) (w 1)
  | Bin Shr -> Width.shr_result (w 0) (w 1)
  | Bin (Band | Bor | Bxor) -> Width.bitwise_result (w 0) (w 1)
  | Bin (Land | Lor) -> 1
  | Bin (Eq | Neq | Lt | Le | Gt | Ge) -> 1
  | Un Neg -> Width.add_result (w 0) 1
  | Un Bnot -> w 0
  | Un Lnot -> 1
  | Const n -> if self > 0 then self else Width.bits_for_signed n
  | Read _ | Write _ | Call _ -> self
  | Mux -> max (w 1) (w 2)
  | Loop_mux -> max (w 0) (w 1)
  | Slice (hi, lo) -> Width.clamp (hi - lo + 1)
  | Zext n | Sext n -> n
  | Concat -> Width.clamp (w 0 + w 1)

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Shl -> "<<"
  | Shr -> ">>"
  | Band -> "&"
  | Bor -> "|"
  | Bxor -> "^"
  | Land -> "&&"
  | Lor -> "||"
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let unop_to_string = function Neg -> "-" | Bnot -> "~" | Lnot -> "!"

let to_string = function
  | Bin b -> binop_to_string b
  | Un u -> unop_to_string u
  | Const n -> string_of_int n
  | Read p -> Printf.sprintf "read(%s)" p
  | Write p -> Printf.sprintf "write(%s)" p
  | Mux -> "mux"
  | Loop_mux -> "loop_mux"
  | Slice (hi, lo) -> Printf.sprintf "[%d:%d]" hi lo
  | Zext n -> Printf.sprintf "zext%d" n
  | Sext n -> Printf.sprintf "sext%d" n
  | Concat -> "concat"
  | Call c -> Printf.sprintf "call(%s)" c.callee

let rclass_to_string = function
  | R_addsub -> "add"
  | R_mul -> "mul"
  | R_divmod -> "div"
  | R_shift -> "shift"
  | R_logic -> "logic"
  | R_cmp_rel -> "cmp"
  | R_cmp_eq -> "eqcmp"
  | R_mux -> "mux"
  | R_port_in -> "in"
  | R_port_out -> "out"
  | R_blackbox s -> "ip:" ^ s
  | R_wire -> "wire"

(* typed: [R_blackbox] carries a string, so a polymorphic [=] would go
   through the runtime's structural compare *)
let equal_rclass a b =
  match (a, b) with
  | R_blackbox x, R_blackbox y -> String.equal x y
  | R_blackbox _, _ | _, R_blackbox _ -> false
  | _ -> a == b

(* declaration order, black boxes last: the order of the polymorphic
   compare, which puts constant constructors before the ones with an
   argument *)
let rclass_rank = function
  | R_addsub -> 0
  | R_mul -> 1
  | R_divmod -> 2
  | R_shift -> 3
  | R_logic -> 4
  | R_cmp_rel -> 5
  | R_cmp_eq -> 6
  | R_mux -> 7
  | R_port_in -> 8
  | R_port_out -> 9
  | R_wire -> 10
  | R_blackbox _ -> 11

let compare_rclass a b =
  match (a, b) with
  | R_blackbox x, R_blackbox y -> String.compare x y
  | _ -> Int.compare (rclass_rank a) (rclass_rank b)

(** True when the op consumes a shareable datapath resource (and therefore
    participates in resource allocation, sharing-mux construction and
    busy-table bookkeeping). *)
let is_resource_op k =
  match rclass k with
  | R_wire | R_port_in | R_port_out -> false
  | _ -> true

let b2i b = if b then 1 else 0

(* the low [w] bits of [v]; all of them when [w] spans the native int *)
let low_bits w v = if w >= 62 then v else v land ((1 lsl w) - 1)

(** The operator table: what each operator computes on concrete operand
    values, before the caller truncates to the result width.  Division and
    modulo by zero give 0; shift amounts are taken modulo 64.  A simulator
    resolves an operator here once and calls the function per evaluation;
    {!eval_pure} reads the same table. *)
let binop_fn : binop -> int -> int -> int = function
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Div -> fun a b -> if b = 0 then 0 else a / b
  | Mod -> fun a b -> if b = 0 then 0 else a mod b
  | Shl -> fun a b -> a lsl (b land 63)
  | Shr -> fun a b -> a asr (b land 63)
  | Band -> ( land )
  | Bor -> ( lor )
  | Bxor -> ( lxor )
  | Land -> fun a b -> b2i (a <> 0 && b <> 0)
  | Lor -> fun a b -> b2i (a <> 0 || b <> 0)
  | Eq -> fun a b -> b2i (a = b)
  | Neq -> fun a b -> b2i (a <> b)
  | Lt -> fun a b -> b2i (a < b)
  | Le -> fun a b -> b2i (a <= b)
  | Gt -> fun a b -> b2i (a > b)
  | Ge -> fun a b -> b2i (a >= b)

let unop_fn : unop -> int -> int = function
  | Neg -> fun a -> -a
  | Bnot -> lnot
  | Lnot -> fun a -> b2i (a = 0)

let slice_fn ~hi ~lo a = low_bits (hi - lo + 1) (a asr lo)

(** Evaluate a kind over concrete operand values; widths are applied by the
    caller via {!Width.truncate}.  [Read]/[Write]/[Call] are handled by the
    simulators, not here. *)
let eval_pure kind args =
  let a i = List.nth args i in
  match kind with
  | Bin b -> Some (binop_fn b (a 0) (a 1))
  | Un u -> Some (unop_fn u (a 0))
  | Const n -> Some n
  | Mux -> Some (if a 0 <> 0 then a 1 else a 2)
  | Slice (hi, lo) -> Some (slice_fn ~hi ~lo (a 0))
  | Zext n -> Some (low_bits n (a 0))
  | Sext _ -> Some (a 0)
  | Concat -> None (* needs operand widths; simulators handle it *)
  | Loop_mux | Read _ | Write _ | Call _ -> None
