(** Operation kinds of the data-flow graph.

    Each DFG node carries one {!t}.  The classification functions are what
    the rest of the tool keys on: {!arity} (shape checking), {!rclass}
    (which datapath resource class implements the op — the basis of
    resource sharing, Section IV.A of the paper), {!complexity}
    (scheduling priority, Section IV.B) and {!result_width} (width
    propagation). *)

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
  | Const of int  (** literal; width recorded on the node *)
  | Read of string  (** read of an input port *)
  | Write of string  (** write of an output port; input 0 is the value *)
  | Mux  (** [Mux (sel, a, b)]: [a] when [sel <> 0], else [b] *)
  | Loop_mux
      (** loop-carried merge: input 0 = initial value (pre-loop), input 1 =
          previous iteration's value (a distance-1 edge); selected by the
          controller's first-iteration flag *)
  | Slice of int * int  (** [Slice (hi, lo)]: bit-field extract *)
  | Zext of int
  | Sext of int
  | Concat  (** input 0 becomes the high bits *)
  | Call of call_spec
      (** black-box operation bound to a pre-designed, possibly multi-cycle
          IP block (Section IV.B item 2) *)

and call_spec = { callee : string; call_latency : int  (** cycles; 1 = combinational *) }

(** Resource classes: two operations may share a datapath instance only if
    they map to the same class (and compatible widths).  [R_wire] ops
    consume no resource and no delay. *)
type rclass =
  | R_addsub
  | R_mul
  | R_divmod
  | R_shift
  | R_logic
  | R_cmp_rel  (** [<], [<=], [>], [>=] *)
  | R_cmp_eq  (** [=], [<>] *)
  | R_mux
  | R_port_in
  | R_port_out
  | R_blackbox of string
  | R_wire

val rclass : t -> rclass

val arity : t -> int
(** Number of data inputs; [-1] for variable-arity calls. *)

val complexity : t -> float
(** Relative structural complexity ("more complex operations are scheduled
    first"). *)

val result_width : ?self:int -> t -> int list -> int
(** Propagate operand widths to the result width; [self] supplies the
    recorded width of width-carrying kinds ([Read], [Const], [Call]). *)

val binop_to_string : binop -> string
val unop_to_string : unop -> string
val to_string : t -> string
val rclass_to_string : rclass -> string

val equal_rclass : rclass -> rclass -> bool
(** Structural equality on resource classes, without the polymorphic
    compare. *)

val compare_rclass : rclass -> rclass -> int
(** The polymorphic compare's order on resource classes (declaration
    order, [R_blackbox] last and by callee name), typed. *)

val is_resource_op : t -> bool
(** Does the op occupy a shareable datapath resource (participating in
    allocation, sharing muxes and busy tables)? *)

val binop_fn : binop -> int -> int -> int
(** The operator table: a binary operator on concrete operands, before
    truncation to the result width.  Division and modulo by zero give 0;
    shift amounts are taken modulo 64.  Resolve once, call per
    evaluation. *)

val unop_fn : unop -> int -> int
(** The unary half of the operator table. *)

val slice_fn : hi:int -> lo:int -> int -> int
(** Bits [hi..lo] of the operand, shifted down. *)

val eval_pure : t -> int list -> int option
(** Evaluate over concrete operands (callers apply {!Width.truncate}).
    [None] for stateful/contextual kinds ([Read], [Write], [Loop_mux],
    [Call], [Concat]) — the simulators handle those.  Operators read
    {!binop_fn}, {!unop_fn} and {!slice_fn}. *)
