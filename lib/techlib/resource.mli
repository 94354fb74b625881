(** Resource types: "a combination of the operation type with operand and
    result widths" (Section IV.A).  Sharing is licensed by {!can_merge}
    (same class, widths within a factor of two — the paper avoids merging
    "very different bit widths" to protect power); the merged type takes
    element-wise maximum widths. *)

open Hls_ir

type t = {
  rclass : Opkind.rclass;
  in_widths : int list;  (** operand widths, by port *)
  out_width : int;
}

val of_op : Dfg.t -> Dfg.op -> t option
(** The resource type an op needs, from its operand widths; [None] for
    wire-class ops. *)

val same_class : t -> t -> bool

val widths_compatible : t -> t -> bool
(** Same arity and per-operand width ratio bounded by 2. *)

val can_merge : t -> t -> bool

val merge : t -> t -> t
(** Element-wise maximum widths.  @raise Invalid_argument unless
    {!can_merge}. *)

val fits : need:t -> have:t -> bool
(** Can an op of type [need] run on an existing instance of type [have]
    (same class, instance at least as wide on every operand)? *)

val to_string : t -> string
val equal : t -> t -> bool
(** Structural equality, without the polymorphic compare. *)

val compare : t -> t -> int
(** Orders exactly as the polymorphic compare does (class, then operand
    widths, then result width), without calling it. *)
