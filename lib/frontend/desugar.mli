(** AST lowering ahead of elaboration:

    - top-level counted loop {e nests} flatten into one loop over the
      combined induction counter (see {!Nest}); ineligible nests fall
      back to unrolling the inner dimension;
    - [For] loops unroll (when requested, or always when nested — the
      paper requires inner loops to be unrolled) or lower to counter +
      [Do_while];
    - constant-condition [While] becomes [Do_while]; data-dependent
      [while] is rejected with a pointer at [do/while];
    - wait-bearing conditionals are balanced and split at waits — the
      latency-balancing half of Fig. 4's predicate conversion
      ([s1]/[s2] merging into [s1_2]).

    All rejections raise {!Fault.Error} with a stable machine code
    ([loop_under_conditional], [while_never], [while_dynamic],
    [nonpositive_trip], [unroll_overflow], [nest_shape]) and the
    offending loop's name. *)

open Ast

exception Error of Fault.t
(** Alias of {!Fault.Error}. *)

type nest_mode = [ `Flatten | `Unroll ]
(** How to lower counted loop nests: [`Flatten] (default) collapses an
    eligible nest of any depth into a single combined-counter loop;
    [`Unroll] forces the legacy lowering (inner dimensions fully
    unrolled) — the 1-D baseline. *)

val max_unroll : int

val split_at_waits : stmt list -> stmt list list
val balance_if : expr -> stmt list -> stmt list -> stmt list

val lower_stmts : in_loop:bool -> stmt list -> stmt list

val design : ?nest:nest_mode -> design -> design
(** Lower a whole design; the result contains only [Assign], [Write],
    [Wait], wait-free [If], [Stall_until] and top-level [Do_while]. *)

val design_ex : ?nest:nest_mode -> design -> design * Hls_ir.Region.nest option
(** Like {!design}, also returning the region's nest annotation when a
    nest was flattened. *)
