(** Bit-width arithmetic.

    Widths are plain [int]s (number of bits, >= 1).  Values are
    two's-complement signed; every operation produces the smallest width
    representing all results of its input widths.  These rules are shared
    by elaboration and the simulators, so that all agree on one
    finite-width semantics. *)

type t = int

val max_width : int
(** Maximum accepted width (62, so native-int simulation is exact). *)

val bits_for_signed : int -> int
(** Smallest two's-complement width representing the value. *)

val clamp : int -> int
(** Clamp into [1, max_width]. *)

val add_result : int -> int -> int
(** Width of [a + b] / [a - b]: one growth bit over the wider operand. *)

val mul_result : int -> int -> int
(** Width of [a * b]: sum of operand widths (clamped). *)

val div_result : int -> int -> int
val mod_result : int -> int -> int
val bitwise_result : int -> int -> int
val shl_result : int -> int -> int
val shr_result : int -> int -> int

val truncate : width:int -> int -> int
(** Reinterpret the low [width] bits as a signed value — the single
    definition of finite-width wraparound used everywhere. *)

val fits : width:int -> int -> bool
(** Is the value representable in [width] signed bits? *)
