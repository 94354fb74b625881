(** The relaxation expert system (Sections IV.B and V): turns the failed
    pass's restraints into the corrective action with the best estimated
    gain — "Every action has an estimated cost, which is combined with the
    number of restraints solved by this action and the restraint weight.
    The action with the best estimated gain wins." *)

open Hls_ir
open Hls_techlib

type action =
  | Add_state
  | Add_resource of Resource.t * int  (** type and how many instances *)
  | Move_scc of int
      (** the paper's novel action: move a whole SCC one pipeline stage
          later ("this failure is distinguished from an ordinary negative
          slack failure") *)
  | Forbid of int * int  (** exclude a comb-cycle-closing (op, inst) pair *)

val action_to_string : action -> string

val downstream : Dfg.t -> int list -> (int, unit) Hashtbl.t
(** Distance-0 downstream cone of a set of ops, inclusive. *)

val choose_many :
  scc_move:bool ->
  binding:Binding.t ->
  region:Region.t ->
  restraints:Restraint.t list ->
  sccs:int list list ->
  scc_of:(int -> int option) ->
  scc_stage:(int -> int) ->
  (action * string) list
(** The corrective actions for one failed pass, best first, or [[]] when
    the portfolio is exhausted (specification overconstrained).
    [~scc_move:false] leaves [Move_scc] out of the portfolio (the Table 4
    ablation).  The winner is the single action with the best estimated
    gain; resource additions are credited only for restraints the timing
    estimate says a fresh instance would actually solve — the paper's "a
    second multiplier does not help" reasoning.  When the winner adds a resource
    or moves an SCC, up to 7 runner-ups of the same kind (other starving
    types, other failing SCCs) ride along: each saves one full pass on a
    large design. *)
