(** Iterative modulo scheduling (Rau, MICRO'94) — the classical
    software-pipelining baseline the paper contrasts with (Section III).
    Deliberately {e cycle-grained and timing-naive}: unit latencies, a
    modulo reservation table, height priority, eviction with Rau's
    no-earlier-than-before rule and a backtracking budget; II search from
    max(ResMII, RecMII) unless pinned. *)

open Hls_ir
open Hls_techlib
open Hls_core

type result = {
  m_ii : int;
  m_li : int;  (** schedule length of one iteration *)
  m_binding : Binding.t;  (** imported for accurate timing/area reporting *)
  m_backtracks : int;
  m_time_s : float;
}

type error = { m_message : string }

val rec_mii : Region.t -> int

val schedule :
  ?ii:int ->
  ?budget_factor:int ->
  lib:Library.t ->
  clock_ps:float ->
  Region.t ->
  (result, error) Stdlib.result
