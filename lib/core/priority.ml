(** Scheduling priority function (Section IV.B, Fig. 7).

    "The priority function takes into account the mobility of the
    operations defined by timing-aware ASAP/ALAP intervals (similar to
    Force-Directed Scheduling), the complexity of operations (more complex
    ones are scheduled first), the size of the fanout cone of an operation,
    etc." *)

open Hls_ir

(** Set bits of a native int (all 63 of them, the sign bit included):
    the SWAR count, summing bit pairs, nibbles and then bytes in parallel.
    The top byte of the 63-bit word holds only 7 bits, so every partial
    sum fits its field; the multiply adds the eight byte counts into the
    top byte, read back by the shift. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

(** Precomputed fanout-cone sizes for all ops of a DFG, equal to
    {!Dfg.fanout_cone_size} op by op.  One reverse-topological sweep over
    the distance-0 edges: an op's cone, a bitset of 63-bit words, is the
    union of its successors' cones and the successors themselves; the
    table keeps the popcounts.  O(E * n / 63) time, and n² / 63 words held
    only during the sweep, instead of one DFS with a fresh visited set per
    op. *)
let fanout_table (dfg : Dfg.t) =
  let n = Dfg.size dfg in
  let words = (n + 62) / 63 in
  let bits = Array.make (n * words) 0 in
  let counts = Array.make n 0 in
  List.iter
    (fun v ->
      let base = v * words in
      List.iter
        (fun e ->
          if e.Dfg.distance = 0 then begin
            let d = e.Dfg.dst in
            for w = 0 to words - 1 do
              bits.(base + w) <- bits.(base + w) lor bits.((d * words) + w)
            done;
            bits.(base + (d / 63)) <- bits.(base + (d / 63)) lor (1 lsl (d mod 63))
          end)
        (Dfg.out_edges dfg v);
      for w = 0 to words - 1 do
        counts.(v) <- counts.(v) + popcount bits.(base + w)
      done)
    (List.rev (Dfg.topo_order dfg));
  fun id -> if id >= 0 && id < n then counts.(id) else 0

(** Higher score = scheduled earlier.  Mobility 0 (a single feasible step)
    dominates; among equally mobile ops, structural complexity, then fanout
    cone size, break ties; op id is the final deterministic tie-break. *)
let score ~fanout (aa : Asap_alap.t) (op : Dfg.op) =
  let mobility = float_of_int (Asap_alap.mobility aa op.Dfg.id) in
  let complexity = Opkind.complexity op.Dfg.kind in
  (100.0 /. (1.0 +. mobility)) +. (10.0 *. complexity) +. (0.5 *. float_of_int (fanout op.Dfg.id))
