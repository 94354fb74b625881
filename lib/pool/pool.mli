(** One parallel map on one process-wide pool of OCaml 5 domains.

    The DSE engine's point sweep and the scheduler's per-SCC recurrence
    check are both "map a pure function over an array, results in index
    order"; both run through {!map}. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f items] is [Array.map f items] computed by the calling
    domain and up to [jobs - 1] pool domains, all claiming indices from
    one atomic counter.  Results come back in index order.

    - The call returns once every index has finished; it never waits for
      a pool domain that is busy with other work (the caller claims the
      indices nobody else picked up).
    - With [jobs <= 1], fewer than two items, or when called from inside
      another [map]'s [f] (on a pool domain or on the calling domain), it
      runs [Array.map] inline and never spawns a domain — so a process
      that only ever maps with [jobs = 1] can still [Unix.fork].
    - The pool is spawned lazily, grows to the largest [jobs - 1] ever
      requested, and is joined once, at exit.
    - The first exception raised by [f] is re-raised in the caller once
      every claimed index has finished; the pool stays usable. *)
