(** The saturation screen: a busy rejection proved from the committed
    timing of a netlist, without opening a trial, with its memo and the
    instance slack floors that skip the screens that cannot prove
    anything.  One screen per netlist: it installs the timing graph's
    commit hook ({!Hls_timing.Graph.on_commit}) for its floors. *)

open Hls_ir

type screen =
  | Screen_pass  (** nothing proved: run the trial *)
  | Screen_memo  (** a rejection proved by the saturation memo *)
  | Screen_computed  (** a rejection proved by pricing the cohabitants *)

type t

val create : Netlist.t -> t

(** {2 Port sets} *)

val port_set_max : int
(** The highest port a port set holds ([Sys.int_size - 2]). *)

val port_bit : int -> int
(** The bit of a port in a port set, as {!screen} takes them.
    @raise Invalid_argument on a port outside [0 .. port_set_max]. *)

val reads_ports : Dfg.t -> int -> ports:int -> bool
(** Does the op read one of the ports in the set?  A port above
    {!port_set_max} is in no set. *)

(** {2 Screening} *)

val screen_may_prove : t -> inst:Netlist.inst -> changed_ports:int -> bool
(** [false] when the instance's slack floor ({!inst_floor}) shows that
    {!screen} cannot prove a rejection for a bind growing [changed_ports]
    of [inst]: every slack the screen prices, or stored in its memo, is a
    committed slack of an op in the instance's cone (none below the
    floor) less at most the largest mux growth (twice that on a black-box
    instance, which may host multicycle ops), and the floor clears that
    with a 1 ps margin over the tolerance.  Also [false] while the muxes
    are unpriced or when the set is not positive.  [true] means "run the
    screen". *)

val inst_floor : t -> Netlist.inst -> float
(** The instance's slack floor: the least endpoint slack committed this
    pass by its bound ops and by the ops that read them, recursively, at
    distance 0 in the step they finish through latency-1 region members —
    the cone a screen on the instance prices.  The first read of a pass
    builds the floors from the committed slacks; from then on a slack
    counts when it becomes committed (the graph's commit hook).  The
    floor is capped where {!screen_may_prove} rules out whatever the mux
    growth, so an instance with an empty cone reads the cap;
    [neg_infinity] while the pass is {!Netlist.forced}. *)

val screen :
  t -> op:Dfg.op -> step:int -> finish:int -> inst:Netlist.inst -> changed_ports:int -> screen
(** Saturation screen: a rejection when binding [op] on [inst] provably
    breaks the timing of an already-bound cohabitant, or of one of its
    same-step chained consumers (up to 8 hops down, through arrival lower
    bounds), strictly below the op's own exact slack — the full trial
    would reject with [F_busy] — all priced from committed state.
    [Screen_pass] means "run the real trial", never a wrong verdict.
    [changed_ports] is the set of instance ports whose effective mux
    input count the bind grows ({!port_bit}).  Always [Screen_pass] while
    the muxes are unpriced, or when the set is not positive.

    A computed screen stores the least slack it priced per (instance,
    port set); until the instance's epoch moves ({!Netlist.inst_epoch}),
    a stored value below the tolerance and the op's own slack decides the
    next screen of that set with one comparison ([Screen_memo]); none is
    read while the pass is {!Netlist.forced}.  A computed screen proves
    exactly when the short-circuiting screen would. *)
