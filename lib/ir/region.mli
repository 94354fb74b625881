(** Linear scheduling regions, optionally annotated as loop-nest nodes.

    After predicate conversion and loop linearization, each schedulable
    unit — typically the body of the (pipelined) main loop — is a straight
    line of control steps [0 .. n_steps-1], the structure the paper's pass
    scheduler consumes (Section V, Step I).

    A region references the design-wide {!Dfg.t} plus a membership set;
    producers outside the region are treated by the scheduler as
    registered, available from step 0.  For a pipelined region, two steps
    are {e equivalent} when congruent modulo II (they fold onto one kernel
    state).

    {b Loop nests.}  A counted nest of any depth, collapsed by the
    frontend into a single region iterating over the combined induction
    counter, carries a {!nest} annotation; the ordinary scheduler, fold
    and simulators apply unchanged, and per-dimension IIs derive from the
    kernel II via {!per_dim_iis}. *)

type pipeline_spec = { ii : int  (** initiation interval, designer-given *) }

type dim = {
  nd_name : string;  (** source loop name of this dimension *)
  nd_trip : int;  (** static trip count *)
  nd_ii : int option;  (** designer-requested II along this dimension *)
}

type nest = {
  n_dims : dim list;  (** outermost first; the last entry is the innermost *)
  n_perfect : bool;  (** no statements between the nest's loop headers *)
}

type t = {
  rname : string;
  dfg : Dfg.t;  (** the design-wide DFG (shared, not owned) *)
  members : (int, unit) Hashtbl.t;
  mutable n_steps : int;  (** current latency interval LI *)
  min_steps : int;
  max_steps : int;  (** designer latency bounds; relaxation stops here *)
  pipeline : pipeline_spec option;
  continue_cond : int option;
      (** loop region: op whose nonzero value means "iterate again" *)
  stall_cond : int option;
      (** stalling support: op whose zero value freezes the pipeline
          (ignored during scheduling, honoured by the controller) *)
  is_loop : bool;
  source_waits : int;  (** wait() states the source specified *)
  nest : nest option;  (** loop-nest metadata; [None] for ordinary regions *)
}

val create :
  ?min_steps:int ->
  ?max_steps:int ->
  ?pipeline:pipeline_spec ->
  ?continue_cond:int ->
  ?stall_cond:int ->
  ?is_loop:bool ->
  ?source_waits:int ->
  ?members:int list ->
  ?nest:nest ->
  name:string ->
  Dfg.t ->
  t
(** Membership defaults to every op currently in the DFG.  A pipelined
    region starts at LI = max(min_steps, II+1) — "exploration often starts
    from LI = II + 1" (Section V, condition 2). *)

val mem : t -> int -> bool

val nest : t -> nest option

val strides : nest -> int list
(** Stride of each nest dimension in innermost (kernel) iterations,
    outermost first: the product of the trip counts of the dimensions
    strictly inside it (1 for the innermost). *)

val flat_iters : t -> int
(** Product of the nest's trip counts (1 for ordinary regions). *)

val per_dim_iis : t -> kernel_ii:int -> int list
(** Achieved per-dimension initiation intervals, outermost first, given
    the kernel II actually scheduled; empty for ordinary regions. *)

val member_ops : t -> Dfg.op list
val n_members : t -> int

val ii : t -> int
(** The initiation interval; equals [n_steps] for sequential regions. *)

val is_pipelined : t -> bool

val n_stages : t -> int
(** PS = ceil(LI / II). *)

val stage_of_step : t -> int -> int

val steps_equivalent : t -> int -> int -> bool
(** Congruent modulo II (always false for distinct sequential steps). *)

val equivalent_steps : t -> int -> int list

val sccs : t -> int list list
(** SCCs of the member subgraph over all edges — the groups that must fit
    one pipeline stage.  Mux {e select} inputs count as control, not data,
    matching the paper's Fig. 3 SCC membership. *)

val add_step : t -> bool
(** Grow LI by one ("add state"); [false] when the bound forbids it. *)

val reset_steps : t -> int -> unit
(** @raise Invalid_argument outside the designer bounds. *)

val pp : Format.formatter -> t -> unit
