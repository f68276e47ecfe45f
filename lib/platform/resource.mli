(** Resource vectors: the typed capacity/request currency of the
    multi-resource platform model.

    The source paper's platform (§1.2) is processors-only; the
    multi-resource extension (ROADMAP item 3, following Perotin–Sun–
    Raghavan's multi-resource list scheduling) adds memory and I/O
    bandwidth so that application {e classes} stressing different
    resources — CPU-bound, memory-bound, I/O-bound communities — become
    distinguishable.  A job fits a platform only when {e every}
    component of its request vector fits the free vector.

    Components are integers in fixed units: [cores] (processors),
    [memory] (MB), [bandwidth] (MB/s of sustained system I/O).  A
    component equal to {!unbounded_amount} means "not modelled": the
    degenerate processors-only platform sets every non-core component
    to it, and every fit test against it succeeds.  This is the
    compatibility contract that keeps the pre-redesign scalar engine
    and the vector engine bit-identical on processors-only instances
    (property-tested in the QCheck suite). *)

type t = { cores : int; memory : int; bandwidth : int }

val unbounded_amount : int
(** Sentinel for "this resource is not modelled / not constrained".
    Far below [max_int] so capacity sums never overflow. *)

val is_unbounded : int -> bool
(** [is_unbounded a] is [a >= unbounded_amount]. *)

val zero : t
(** The empty request: a processors-only job's non-core demand. *)

val make : ?cores:int -> ?memory:int -> ?bandwidth:int -> unit -> t
(** Request constructor; omitted components default to [0] (demand
    nothing).  @raise Invalid_argument on negative components. *)

val of_cores : int -> t
(** [of_cores k] requests [k] cores and nothing else. *)

val cap : ?memory:int -> ?bandwidth:int -> cores:int -> unit -> t
(** Capacity constructor; omitted components default to
    {!unbounded_amount} (unconstrained), so [cap ~cores:m ()] is the
    degenerate processors-only platform of the source paper.
    @raise Invalid_argument on negative components. *)

val with_cores : t -> int -> t
(** [with_cores r k] is [r] with the cores component replaced — turns a
    job's stored non-core demand into the full request vector once an
    allocation is chosen. *)

val platform : ?cap:t -> int -> t
(** [platform ?cap m]: the capacity of an [m]-processor platform,
    [cap] with its cores set to [m], or the processors-only
    [cap ~cores:m ()] when [cap] is omitted.  Wherever a capacity rides
    beside a processor count, the count is the source of truth for the
    cores component. *)

val add : t -> t -> t
(** Componentwise sum, clamped at {!unbounded_amount}. *)

val sub : t -> t -> t
(** Componentwise difference.  @raise Invalid_argument when any
    component would go negative. *)

val scale : int -> int -> int
(** [scale n amount]: [n * amount] clamped at {!unbounded_amount}; use
    for per-node capacities ([nodes * mem_per_node]). *)

val fits : t -> within:t -> bool
(** [fits req ~within:free]: every component of [req] is [<=] the
    matching component of [free] — the multi-resource admission test. *)

val first_overflow : t -> within:t -> (string * int * int) option
(** [first_overflow req ~within:cap] is [Some (name, need, capacity)]
    for the first component of [req] exceeding [cap], [None] when the
    request fits; feeds the typed [Over_resource] scheduler error. *)

val equal : t -> t -> bool

val components : t -> (string * int) list
(** [("cores", _); ("memory", _); ("bandwidth", _)] — for renderers and
    per-component sweeps. *)

val pp : Format.formatter -> t -> unit
(** Unbounded components print as ["-"]. *)

val to_string : t -> string
