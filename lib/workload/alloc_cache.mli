(** Allocation queries for one job on an [m]-processor cluster:
    [time_on]/[work_on] over the feasible range, the minimum work, and
    the canonical allocation gamma(j, d), binary-searched when the time
    profile is non-increasing (falling back to a linear scan otherwise,
    so the result is always the {e smallest} feasible allocation
    meeting the deadline).

    Nothing is memoized or copied: a moldable job's queries read the
    job's own [times] array, other shapes answer through
    {!Job.time_on}, and [work_on k] is [float_of_int k *. time_on k],
    the expression of {!Job.work_on}.  {!of_job} makes one pass over
    the feasible range (monotonicity and minimum work) and allocates
    the same few words whatever the job's width.

    Build once per (job, machine) pair and query freely: the MRT dual
    binary search evaluates gamma at every lambda guess. *)

type t

val of_job : m:int -> Job.t -> t
val job : t -> Job.t

val min_procs : t -> int
val max_procs : t -> int
(** Feasible allocation range on this machine ([max_procs] is already
    capped by [m]); [max_procs < min_procs] when the job cannot run. *)

val feasible : t -> bool

val time_on : t -> int -> float
(** [Job.time_on] on the feasible range; [infinity] outside it. *)

val work_on : t -> int -> float
(** [Job.work_on] on the feasible range; [infinity] outside it. *)

val min_work : t -> float
(** Smallest work over the feasible range, computed by {!of_job}'s
    pass (area lower bounds query it per job); [infinity] when the job
    cannot run on [m] processors. *)

val canonical : t -> deadline:float -> int option
(** gamma(j, d): smallest feasible allocation whose execution time is
    at most [deadline]; [None] if even the fastest one is too slow. *)
