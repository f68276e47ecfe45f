(** Greedy placement of allocated jobs on an availability profile.

    The common engine behind list scheduling, conservative backfilling
    and batch construction: jobs whose allocation is already decided
    are placed, in list order, at the earliest date compatible with
    their release and with capacity.  Because each job is placed at
    the earliest feasible date given the jobs placed before it, FCFS
    order gives exactly conservative backfilling. *)

open Psched_workload

type allocated = Job.t * int
(** A job together with its decided processor count. *)

val allocate_rigid : Job.t -> allocated
(** Identity for rigid jobs; moldable jobs get their minimal
    allocation; @raise Invalid_argument on divisible jobs (those go
    through the DLT layer). *)

val place :
  ?obs:Psched_obs.Obs.t ->
  ?profile:Psched_sim.Rprofile.t ->
  ?earliest:float ->
  m:int ->
  allocated list ->
  Psched_sim.Schedule.entry list
(** Place jobs in list order on [profile] (fresh [m]-processor profile
    if omitted; the profile is mutated so callers can chain batches).
    [earliest] floors every start date (default 0).  Each job starts at
    the earliest date >= max(release, earliest) at which its cores and
    its stored non-core demand ([Job.res]) fit.  With [obs], every
    placement emits a [prov.consider] decision-provenance event, then
    ["job.start"] and ["queue.wait"] as EASY does.
    @raise Invalid_argument if a job requires more than [m] processors. *)

val list_schedule :
  ?obs:Psched_obs.Obs.t ->
  ?order:(allocated -> allocated -> int) ->
  ?reservations:Psched_platform.Reservation.t list ->
  ?cap:Psched_platform.Resource.t ->
  m:int ->
  allocated list ->
  Psched_sim.Schedule.t
(** List scheduling: sort by [order] (default: release date, then id —
    i.e. FCFS / conservative backfilling) and {!place} on a profile of
    capacity {!Psched_platform.Resource.platform} [?cap m] ([cap] with
    [m] cores, processors only by default) from which [reservations]
    have been subtracted.  This is ["list-mr"] on [ctx.cap] — Perotin–Sun–
    Raghavan's multi-resource list scheduling, with the paper's scalar
    list scheduling as its processors-only case.

    Precondition: every non-core demand fits [cap]; the ["list-mr"]
    adapter checks it with a typed [Over_resource] error. *)

val largest_area_first : allocated -> allocated -> int
(** Priority: decreasing procs x time, the classic LPT-like order. *)

val longest_time_first : allocated -> allocated -> int
