(** Backfilling for rigid (already-allocated) jobs with release dates,
    with support for advance reservations (§5.1).

    - {e Conservative}: every queued job holds a start-time guarantee;
      later jobs may fill holes only if no earlier guarantee moves.
      With clairvoyant (exact) estimates this equals FCFS
      earliest-fit, which {!Packing.list_schedule} computes; the
      wrapper here adds reservations.
    - {e EASY} (aggressive): only the queue head holds a guarantee;
      any other job may start immediately if it does not delay the
      head's reservation.  Implemented as an event-driven simulation. *)

val conservative :
  ?obs:Psched_obs.Obs.t ->
  ?reservations:Psched_platform.Reservation.t list ->
  m:int ->
  Packing.allocated list ->
  Psched_sim.Schedule.t
(** With an enabled [obs], each placement emits a [prov.consider]
    decision-provenance event (via {!Packing.place}). *)

val easy :
  ?obs:Psched_obs.Obs.t ->
  ?reservations:Psched_platform.Reservation.t list ->
  ?cap:Psched_platform.Resource.t ->
  m:int ->
  Packing.allocated list ->
  Psched_sim.Schedule.t
(** EASY on the capacity {!Psched_platform.Resource.platform}
    [?cap m] ([cap] with [m] cores, processors only by default): a job
    starts only when its cores and its stored non-core demand fit
    every component over its whole run, and the head's reservation
    holds every component, so a backfilled job can steal neither the
    head's cores nor its memory or bandwidth.  This is the ["easy"]
    policy on the default capacity and ["easy-mr"] on [ctx.cap].

    With an enabled [obs], every start emits ["job.start"] (and feeds
    the queue-wait histogram), backfilled starts emit
    ["backfill.fill"], and failed backfill probes emit
    ["backfill.hole"] with the earliest date the candidate could start
    instead; tracing never changes the schedule.  Spans are labelled
    ["easy"], ["easy.backfill"] and ["easy.query"] when only cores are
    bounded, ["easy-mr.*"] otherwise.

    Precondition: every allocation is at most [m] processors wide and
    every non-core demand fits [cap].  The {!Schedulers} adapters
    enforce this with typed [Too_wide]/[Over_resource] errors; direct
    callers must filter infeasible jobs themselves. *)
