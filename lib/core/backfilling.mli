(** Backfilling and the on-line queue engine for rigid
    (already-allocated) jobs with release dates, with support for
    advance reservations (§5.1).

    - {e Conservative}: every queued job holds a start-time guarantee;
      later jobs may fill holes only if no earlier guarantee moves.
      With clairvoyant (exact) estimates this equals FCFS
      earliest-fit, which {!Packing.list_schedule} computes; the
      wrapper here adds reservations.
    - {e The on-line engine} behind {!easy} and {!first_fit}, hence
      behind {!Queue_policies} and {!Nonclairvoyant}: one event loop
      on a {!Psched_sim.Rprofile}.  Its events are the release dates
      (a cursor over the jobs sorted by (release, id)), completions
      and reservation boundaries; an event within 1e-9 of the last
      step merges into it.  At each step the arrived jobs join the
      queue in arrival order and a start rule runs: EASY's, or first
      fit in key order.  A job that the profile can start within 1e-9
      of the step starts at the profile's date, which is the step's
      unless another event lies within 1e-9.  Running jobs all
      started at or before the step, so without reservations free
      capacity never falls after it: a job that fits now fits for its
      whole run. *)

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
  ?estimate:(Psched_workload.Job.t -> int -> float) ->
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

    [estimate job procs] (default: the actual duration) is the run
    time the scheduler believes: every decision plans with it, a
    started job holds its believed window, and it runs for its actual
    duration ([Job.time_on]).  When the window is longer, its tail is
    given back at the first step at or after the real completion.
    Estimates must not be below the actual durations;
    {!Nonclairvoyant.easy} checks this.

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

val first_fit :
  ?obs:Psched_obs.Obs.t ->
  ?reservations:Psched_platform.Reservation.t list ->
  key:(now:float -> Packing.allocated -> 'k) ->
  m:int ->
  Packing.allocated list ->
  Psched_sim.Schedule.t
(** Greedy first fit on [m] processors: at every step the queue is
    sorted by [key ~now] (polymorphic [compare]; ties keep arrival
    order) and every job that fits now starts, so any later job that
    fits overtakes one that does not.  With an enabled [obs], starts
    emit ["job.start"] and a [prov.choice] ["first_fit"], failed
    probes ["backfill.hole"] and a [prov.reject] ["no_fit"], under the
    spans ["first-fit"] and ["first-fit.query"].  Same precondition as
    {!easy}. *)
