(** On-line queue disciplines for the response-time criteria of §3
    (mean/maximum stretch, mean flow).

    The guarantees of §4 target makespan and weighted completion; a
    grid's users mostly feel waiting time.  This module provides the
    classical non-preemptive queue orders, applied greedily on the
    on-line engine ({!Backfilling.first_fit}): at every event (arrival,
    completion or reservation boundary) the queue is sorted in
    priority order and every job that fits now is started.

    - [Fcfs]: arrival order (baseline);
    - [Sjf]: shortest job first — near-optimal for mean flow;
    - [Wsjf]: weight-over-time density (generalised Smith rule);
    - [Max_stretch_first]: highest current stretch (wait + run over
      run) first — ages long-waiting short jobs, counters starvation
      and targets the stretch criteria.  Its key depends on the date,
      so the order is recomputed at every event.

    The scan starts any later job that fits, so a wide job can be
    overtaken under every order, FCFS included — the classic price of
    greedy space sharing; the due-date layer ({!Due_date}) and EASY's
    head reservation ({!Backfilling.easy}) are the remedies. *)

type policy = Fcfs | Sjf | Wsjf | Max_stretch_first

val all : (string * policy) list

val schedule :
  ?obs:Psched_obs.Obs.t ->
  ?reservations:Psched_platform.Reservation.t list ->
  policy ->
  m:int ->
  Packing.allocated list ->
  Psched_sim.Schedule.t
(** Event-driven greedy run around the advance [reservations];
    terminates once every job is placed.  [obs] traces as
    {!Backfilling.first_fit} does.

    Precondition: every allocation is at most [m] processors wide.
    The {!Schedulers} adapter enforces this with a typed [Too_wide]
    error; direct callers must filter wider jobs themselves. *)
