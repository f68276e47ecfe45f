(** Scheduling with inexact runtime estimates.

    The paper's on-line discussion (§2.2, §4.2) distinguishes
    clairvoyant scheduling (parameters known at release) from
    non-clairvoyant scheduling.  Real batch systems sit in between:
    users supply {e estimates} (usually over-estimates, since jobs are
    killed at their requested time).  This module runs EASY
    backfilling ({!Backfilling.easy} [~estimate]) with estimated
    durations driving the planning while actual durations drive the
    events, quantifying how much guarantee degradation the
    clairvoyance assumption hides.

    The scheduler sees [estimate job procs]; a started job actually
    completes after [Job.time_on job procs].  Estimates must
    over-estimate ([>= actual]); under-estimates would kill jobs in a
    real system, which is out of scope here and rejected. *)

open Psched_workload

type estimator = Job.t -> int -> float
(** Estimated duration of a job on its allocation. *)

val exact : estimator
(** The clairvoyant case: estimate = actual. *)

val overestimate : factor:float -> estimator
(** actual x factor, the uniform padding model (factor >= 1). *)

val noisy : seed:int -> max_factor:float -> estimator
(** Per-job factor drawn uniformly in [\[1, max_factor\]],
    deterministically from the job id and [seed]. *)

val easy :
  ?reservations:Psched_platform.Reservation.t list ->
  estimator:estimator ->
  m:int ->
  Packing.allocated list ->
  Psched_sim.Schedule.t
(** EASY backfilling planned with estimates, executed with actual
    durations.  The returned schedule carries actual durations (so the
    standard validator applies).
    @raise Invalid_argument if an estimate is below the actual
    duration or a job is wider than [m]. *)
