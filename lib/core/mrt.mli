(** MRT dual-approximation algorithm for off-line moldable makespan
    (§4.1 of the paper; Mounié–Rapine–Trystram).

    Given a guess [lambda] of the optimal makespan, the algorithm
    either {e certifies} that the optimum exceeds [lambda] or produces
    a schedule close to [3 lambda / 2].  A binary search on [lambda]
    (dual approximation, Hochbaum–Shmoys) then yields a
    (3/2 + epsilon)-approximation.

    The guess test follows the paper's constraints on an optimal
    schedule of length <= lambda:
    - every task fits: min time <= lambda;
    - tasks that cannot run within lambda/2 use at most m processors
      in total at their canonical allocation;
    - the minimum total work over assignments of every task to either a
      "long" shelf (time <= lambda, canonical allocation
      gamma(j, lambda), shelf width <= m) or a "short" shelf (time <=
      lambda/2, allocation gamma(j, lambda/2)) — computed by a knapsack
      dynamic program — is at most lambda·m.

    Rejection therefore always certifies optimum > lambda.  On
    acceptance the two-shelf relaxed solution is turned into a feasible
    schedule: shelf-1 tasks start at 0; shelf-2 tasks are packed
    greedily into the remaining capacity (this replaces the paper's
    chain of local transformations; the binary search keeps the best
    schedule seen, and the empirical ratio stays within 3/2 + epsilon —
    see EXPERIMENTS.md). *)

open Psched_workload

val canonical_alloc : m:int -> deadline:float -> Job.t -> int option
(** gamma(j, d): smallest feasible allocation (<= m) whose execution
    time is at most [deadline]; [None] if even the fastest feasible
    allocation is too slow. *)

type verdict =
  | Rejected  (** certificate that no schedule of length <= lambda exists *)
  | Accepted of Psched_sim.Schedule.t

val try_guess : ?obs:Psched_obs.Obs.t -> m:int -> lambda:float -> Job.t list -> verdict

val schedule :
  ?obs:Psched_obs.Obs.t -> ?epsilon:float -> m:int -> Job.t list -> Psched_sim.Schedule.t
(** Full dual-approximation binary search ([epsilon] defaults to 0.01),
    on the {!Psched_sim.Profile} engine, with per-job
    allocation caches ({!Psched_workload.Alloc_cache}) built once and
    shared by every lambda guess.  Release dates are ignored (off-line
    problem: all tasks available).

    With an enabled [obs], the dual search is bracketed in an
    ["mrt.search"] span and every lambda guess emits an ["mrt.guess"]
    event (accepted or rejected), with ["mrt.prune"]/["mrt.knapsack"]
    recording whether the floor bound excluded the guess before the
    knapsack DP ran; observability never changes the schedule.

    Precondition: [Job.min_procs j <= m] for every job.  The
    {!Schedulers} adapter enforces this with a typed [Too_wide]
    error; direct callers must filter wider jobs themselves. *)
