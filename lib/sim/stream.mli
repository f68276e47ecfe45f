(** Streaming bounded-memory scheduling.

    [run] pulls jobs from a generator (non-decreasing release dates),
    places each at its earliest feasible start on a single
    {!Profile}, folds the placement into a {!Metrics.Acc}, and — by
    default — compacts the profile up to the arrival front.  Peak
    memory is O(live horizon) (the widest window of simultaneously
    relevant reservations), independent of the total number of jobs;
    the test suite pins the peak at 10^4 jobs and bounds it at four
    times as many.

    Determinism: the result is a pure function of the generator's
    output; compaction provably cannot change it (all queries are at or
    after the watermark — see {!Profile.compact}), and the test suite
    asserts equality of compacted and uncompacted runs. *)

type result = {
  jobs : int;  (** placements folded in *)
  metrics : Metrics.t;  (** criteria, accumulated incrementally *)
  profile : Profile.stats;  (** incl. peak live segments and folded totals *)
  schedule : Schedule.t option;  (** only with [~keep_schedule:true] *)
}

val run :
  ?compact:bool ->
  ?lag:float ->
  ?alloc:(Psched_workload.Job.t -> int) ->
  ?keep_schedule:bool ->
  m:int ->
  (unit -> Psched_workload.Job.t option) ->
  result
(** [run ~m next] drains [next] until it yields [None].

    [?compact] (default true): fold the timeline behind each arrival;
    disable only to measure the unbounded baseline.
    [?lag] (default 0): keep this many seconds of history behind the
    arrival front (for consumers that still probe the recent past).
    [?alloc] (default [min m (Job.max_procs job)]): processor count per
    job — the rigid count for rigid jobs.
    [?keep_schedule] (default false): also materialise the placements
    as a {!Schedule.t}, in arrival order — for tests and small runs
    only, as it restores O(n) memory.

    @raise Invalid_argument on decreasing releases, an allocation
    outside [\[1, m\]], or an allocation the job cannot run on. *)

val of_list : Psched_workload.Job.t list -> unit -> Psched_workload.Job.t option
(** Generator view of a job list (assumed sorted by release). *)
