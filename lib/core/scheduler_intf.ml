(** The unified scheduler API.

    Every policy in this library historically exposed a
    differently-shaped entry point (allocated lists, rigid-only jobs,
    strategy records, functors).  [Scheduler_intf] is the common
    contract the {!Schedulers} registry adapts them all to:

    {[ run : ctx -> Job.t list -> (outcome, error) result ]}

    so [psched], perfbench, the grid layers and the experiments select
    policies {e by name} and instrument them {e uniformly} through the
    [ctx]'s observability handle.  Precondition violations (release
    dates a policy cannot honour, jobs wider than the machine, ...)
    come back as typed {!error}s instead of [Invalid_argument]
    escapes. *)

open Psched_workload

(** How a policy treats release dates it cannot honour natively. *)
type release_policy =
  | Honour  (** keep release dates; error if the policy is off-line-only *)
  | Zero  (** strip release dates before scheduling (off-line view) *)

(** A-priori allocation rule turning moldable jobs rigid for the
    rigid-only policies (EASY, SMART, queue disciplines, ...). *)
type alloc_policy =
  | Alloc_work_bounded of float
      (** fastest allocation within (1+delta) of minimal work *)
  | Alloc_fastest
  | Alloc_thriftiest
  | Alloc_min  (** each job's minimal feasible allocation *)

type ctx = {
  m : int;  (** processors (the cores component of [cap]) *)
  cap : Psched_platform.Resource.t;
      (** full capacity vector; non-core components default to
          unbounded, which is the degenerate processors-only platform:
          every scalar policy ignores them and the multi-resource
          policies reduce to their scalar counterparts bit-identically *)
  obs : Psched_obs.Obs.t;  (** observability handle; {!Psched_obs.Obs.null} = off *)
  reservations : Psched_platform.Reservation.t list;
      (** advance reservations, honoured by the policies that support
          them: the on-line engine's (easy, easy-mr, fcfs, sjf, wsjf,
          max-stretch-first), conservative, list-mr and
          reservation-batches *)
  releases : release_policy;
  alloc : alloc_policy;
  epsilon : float;  (** dual-search precision for MRT-based policies *)
}

let ctx ?(obs = Psched_obs.Obs.null) ?(reservations = []) ?(releases = Honour)
    ?(alloc = Alloc_work_bounded 0.25) ?(epsilon = 0.01) ?cap ~m () =
  if m < 1 then invalid_arg "Scheduler_intf.ctx: m must be >= 1";
  (* [m] stays the source of truth for the cores component so every
     historic [ctx ~m ()] call site keeps its exact meaning. *)
  let cap = Psched_platform.Resource.platform ?cap m in
  { m; cap; obs; reservations; releases; alloc; epsilon }

type error =
  | Needs_zero_releases of { policy : string; job : int; release : float }
      (** the policy is off-line-only and [ctx.releases = Honour]
          found a positive release date *)
  | Too_wide of { policy : string; job : int; procs : int; m : int }
      (** a job cannot fit on the machine *)
  | Unsupported_shape of { policy : string; job : int; reason : string }
      (** e.g. a divisible load handed to a parallel-task policy *)
  | Needs_reservations of { policy : string }
      (** the policy is only meaningful with reservations *)
  | Over_resource of { policy : string; job : int; resource : string; need : int; capacity : int }
      (** a non-core component of a job's request vector exceeds the
          ctx capacity vector — the multi-resource analogue of
          [Too_wide] *)
  | Failure of { policy : string; reason : string }
      (** caught [Invalid_argument]/[Failure] escape from a policy
          body: kept as data so callers never need exception handlers *)

let error_to_string = function
  | Needs_zero_releases { policy; job; release } ->
    Printf.sprintf "%s: job %d has release date %g (off-line policy; use releases=Zero)" policy
      job release
  | Too_wide { policy; job; procs; m } ->
    Printf.sprintf "%s: job %d needs %d processors but the machine has %d" policy job procs m
  | Unsupported_shape { policy; job; reason } ->
    Printf.sprintf "%s: job %d has an unsupported shape (%s)" policy job reason
  | Needs_reservations { policy } -> Printf.sprintf "%s: requires reservations in the ctx" policy
  | Over_resource { policy; job; resource; need; capacity } ->
    Printf.sprintf "%s: job %d requests %d %s but the platform has %d" policy job need resource
      capacity
  | Failure { policy; reason } -> Printf.sprintf "%s: %s" policy reason

(** Per-run digest, computed once by the adapter. *)
type stats = {
  jobs : int;  (** submitted *)
  scheduled : int;  (** placed in the returned schedule *)
  makespan : float;
  total_work : float;  (** processor-seconds *)
  utilisation : float;
  obs_events : int;  (** trace events retained for this run *)
}

type outcome = {
  schedule : Psched_sim.Schedule.t;
  stats : stats;
  trace : Psched_obs.Trace.summary option;
      (** [Some] iff the ctx carried an enabled handle *)
}

type run = ctx -> Job.t list -> (outcome, error) result

module type S = sig
  val name : string
  (** Registry key, e.g. ["mrt"], ["easy"], ["wsjf"]. *)

  val doc : string
  (** One-line description shown by [psched policies]. *)

  val run : run
  (** Never raises on malformed input: precondition violations are
      {!error}s. *)
end

(* Shared by every adapter in {!Schedulers}. *)
let outcome_of_schedule ~ctx ~jobs (schedule : Psched_sim.Schedule.t) =
  let stats =
    {
      jobs = List.length jobs;
      scheduled = List.length schedule.Psched_sim.Schedule.entries;
      makespan = Psched_sim.Schedule.makespan schedule;
      total_work = Psched_sim.Schedule.total_work schedule;
      utilisation = Psched_sim.Schedule.utilisation schedule;
      obs_events =
        (if Psched_obs.Obs.enabled ctx.obs then List.length (Psched_obs.Obs.events ctx.obs)
         else 0);
    }
  in
  let trace =
    if Psched_obs.Obs.enabled ctx.obs then Some (Psched_obs.Trace.summarize ctx.obs) else None
  in
  { schedule; stats; trace }
