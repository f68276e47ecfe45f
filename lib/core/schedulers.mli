(** The policy registry: every scheduler in [lib/core] adapted to the
    unified {!Scheduler_intf.run} shape and selectable by name.

    [psched], perfbench, the grid layers and the experiments pick
    policies from this table instead of pattern-matching modules:

    {[
      let ctx = Scheduler_intf.ctx ~m:64 ~obs () in
      match Schedulers.run "easy" ctx jobs with
      | Ok { schedule; stats; trace } -> ...
      | Error e -> print_endline (Scheduler_intf.error_to_string e)
    ]}

    Rigid-only policies (EASY, conservative, queue disciplines, EDD,
    strip packing, SMART) allocate moldable jobs through
    [ctx.alloc] first and reject divisible loads with
    {!Scheduler_intf.Unsupported_shape}.  Off-line-only policies (MRT,
    SMART, NFDH/FFDH, rigid-separate) return
    {!Scheduler_intf.Needs_zero_releases} when [ctx.releases = Honour]
    meets a positive release date, and strip release dates under
    [Zero].  No adapter raises: [Invalid_argument]/[Failure] escapes
    come back as {!Scheduler_intf.Failure}. *)

open Psched_workload

val registry : (module Scheduler_intf.S) list
(** All policies, in presentation order. *)

val names : string list
(** Registry keys, e.g. ["mrt"; "bicriteria"; ...; "easy"; "fcfs"]. *)

val docs : (string * string) list
(** [(name, one-line description)] for each policy. *)

val find : string -> (module Scheduler_intf.S) option

val run :
  string ->
  Scheduler_intf.ctx ->
  Job.t list ->
  (Scheduler_intf.outcome, Scheduler_intf.error) result
(** [run name ctx jobs] looks the policy up and runs it; an unknown
    name is a {!Scheduler_intf.Failure} error, not an exception. *)
