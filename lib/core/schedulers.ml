open Psched_workload
module I = Scheduler_intf

let ( let* ) = Result.bind

let zero_releases jobs = List.map (fun (j : Job.t) -> { j with Job.release = 0.0 }) jobs

(* Every adapter starts with the same width check so callers get a
   typed [Too_wide] instead of a policy-specific [Invalid_argument]. *)
let width_ok ~policy ~m jobs =
  match
    List.find_map
      (fun (j : Job.t) ->
        let need = Job.min_procs j in
        if need > m then Some (I.Too_wide { policy; job = j.id; procs = need; m }) else None)
      jobs
  with
  | Some e -> Error e
  | None -> Ok ()

(* Multi-resource policies additionally require every job's minimal
   request vector to fit the platform capacity; the first overflowing
   component becomes a typed [Over_resource].  Cores are already
   covered by [width_ok], so only non-core components can trip here. *)
let resource_ok ~policy ~cap jobs =
  match
    List.find_map
      (fun (j : Job.t) ->
        match Psched_platform.Resource.first_overflow (Job.min_request j) ~within:cap with
        | Some (resource, need, capacity) ->
          Some (I.Over_resource { policy; job = j.Job.id; resource; need; capacity })
        | None -> None)
      jobs
  with
  | Some e -> Error e
  | None -> Ok ()

(* Off-line-only policies: positive release dates are a typed error
   under [Honour], stripped under [Zero]. *)
let offline_view ~policy (ctx : I.ctx) jobs =
  match ctx.releases with
  | I.Zero -> Ok (zero_releases jobs)
  | I.Honour -> (
    match List.find_opt (fun (j : Job.t) -> j.release > 0.0) jobs with
    | Some j -> Error (I.Needs_zero_releases { policy; job = j.Job.id; release = j.Job.release })
    | None -> Ok jobs)

(* Policies that honour release dates natively still obey [Zero]. *)
let online_view (ctx : I.ctx) jobs =
  match ctx.releases with I.Zero -> zero_releases jobs | I.Honour -> jobs

let chooser (ctx : I.ctx) =
  match ctx.alloc with
  | I.Alloc_work_bounded delta -> Moldable_alloc.work_bounded ~m:ctx.m ~delta
  | I.Alloc_fastest -> Moldable_alloc.fastest ~m:ctx.m
  | I.Alloc_thriftiest -> Moldable_alloc.thriftiest ~m:ctx.m
  | I.Alloc_min -> Job.min_procs

(* Rigid-only policies: turn moldable jobs rigid through [ctx.alloc];
   divisible loads belong to the DLT layer and are rejected. *)
let rigid_view ~policy (ctx : I.ctx) jobs =
  match
    List.find_opt
      (fun (j : Job.t) -> match j.shape with Job.Divisible _ -> true | _ -> false)
      jobs
  with
  | Some j ->
    Error
      (I.Unsupported_shape
         { policy; job = j.Job.id; reason = "divisible load (use the DLT layer)" })
  | None -> Ok (Moldable_alloc.allocate (chooser ctx) jobs)

let guard ~policy f =
  try f ()
  with
  | Invalid_argument reason | Stdlib.Failure reason -> Error (I.Failure { policy; reason })

let outcome (ctx : I.ctx) jobs schedule = Ok (I.outcome_of_schedule ~ctx ~jobs schedule)

(* Adapter shapes.  [moldable_offline]/[moldable_online] feed jobs
   straight to the policy; [rigid_*] allocate first. *)

let moldable_offline ~policy sched : I.run =
 fun ctx jobs ->
  guard ~policy @@ fun () ->
  let* () = width_ok ~policy ~m:ctx.m jobs in
  let* jobs' = offline_view ~policy ctx jobs in
  outcome ctx jobs (sched ctx jobs')

let moldable_online ~policy sched : I.run =
 fun ctx jobs ->
  guard ~policy @@ fun () ->
  let* () = width_ok ~policy ~m:ctx.m jobs in
  outcome ctx jobs (sched ctx (online_view ctx jobs))

let rigid_offline ~policy sched : I.run =
 fun ctx jobs ->
  guard ~policy @@ fun () ->
  let* () = width_ok ~policy ~m:ctx.m jobs in
  let* jobs' = offline_view ~policy ctx jobs in
  let* tasks = rigid_view ~policy ctx jobs' in
  outcome ctx jobs (sched ctx tasks)

let rigid_online ~policy sched : I.run =
 fun ctx jobs ->
  guard ~policy @@ fun () ->
  let* () = width_ok ~policy ~m:ctx.m jobs in
  let* tasks = rigid_view ~policy ctx (online_view ctx jobs) in
  outcome ctx jobs (sched ctx tasks)

(* [rigid_online] plus the vector capacity precheck, for policies that
   schedule against [ctx.cap] instead of the scalar [ctx.m]. *)
let rigid_online_mr ~policy sched : I.run =
 fun ctx jobs ->
  guard ~policy @@ fun () ->
  let* () = width_ok ~policy ~m:ctx.m jobs in
  let* () = resource_ok ~policy ~cap:ctx.cap jobs in
  let* tasks = rigid_view ~policy ctx (online_view ctx jobs) in
  outcome ctx jobs (sched ctx tasks)

let make name doc run : (module I.S) =
  (module struct
    let name = name
    let doc = doc
    let run = run
  end)

let delta_of (ctx : I.ctx) =
  match ctx.alloc with I.Alloc_work_bounded d -> d | _ -> 0.25

let registry : (module I.S) list =
  [
    make "mrt" "MRT (3/2+eps) dual-approximation for moldable tasks, off-line (sec. 4.1)"
      (moldable_offline ~policy:"mrt" (fun ctx jobs ->
           Mrt.schedule ~obs:ctx.obs ~epsilon:ctx.epsilon ~m:ctx.m jobs));
    make "bicriteria" "doubling-deadline batches for makespan + sum wC (sec. 4.4)"
      (moldable_online ~policy:"bicriteria" (fun ctx jobs ->
           Bicriteria.schedule ~obs:ctx.obs ~m:ctx.m jobs));
    make "batch-online" "Shmoys-Wein-Williamson batches over MRT, (3+eps)-competitive (sec. 4.2)"
      (moldable_online ~policy:"batch-online" (fun ctx jobs ->
           Batch_online.with_mrt ~obs:ctx.obs ~epsilon:ctx.epsilon ~m:ctx.m jobs));
    make "smart" "SMART power-of-two shelves for sum wC, off-line rigid (sec. 4.3)"
      (rigid_offline ~policy:"smart" (fun ctx tasks ->
           Smart.schedule ~obs:ctx.obs ~m:ctx.m tasks));
    make "easy" "EASY aggressive backfilling around the queue head's reservation"
      (rigid_online ~policy:"easy" (fun ctx tasks ->
           Backfilling.easy ~obs:ctx.obs ~reservations:ctx.reservations ~m:ctx.m tasks));
    make "list-mr" "multi-resource list scheduling: start only when cores, memory and bandwidth fit"
      (rigid_online_mr ~policy:"list-mr" (fun ctx tasks ->
           Packing.list_schedule ~obs:ctx.obs ~reservations:ctx.reservations ~cap:ctx.cap
             ~m:ctx.m tasks));
    make "easy-mr" "multi-resource EASY backfilling: the head reserves its full resource vector"
      (rigid_online_mr ~policy:"easy-mr" (fun ctx tasks ->
           Backfilling.easy ~obs:ctx.obs ~reservations:ctx.reservations ~cap:ctx.cap ~m:ctx.m
             tasks));
    make "conservative" "conservative backfilling: every queued job holds a reservation"
      (rigid_online ~policy:"conservative" (fun ctx tasks ->
           Backfilling.conservative ~obs:ctx.obs ~reservations:ctx.reservations ~m:ctx.m tasks));
    make "fcfs" "first-come first-served queue order, list placement"
      (rigid_online ~policy:"fcfs" (fun ctx tasks ->
           Queue_policies.schedule ~obs:ctx.obs ~reservations:ctx.reservations
             Queue_policies.Fcfs ~m:ctx.m tasks));
    make "sjf" "shortest job first queue order"
      (rigid_online ~policy:"sjf" (fun ctx tasks ->
           Queue_policies.schedule ~obs:ctx.obs ~reservations:ctx.reservations
             Queue_policies.Sjf ~m:ctx.m tasks));
    make "wsjf" "weighted shortest job first (Smith ratio) queue order"
      (rigid_online ~policy:"wsjf" (fun ctx tasks ->
           Queue_policies.schedule ~obs:ctx.obs ~reservations:ctx.reservations
             Queue_policies.Wsjf ~m:ctx.m tasks));
    make "max-stretch-first" "serve the job with the worst pending stretch first"
      (rigid_online ~policy:"max-stretch-first" (fun ctx tasks ->
           Queue_policies.schedule ~obs:ctx.obs ~reservations:ctx.reservations
             Queue_policies.Max_stretch_first ~m:ctx.m tasks));
    make "edd" "earliest due date order for tardiness criteria"
      (rigid_online ~policy:"edd" (fun ctx tasks -> Due_date.edd ~m:ctx.m tasks));
    make "edd-admission" "EDD with admission control: only due-date-safe jobs are kept"
      (rigid_online ~policy:"edd-admission" (fun ctx tasks ->
           (Due_date.with_admission ~m:ctx.m tasks).Due_date.schedule));
    make "nfdh" "next-fit decreasing height strip packing, off-line rigid"
      (rigid_offline ~policy:"nfdh" (fun ctx tasks -> Strip_packing.nfdh ~m:ctx.m tasks));
    make "ffdh" "first-fit decreasing height strip packing, off-line rigid"
      (rigid_offline ~policy:"ffdh" (fun ctx tasks -> Strip_packing.ffdh ~m:ctx.m tasks));
    make "wspt" "weighted shortest processing time on a single machine (ctx.m ignored)"
      (fun ctx jobs ->
        let policy = "wspt" in
        guard ~policy @@ fun () ->
        (* The single machine has one processor: a job that cannot
           shrink to 1 is too wide for it, whatever ctx.m says. *)
        match List.find_opt (fun (j : Job.t) -> Job.min_procs j > 1) jobs with
        | Some j -> Error (I.Too_wide { policy; job = j.Job.id; procs = Job.min_procs j; m = 1 })
        | None -> outcome ctx jobs (Single_machine.schedule (online_view ctx jobs)));
    make "rigid-separate" "rigid/moldable mix: pack each class separately, rigid first (sec. 4.5)"
      (moldable_offline ~policy:"rigid-separate" (fun ctx jobs ->
           Rigid_mix.schedule (Rigid_mix.Separate { rigid_first = true }) ~m:ctx.m jobs));
    make "rigid-apriori"
      "rigid/moldable mix: a-priori work-bounded allocation, then list scheduling"
      (moldable_online ~policy:"rigid-apriori" (fun ctx jobs ->
           Rigid_mix.schedule (Rigid_mix.Apriori { delta = delta_of ctx }) ~m:ctx.m jobs));
    make "rigid-firstfit" "rigid/moldable mix: first-fit doubling batches"
      (moldable_online ~policy:"rigid-firstfit" (fun ctx jobs ->
           Rigid_mix.schedule Rigid_mix.First_fit_batch ~m:ctx.m jobs));
    make "reservation-batches" "batch windows between advance reservations"
      (fun ctx jobs ->
        let policy = "reservation-batches" in
        guard ~policy @@ fun () ->
        if ctx.reservations = [] then Error (I.Needs_reservations { policy })
        else
          let* () = width_ok ~policy ~m:ctx.m jobs in
          outcome ctx jobs
            (Reservation_batches.schedule ~m:ctx.m ~reservations:ctx.reservations
               (online_view ctx jobs)));
  ]

let names = List.map (fun (module S : I.S) -> S.name) registry
let docs = List.map (fun (module S : I.S) -> (S.name, S.doc)) registry

let find name =
  List.find_opt (fun (module S : I.S) -> String.equal S.name name) registry

let run name ctx jobs =
  match find name with
  | Some (module S : I.S) -> S.run ctx jobs
  | None ->
    Error
      (I.Failure
         { policy = name; reason = "unknown policy (see `psched policies` for the registry)" })
