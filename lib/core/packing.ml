open Psched_workload
open Psched_sim
module Obs = Psched_obs.Obs
module R = Psched_platform.Resource

type allocated = Job.t * int

let allocate_rigid (job : Job.t) =
  match job.shape with
  | Job.Rigid { procs; _ } -> (job, procs)
  | Job.Moldable { min_procs; _ } -> (job, min_procs)
  | Job.Divisible _ ->
    invalid_arg "Packing.allocate_rigid: divisible jobs are handled by the DLT layer"
  | Job.Multiparam _ -> (job, 1)

let place ?(obs = Obs.null) ?profile ?(earliest = 0.0) ~m allocated =
  let profile =
    match profile with Some p -> p | None -> Rprofile.create (R.platform m)
  in
  let place_one ((job : Job.t), procs) =
    if procs > m then
      invalid_arg
        (Printf.sprintf "Packing.place: job %d needs %d > %d processors" job.id procs m);
    let duration = Job.time_on job procs in
    let start =
      Rprofile.place profile ~earliest:(Float.max job.release earliest) ~duration ~procs
        ~res:job.res
    in
    if Obs.enabled obs then begin
      Obs.prov_consider obs ~job:job.id ~start ~procs;
      Obs.job_start obs ~job:job.id ~start ~procs;
      Obs.queue_wait obs ~job:job.id ~wait:(start -. job.release)
    end;
    Schedule.entry ~job ~start ~procs ()
  in
  List.map place_one allocated

let fcfs ((a : Job.t), _) ((b : Job.t), _) = compare (a.release, a.id) (b.release, b.id)

let largest_area_first ((a : Job.t), ka) ((b : Job.t), kb) =
  let area (j, k) = Job.work_on j k in
  compare (area (b, kb), a.id) (area (a, ka), b.id)

let longest_time_first ((a : Job.t), ka) ((b : Job.t), kb) =
  compare (Job.time_on b kb, a.id) (Job.time_on a ka, b.id)

let list_schedule ?(obs = Obs.null) ?(order = fcfs) ?(reservations = []) ?cap ~m allocated =
  let profile = Rprofile.create ~reservations (R.platform ?cap m) in
  let sorted = List.sort order allocated in
  let entries = place ~obs ~profile ~m sorted in
  Schedule.make ~m entries
