open Psched_workload

type estimator = Job.t -> int -> float

let exact job procs = Job.time_on job procs

let overestimate ~factor =
  if factor < 1.0 then invalid_arg "Nonclairvoyant.overestimate: factor must be >= 1";
  fun job procs -> factor *. Job.time_on job procs

let noisy ~seed ~max_factor =
  if max_factor < 1.0 then invalid_arg "Nonclairvoyant.noisy: max_factor must be >= 1";
  fun (job : Job.t) procs ->
    let rng = Psched_util.Rng.create ((job.id * 2654435761) + seed) in
    Psched_util.Rng.uniform rng 1.0 max_factor *. Job.time_on job procs

let easy ?reservations ~estimator ~m allocated =
  List.iter
    (fun ((j : Job.t), k) ->
      if k > m then
        invalid_arg (Printf.sprintf "Nonclairvoyant.easy: job %d wider than %d" j.id m);
      if estimator j k < Job.time_on j k -. 1e-9 then
        invalid_arg (Printf.sprintf "Nonclairvoyant.easy: job %d under-estimated" j.id))
    allocated;
  Backfilling.easy ?reservations ~estimate:estimator ~m allocated
