open Psched_workload

type policy = Fcfs | Sjf | Wsjf | Max_stretch_first

let all =
  [
    ("FCFS", Fcfs);
    ("SJF", Sjf);
    ("WSJF", Wsjf);
    ("max-stretch-first", Max_stretch_first);
  ]

let priority policy ~now ((job : Job.t), procs) =
  let p = Job.time_on job procs in
  match policy with
  | Fcfs -> (job.release, float_of_int job.id)
  | Sjf -> (p, float_of_int job.id)
  | Wsjf -> (p /. job.weight, float_of_int job.id)
  | Max_stretch_first ->
    (* Highest (wait + run) / run first: negate for the sort. *)
    (-.((now -. job.release +. p) /. p), float_of_int job.id)

let schedule ?obs ?reservations policy ~m allocated =
  Backfilling.first_fit ?obs ?reservations ~key:(priority policy) ~m allocated
