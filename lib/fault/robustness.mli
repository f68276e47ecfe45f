(** Robustness metrics: the degradation table answering "which policy
    survives which failure regime?" quantitatively.

    {!degradation} sweeps a grid of outage rates crossed with the
    recovery policies (no fault tolerance / restart-from-scratch /
    checkpoint-restart at the Young-Daly period) and the resubmission
    regimes (with and without exponential backoff), running the same
    seed-deterministic workload through {!Injector} for every cell.
    [psched fault -o BENCH_2.json] records it. *)

type row = {
  rate : float;  (** outage arrival rate (per second) *)
  policy : string;  (** "none" | "restart" | "checkpoint-daly" *)
  backoff : bool;
  goodput : float;
  useful_work : float;
  wasted_work : float;
  checkpoint_overhead : float;
  kills : int;
  restarts : int;
  checkpoints : int;
  completed : int;
  lost : int;
  makespan : float;
}

type table = {
  seed : int;
  m : int;
  jobs : int;
  horizon : float;
  mean_duration : float;
  checkpoint_cost : float;
  rows : row list;
}

val default_rates : float list
(** [0.002; 0.01; 0.05] outages per second. *)

val degradation :
  ?rates:float list ->
  ?n:int ->
  ?m:int ->
  ?horizon:float ->
  ?mean_duration:float ->
  ?checkpoint_cost:float ->
  ?domains:int ->
  seed:int ->
  unit ->
  table
(** Build the full degradation grid: [rates] x {none, restart,
    checkpoint-daly} x {backoff, no-backoff}.  Deterministic in
    [seed]; each rate draws its outages from an independent stream so
    columns are comparable across runs.  All randomness is drawn before
    the grid replays, so [?domains] (default 1) shards the cells over a
    [Pool] without changing a single row. *)

val find : table -> rate:float -> policy:string -> backoff:bool -> row option

val to_json : table -> string
(** [BENCH_2.json] payload: schema [psched-fault/1], run parameters,
    one object per cell. *)

val to_csv : table -> string
(** Numeric CSV (policy encoded 0=none, 1=restart, 2=checkpoint). *)

val to_string : table -> string
(** Human-readable table for the CLI. *)
