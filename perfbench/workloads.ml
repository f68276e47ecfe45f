(* Seeded end-to-end workloads: the repository benchmark.

   One invocation runs one workload:

     workloads.exe --workload NAME --seed S --seconds T --trace 0|1
                   [--scale F] [--out DIR]

   and, in this order,
   1. generates the inputs from the seed (timed: setup_s, the median
      of several generations);
   2. runs one untimed warm-up on the first tenth of the inputs;
   3. repeats the timed run, each repetition after Gc.compact, for
      about T seconds (at least once);
   4. checks every output (schedule validity, WAL audit, recovery);
   5. prints one line per metric, then as the last line a JSON object
      {"correct", "attempted", "failed", "metrics"}.

   --trace 0 reports the end-to-end metrics, measured with observation
   off.  --trace 1 reports the per-layer metrics: the untraced layer
   timings of the same run, plus one extra repetition on an enabled Obs
   handle read back through the span profiler and counters.  The process exits 1 when a
   check failed.  Load comes from this one process on one domain.

   Every layer is measured from outside, by timing calls into public
   functions; no library code is instrumented for the benchmark. *)

open Psched_workload
open Psched_sim
open Psched_core
module Obs = Psched_obs.Obs
module Profiler = Psched_obs.Profiler
module R = Psched_platform.Resource
module Rng = Psched_util.Rng
module Stats = Psched_util.Stats
module Serve = Psched_serve
module Finding = Psched_check.Finding

(* The harness's one time base; the optional-argument default is the
   installable-clock form the det-wallclock lint rule accepts. *)
let now ?(clock = Unix.gettimeofday) () = clock ()

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------ results *)

(* Metric name -> (value, how it was obtained).  Names absent at print
   time are layers the workload does not exercise. *)
let results : (string, float * string) Hashtbl.t = Hashtbl.create 64

let put ?(note = "") name value = Hashtbl.replace results name (value, note)

let put_sampled name samples =
  let q p = Stats.percentile p samples in
  put name (q 0.5)
    ~note:(Printf.sprintf "q1 %.6g  q3 %.6g  n=%d" (q 0.25) (q 0.75) (List.length samples))

let ratio a b = if b > 0.0 then a /. b else 0.0

let end_to_end =
  [
    ("jobs_per_s", "jobs/s");
    ("decide_p50_ms", "ms");
    ("decide_p90_ms", "ms");
    ("cmax_ratio", "ratio");
    ("mean_flow_s", "s");
    ("served_frac", "fraction");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("run.rep_s", "s");
    ("workload.gen_s", "s");
    ("core.schedule_s", "s");
    ("core.schedule_s.easy-mr", "s");
    ("core.schedule_s.list-mr", "s");
    ("core.alloc_bytes_per_job", "bytes");
    ("sim.validate_s", "s");
    ("sim.metrics_s", "s");
    ("span.easy.self_s", "s");
    ("span.easy.backfill.self_s", "s");
    ("span.mrt.alloc.self_s", "s");
    ("span.mrt.pack.self_s", "s");
    ("span.mrt.search.self_s", "s");
    ("span.easy-mr.self_s", "s");
    ("span.easy-mr.backfill.self_s", "s");
    ("backfill.fill_ratio", "ratio");
    ("backfill.probes_per_job", "count");
    ("mrt.guess_accept_ratio", "ratio");
    ("mrt.knapsack_memo_hit_ratio", "ratio");
    ("serve.run_s", "s");
    ("serve.alloc_bytes_per_arrival", "bytes");
    ("span.serve.loop.self_s", "s");
    ("span.serve.decide.self_s", "s");
    ("serve.wal_cost_s", "s");
    ("serve.wal_bytes_per_arrival", "bytes");
    ("serve.wal_replay_s", "s");
    ("serve.recover_s", "s");
    ("serve.rounds", "count");
    ("serve.max_queue_depth", "count");
    ("serve.admitted", "count");
    ("serve.shed", "count");
    ("sim.profile.searches_per_arrival", "count");
    ("sim.profile.peak_segments", "count");
    ("sim.profile.compactions", "count");
    ("obs.overhead_frac", "fraction");
    ("gc.major_collections", "count");
  ]

(* ------------------------------------------------------------- checks *)

let failures = ref []
let fail msg = failures := msg :: !failures

(* One timed repetition: the operations it processed and whether its
   output passed every check.  A failed repetition counts all of its
   operations as failed. *)
type rep = { ops : int; ok : bool }

(* Decision latency, in ms.  Every repetition makes the same decision
   calls on the same inputs, so each call's latency is the fastest of
   its timings over the repetitions, and the [q] quantile is taken over
   those calls.  A noisy stretch on the machine slows the calls it
   overlaps, which a per-repetition quantile would report as its tail;
   here it has to overlap the same call in every repetition. *)
let put_decide name q calls =
  let n = List.length (List.hd calls) in
  if List.exists (fun c -> List.length c <> n) calls then
    fail "repetitions made different numbers of decision calls";
  let calls = List.filter (fun c -> List.length c = n) calls in
  let best = List.fold_left (List.map2 Float.min) (List.hd calls) (List.tl calls) in
  put name
    (1e3 *. Stats.percentile q best)
    ~note:(Printf.sprintf "best of %d reps per call, %d calls" (List.length calls) n)

(* -------------------------------------------------------------- memory *)

let vm_hwm_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" -> (
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | _ :: kb :: _ -> (
          match int_of_string_opt kb with Some kb -> float_of_int kb /. 1024.0 | None -> 0.0)
        | _ -> 0.0)
      | _ -> scan ()
    in
    let mb = scan () in
    close_in ic;
    mb

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* ----------------------------------------------------------- harness *)

(* Generate at least 5 times and for a twentieth of the measured time,
   and keep the last copy: generation takes milliseconds on the batch
   workloads, so a single timing would be mostly noise.  Earlier copies
   are collected before the next generation so they do not inflate the
   resident-set high-water mark. *)
let setup ~seconds gen =
  let stop = now () +. (seconds /. 20.0) in
  let rec go k times =
    Gc.full_major ();
    let inputs, t = timed gen in
    if k >= 5 && now () >= stop then (inputs, List.rev (t :: times)) else go (k + 1) (t :: times)
  in
  let inputs, times = go 1 [] in
  put_sampled "setup_s" times;
  put_sampled "workload.gen_s" times;
  inputs

(* Repeat for about [seconds], at least once: another repetition runs
   when, at the mean length so far, it would end less than half a
   repetition past the deadline. *)
let repeat ~seconds f =
  let start = now () in
  let rec go k acc =
    Gc.compact ();
    let acc = f () :: acc in
    let t = now () in
    if t +. ((t -. start) /. float_of_int k /. 2.0) < start +. seconds then go (k + 1) acc
    else List.rev acc
  in
  go 1 []

let first_tenth l =
  let keep = max 1 (List.length l / 10) in
  List.filteri (fun i _ -> i < keep) l

(* Self time per span label, summed over every stack path that ends in
   it (EASY inside a serve decision round counts as EASY). *)
let span_self obs label =
  List.fold_left
    (fun acc (r : Profiler.row) ->
      match List.rev r.Profiler.path with
      | last :: _ when last = label -> acc +. r.Profiler.stat.Obs.self
      | _ -> acc)
    0.0 (Profiler.rows obs)

let traced_handle () =
  let obs = Obs.create ~ring_capacity:16 () in
  Obs.set_wall_clock obs (fun () -> now ());
  obs

let put_spans obs labels =
  List.iter (fun l -> put (Printf.sprintf "span.%s.self_s" l) (span_self obs l)) labels;
  let c = Obs.Counter.get obs in
  let share hit miss = ratio (c hit) (c hit +. c miss) in
  put "backfill.fill_ratio" (share "backfill/filled" "backfill/hole_probes");
  put "mrt.guess_accept_ratio" (share "mrt/guess/accepted" "mrt/guess/rejected");
  put "mrt.knapsack_memo_hit_ratio" (share "mrt/knapsack/memo_hit" "mrt/knapsack/dp");
  print_string (Profiler.table obs)

(* -------------------------------------------------------------- batch *)

type instance = {
  policy : string;
  ctx : Scheduler_intf.ctx;
  cap : R.t option;  (** validated against when set (vector platforms) *)
  jobs : Job.t list;
}

(* What one repetition produced for one instance. *)
type placed = {
  schedule_s : float;
  validate_s : float;
  metrics_s : float;
  alloc : float;
  makespan : float;
  metrics : Metrics.t;
  scheduled : int;
  valid : bool;
}

let run_instance ?(obs = Obs.null) inst =
  let ctx = { inst.ctx with Scheduler_intf.obs } in
  let a0 = Gc.allocated_bytes () in
  let outcome, schedule_s = timed (fun () -> Schedulers.run inst.policy ctx inst.jobs) in
  let alloc = Gc.allocated_bytes () -. a0 in
  match outcome with
  | Error e ->
    fail (Scheduler_intf.error_to_string e);
    None
  | Ok o ->
    let sched = o.Scheduler_intf.schedule in
    let violations, validate_s =
      timed (fun () -> Validate.check ?cap:inst.cap ~jobs:inst.jobs sched)
    in
    let metrics, metrics_s = timed (fun () -> Metrics.compute ~jobs:inst.jobs sched) in
    if violations <> [] then
      fail
        (Format.asprintf "%s: %d violation(s), first: %a" inst.policy (List.length violations)
           Validate.pp_violation (List.hd violations));
    Some
      {
        schedule_s;
        validate_s;
        metrics_s;
        alloc;
        makespan = Schedule.makespan sched;
        metrics;
        scheduled = o.Scheduler_intf.stats.Scheduler_intf.scheduled;
        valid = violations = [];
      }

let run_batch ?obs instances = List.map (run_instance ?obs) instances

(* The schedule-derived numbers every repetition must reproduce. *)
let fingerprint placed =
  List.map (Option.map (fun p -> (p.makespan, p.metrics.Metrics.mean_flow, p.scheduled))) placed

let bench_batch ~seconds ~trace instances =
  let n_jobs = List.fold_left (fun acc i -> acc + List.length i.jobs) 0 instances in
  ignore (run_batch (List.map (fun i -> { i with jobs = first_tenth i.jobs }) instances));
  let gc0 = major_collections () in
  let reps = repeat ~seconds (fun () -> timed (fun () -> run_batch instances)) in
  let gc_per_rep = float_of_int (major_collections () - gc0) /. float_of_int (List.length reps) in
  put "peak_rss_mb" (vm_hwm_mb ());
  let reference = fingerprint (fst (List.hd reps)) in
  let checked =
    List.map
      (fun (placed, _) ->
        let ok =
          fingerprint placed = reference
          && List.for_all (function Some p -> p.valid | None -> false) placed
        in
        if not ok then fail "batch repetition differs from the first or is invalid";
        { ops = n_jobs; ok })
      reps
  in
  let walls = List.map snd reps in
  let sum_by ?policy f =
    List.map
      (fun (placed, _) ->
        List.fold_left2
          (fun acc inst p ->
            match p with
            | Some p when Option.fold ~none:true ~some:(String.equal inst.policy) policy ->
              acc +. f p
            | _ -> acc)
          0.0 instances placed)
      reps
  in
  let schedule_s = sum_by (fun p -> p.schedule_s) in
  put_sampled "jobs_per_s" (List.map (fun w -> float_of_int n_jobs /. w) walls);
  (* One decision call per instance: the Schedulers.run calls. *)
  let calls =
    List.map (fun (placed, _) -> List.filter_map (Option.map (fun p -> p.schedule_s)) placed) reps
  in
  put_decide "decide_p50_ms" 0.5 calls;
  put_decide "decide_p90_ms" 0.9 calls;
  put_sampled "run.rep_s" walls;
  put_sampled "core.schedule_s" schedule_s;
  List.iter
    (fun policy ->
      if List.exists (fun i -> i.policy = policy) instances then
        put_sampled ("core.schedule_s." ^ policy) (sum_by ~policy (fun p -> p.schedule_s)))
    [ "easy-mr"; "list-mr" ];
  put_sampled "sim.validate_s" (sum_by (fun p -> p.validate_s));
  put_sampled "sim.metrics_s" (sum_by (fun p -> p.metrics_s));
  put "core.alloc_bytes_per_job"
    (Stats.median (sum_by (fun p -> p.alloc)) /. float_of_int n_jobs);
  put "gc.major_collections" gc_per_rep;
  (* Schedule quality from the first repetition (all are identical). *)
  let placed = List.filter_map Fun.id (fst (List.hd reps)) in
  let log_ratios =
    List.map2
      (fun inst p -> log (p.makespan /. Lower_bounds.cmax ~m:inst.ctx.Scheduler_intf.m inst.jobs))
      instances placed
  in
  put "cmax_ratio" ~note:"exact"
    (exp (Stats.sum log_ratios /. float_of_int (List.length log_ratios)));
  let flow_total =
    List.fold_left
      (fun acc p -> acc +. (p.metrics.Metrics.mean_flow *. float_of_int p.scheduled))
      0.0 placed
  in
  let scheduled = List.fold_left (fun acc p -> acc + p.scheduled) 0 placed in
  put "mean_flow_s" ~note:"exact" (ratio flow_total (float_of_int scheduled));
  put "served_frac" ~note:"exact" (ratio (float_of_int scheduled) (float_of_int n_jobs));
  if trace then begin
    if Obs.span_stats Obs.null <> [] then fail "the disabled handle recorded spans";
    let obs = traced_handle () in
    let traced, wall = timed (fun () -> run_batch ~obs instances) in
    if fingerprint traced <> reference then fail "traced run changed the schedule";
    put "obs.overhead_frac" (ratio wall (Stats.median walls) -. 1.0);
    put "backfill.probes_per_job"
      (ratio (Obs.Counter.get obs "backfill/hole_probes") (float_of_int n_jobs));
    put_spans obs
      [ "easy"; "easy.backfill"; "mrt.alloc"; "mrt.pack"; "mrt.search"; "easy-mr";
        "easy-mr.backfill" ]
  end;
  checked

(* -------------------------------------------------------------- serve *)

type serve = {
  m : int;
  mode : Serve.Daemon.mode;
  round_every : float;
  queue_cap : int;
  arrivals : Job.t list;
}

let serve_run ?(obs = Obs.null) ?wal s =
  let cfg =
    Serve.Daemon.config ~m:s.m ~mode:s.mode ~round_every:s.round_every ~queue_cap:s.queue_cap
      ~shed:Serve.Admission.Reject ?wal ~obs ()
  in
  let arrivals = Serve.Arrivals.of_list s.arrivals in
  let a0 = Gc.allocated_bytes () in
  let o, wall = timed (fun () -> Serve.Daemon.run cfg arrivals) in
  (o, wall, Gc.allocated_bytes () -. a0)

let counters (o : Serve.Daemon.outcome) = o.Serve.Daemon.state.Serve.Snapshot.counters

(* The counters a WAL records; [completed] is not among them, because
   completions after the last logged event are folded only in memory. *)
let logged (c : Serve.Snapshot.counters) =
  Serve.Snapshot.(c.admitted, c.decided, c.shed, c.killed, c.deferred_jobs)

(* The run's user-visible results every repetition must reproduce. *)
let serve_fingerprint (o : Serve.Daemon.outcome) =
  (counters o, o.Serve.Daemon.metrics.Metrics.mean_flow, o.Serve.Daemon.metrics.Metrics.makespan)

(* Audit the log of a finished run: it replays cleanly, passes the WAL
   conservation rules with every admitted job decided, rebuilds a valid
   schedule, and recovery rebuilds the run's final counters. *)
let audit_wal s ~wal (o : Serve.Daemon.outcome) =
  match timed (fun () -> Serve.Wal.replay wal) with
  | (Error e, _) ->
    fail ("WAL replay: " ^ e);
    false
  | (Ok (entries, torn), replay_s) ->
    put "serve.wal_replay_s" replay_s;
    let errors =
      List.filter
        (fun (f : Finding.t) -> f.Finding.severity = Finding.Error)
        (Psched_check.Serve_rules.check ~complete:true entries)
    in
    List.iter
      (fun (f : Finding.t) ->
        fail (Printf.sprintf "WAL rule %s: %s" f.Finding.rule f.Finding.message))
      errors;
    if torn <> None then fail "WAL has a torn tail after a clean run";
    let admitted =
      List.filter_map
        (fun (e : Serve.Wal.entry) ->
          match e.Serve.Wal.record with Serve.Wal.Admit { job; _ } -> Some job | _ -> None)
        entries
    in
    let sched = Serve.Daemon.schedule_of_wal ~m:s.m entries in
    let violations = Validate.check ~jobs:admitted sched in
    if violations <> [] then
      fail
        (Format.asprintf "WAL schedule: %d violation(s), first: %a" (List.length violations)
           Validate.pp_violation (List.hd violations));
    put "cmax_ratio" ~note:"exact"
      (Schedule.makespan sched /. Lower_bounds.cmax ~m:s.m admitted);
    let (recovered, _), recover_s = timed (fun () -> Serve.Daemon.recover ~wal ~m:s.m ()) in
    put "serve.recover_s" recover_s;
    let same = logged recovered.Serve.Snapshot.counters = logged (counters o) in
    if not same then fail "recovered counters differ from the run's";
    let c = counters o in
    let balanced = c.Serve.Snapshot.admitted + c.Serve.Snapshot.shed = List.length s.arrivals in
    if not balanced then fail "admitted + shed differs from the arrivals";
    errors = [] && torn = None && violations = [] && same && balanced

let bench_serve ~seconds ~trace ~wal s =
  let n = List.length s.arrivals in
  ignore (serve_run ~wal { s with arrivals = first_tenth s.arrivals });
  let gc0 = major_collections () in
  let reps = repeat ~seconds (fun () -> serve_run ~wal s) in
  let gc_per_rep = float_of_int (major_collections () - gc0) /. float_of_int (List.length reps) in
  put "peak_rss_mb" (vm_hwm_mb ());
  let o, _, _ = List.hd reps in
  let reference = serve_fingerprint o in
  let wal_bytes = (Unix.stat wal).Unix.st_size in
  (* Every repetition wrote the same log; the last one is on disk. *)
  let last = List.length reps - 1 in
  let audited = audit_wal s ~wal (let o, _, _ = List.nth reps last in o) in
  let checked =
    List.mapi
      (fun i (o, _, _) ->
        let same = serve_fingerprint o = reference in
        if not same then fail "serve repetition differs from the first";
        { ops = n; ok = same && (i < last || audited) })
      reps
  in
  let walls = List.map (fun (_, w, _) -> w) reps in
  (* One decision call per round. *)
  let calls = List.map (fun (o, _, _) -> Array.to_list o.Serve.Daemon.decision_latencies) reps in
  let c = counters o in
  put_sampled "jobs_per_s" (List.map (fun w -> float_of_int n /. w) walls);
  put_decide "decide_p50_ms" 0.5 calls;
  put_decide "decide_p90_ms" 0.9 calls;
  put_sampled "run.rep_s" walls;
  put_sampled "serve.run_s" walls;
  put "serve.alloc_bytes_per_arrival"
    (Stats.median (List.map (fun (_, _, a) -> a) reps) /. float_of_int n);
  put "gc.major_collections" gc_per_rep;
  put "mean_flow_s" ~note:"exact" o.Serve.Daemon.metrics.Metrics.mean_flow;
  put "served_frac" ~note:"exact" (ratio (float_of_int c.Serve.Snapshot.admitted) (float_of_int n));
  put "serve.wal_bytes_per_arrival" (float_of_int wal_bytes /. float_of_int n);
  put "serve.rounds" (float_of_int (Array.length o.Serve.Daemon.decision_latencies));
  put "serve.max_queue_depth" (float_of_int o.Serve.Daemon.max_queue_depth);
  put "serve.admitted" (float_of_int c.Serve.Snapshot.admitted);
  put "serve.shed" (float_of_int c.Serve.Snapshot.shed);
  let p = o.Serve.Daemon.profile in
  put "sim.profile.searches_per_arrival"
    (float_of_int p.Profile.searches /. float_of_int n);
  put "sim.profile.peak_segments" (float_of_int p.Profile.peak_segments);
  put "sim.profile.compactions" (float_of_int p.Profile.compactions);
  if trace then begin
    if Obs.span_stats Obs.null <> [] then fail "the disabled handle recorded spans";
    let obs = traced_handle () in
    let traced, wall, _ = serve_run ~obs ~wal s in
    if serve_fingerprint traced <> reference then fail "traced run changed the outcome";
    put "obs.overhead_frac" (ratio wall (Stats.median walls) -. 1.0);
    put "backfill.probes_per_job"
      (ratio (Obs.Counter.get obs "backfill/hole_probes") (float_of_int n));
    put_spans obs [ "easy"; "easy.backfill"; "serve.loop"; "serve.decide" ];
    Gc.compact ();
    let _, no_wal, _ = serve_run s in
    put "serve.wal_cost_s" (Stats.median walls -. no_wal)
  end;
  checked

(* ---------------------------------------------------------- workloads *)

(* Each workload is a generator of its inputs: calling it is the
   benchmark's set-up, timed as setup_s. *)

let scaled scale n = max 1 (int_of_float (Float.round (scale *. float_of_int n)))

(* Poisson arrival rate giving [load] x the machine's capacity for jobs
   of mean area [mean_work] proc-seconds. *)
let rate_for ~load ~m ~mean_work = load *. float_of_int m /. mean_work

let batch_easy ~scale ~seed () =
  let m = 1024 in
  let rng = Rng.create seed in
  let jobs =
    Workload_gen.rigid_uniform rng ~n:(scaled scale 10_000) ~m:64 ~tmin:10.0 ~tmax:1000.0
  in
  let rate = rate_for ~load:0.9 ~m ~mean_work:(32.5 *. 505.0) in
  let jobs = Workload_gen.with_poisson_arrivals rng ~rate jobs in
  [ { policy = "easy"; ctx = Scheduler_intf.ctx ~m (); cap = None; jobs } ]

let batch_moldable ~scale ~seed () =
  let m = 1024 in
  let jobs =
    Workload_gen.moldable_uniform (Rng.create seed) ~n:(scaled scale 20_000) ~m ~tmin:10.0
      ~tmax:1000.0
  in
  [ { policy = "mrt"; ctx = Scheduler_intf.ctx ~m (); cap = None; jobs } ]

(* The two app-class communities whose bottleneck is not cores.  Arrivals
   come at 70% of the bottleneck resource: at 90% (bench multires) the
   mean flow time moved by 40% from one seed to the next, at 70% by 3%. *)
let batch_vector ~scale ~seed () =
  let m = 512 in
  let cap = R.cap ~cores:m ~memory:(m * 2048) ~bandwidth:1024 () in
  let corehours = scale *. 8e5 in
  let rng = Rng.create seed in
  let community classes =
    let jobs = App_class.generate rng ~classes ~cap ~corehours in
    let demand pick capacity =
      List.fold_left
        (fun acc (j : Job.t) -> acc +. (Job.seq_time j *. float_of_int (pick (Job.min_request j))))
        0.0 jobs
      /. float_of_int capacity
    in
    let busy =
      Float.max
        (corehours *. 3600.0 /. float_of_int m)
        (Float.max (demand (fun r -> r.R.memory) cap.R.memory)
           (demand (fun r -> r.R.bandwidth) cap.R.bandwidth))
    in
    let rate = float_of_int (List.length jobs) /. (busy /. 0.7) in
    Workload_gen.with_poisson_arrivals rng ~rate jobs
  in
  let ctx = Scheduler_intf.ctx ~cap ~m () in
  List.concat_map
    (fun classes ->
      let jobs = community classes in
      List.map (fun policy -> { policy; ctx; cap = Some cap; jobs }) [ "easy-mr"; "list-mr" ])
    [ App_class.mem_bound cap; App_class.io_bound cap ]

(* Rigid serve arrivals, procs U[1,8] and runtime U[10,100] s (mean area
   247.5 proc-seconds), materialised so the daemon's timing excludes
   generation.  The queue bound is just under one scheduling cycle of
   machine capacity. *)
let serve_workload ~mode ~round_every ~load ~count ~scale ~seed () =
  let m = 1024 and mean_work = 247.5 in
  let src =
    Serve.Arrivals.poisson ~procs_max:8 ~tmin:10.0 ~tmax:100.0 ~m
      ~rate:(rate_for ~load ~m ~mean_work) ~seed ~count:(scaled scale count) ()
  in
  let rec drain acc =
    match Serve.Arrivals.next src with Some j -> drain (j :: acc) | None -> List.rev acc
  in
  let queue_cap = int_of_float (0.94 *. float_of_int m *. round_every /. mean_work) in
  { m; mode; round_every; queue_cap; arrivals = drain [] }

let serve_deep =
  serve_workload ~mode:Serve.Daemon.Greedy ~round_every:300.0 ~load:0.9 ~count:125_000

let serve_storm =
  serve_workload ~mode:(Serve.Daemon.Registry "easy") ~round_every:60.0 ~load:1.8 ~count:100_000

let workloads = [ "batch-easy"; "batch-moldable"; "batch-vector"; "serve-deep"; "serve-storm" ]

(* ---------------------------------------------------------------- output *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let report ~trace reps =
  let selected = if trace then per_layer else end_to_end in
  let lines =
    List.map
      (fun (name, unit_) ->
        match Hashtbl.find_opt results name with
        | Some (v, note) -> (name, unit_, v, note)
        | None ->
          if not trace then fail ("end-to-end metric not measured: " ^ name);
          (name, unit_, 0.0, "not exercised by this workload"))
      selected
  in
  List.iter
    (fun (name, unit_, v, note) -> Printf.printf "%-36s %16.6g %-9s %s\n" name v unit_ note)
    lines;
  List.iter (fun msg -> Printf.printf "CHECK FAILED: %s\n" msg) (List.rev !failures);
  let ops = List.fold_left (fun acc r -> acc + r.ops) 0 in
  let attempted = ops reps in
  (* A failed check not tied to one repetition (the traced pass, a
     missing metric) fails every operation. *)
  let failed =
    match (!failures, List.filter (fun r -> not r.ok) reps) with
    | [], _ -> 0
    | _, [] -> attempted
    | _, bad -> ops bad
  in
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, unit_, v, _) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
         lines)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed metrics;
  failed = 0

(* ------------------------------------------------------------------ main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let scale = ref 1.0 and out = ref "_perfbench" in
  let usage =
    "workloads.exe --workload NAME --seed S --seconds T --trace 0|1 [--scale F] [--out DIR]\n\
     workloads: " ^ String.concat ", " workloads
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads below");
      ("--seed", Arg.Set_int seed, "S input seed");
      ("--seconds", Arg.Set_float seconds, "T measure for T seconds (at least one repetition)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--scale", Arg.Set_float scale, "F input size factor (default 1)");
      ("--out", Arg.Set_string out, "DIR directory for the serve WAL (default _perfbench)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if (not (List.mem !workload workloads)) || !trace < 0 || !trace > 1 || not (!scale > 0.0)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 and seconds = !seconds and scale = !scale and seed = !seed in
  (* Observation off, but decision latencies read the microsecond clock. *)
  Obs.set_wall_clock Obs.null (fun () -> now ());
  Printf.printf "workload %s  seed %d  scale %g  seconds %g  trace %b\n%!" !workload seed scale
    seconds trace;
  let batch gen = bench_batch ~seconds ~trace (setup ~seconds (gen ~scale ~seed)) in
  let reps =
    match !workload with
    | "batch-easy" -> batch batch_easy
    | "batch-moldable" -> batch batch_moldable
    | "batch-vector" -> batch batch_vector
    | name ->
      let gen = if name = "serve-deep" then serve_deep else serve_storm in
      let s = setup ~seconds (gen ~scale ~seed) in
      if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
      let wal = Filename.concat !out (Printf.sprintf "%s-%d.wal" name seed) in
      let cleanup () =
        if Sys.file_exists wal then Sys.remove wal;
        (* Fails, harmlessly, when the directory holds other files. *)
        try Sys.rmdir !out with Sys_error _ -> ()
      in
      Fun.protect ~finally:cleanup (fun () -> bench_serve ~seconds ~trace ~wal s)
  in
  if not (report ~trace reps) then exit 1
