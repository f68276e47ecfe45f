open Psched_sim
open Psched_workload

(* --- engine ----------------------------------------------------------- *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 5.0 (fun () -> log := 5 :: !log);
  Engine.at e 1.0 (fun () -> log := 1 :: !log);
  Engine.at e 3.0 (fun () -> log := 3 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "date order" [ 1; 3; 5 ] (List.rev !log);
  T_helpers.check_float "clock at last event" 5.0 (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 2.0 (fun () -> log := "a" :: !log);
  Engine.at e 2.0 (fun () -> log := "b" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "fifo among equal dates" [ "a"; "b" ] (List.rev !log)

let test_engine_cascade () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 10 then Engine.after e 1.0 tick
  in
  Engine.after e 0.0 tick;
  Engine.run e;
  Alcotest.(check int) "cascaded events" 10 !count;
  T_helpers.check_float "final clock" 9.0 (Engine.now e)

let test_engine_until () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 1.0 (fun () -> log := 1 :: !log);
  Engine.at e 10.0 (fun () -> log := 10 :: !log);
  Engine.run ~until:5.0 e;
  Alcotest.(check (list int)) "only early events" [ 1 ] (List.rev !log);
  Alcotest.(check int) "one pending" 1 (Engine.pending e)

let test_engine_past_raises () =
  let e = Engine.create ~now:10.0 () in
  Alcotest.check_raises "past date" (Invalid_argument "Engine.at: date in the past") (fun () ->
      Engine.at e 5.0 (fun () -> ()))

(* --- profile ---------------------------------------------------------- *)

let test_profile_basic_reserve () =
  let p = Profile.create 10 in
  Alcotest.(check int) "initial free" 10 (Profile.free_at p 0.0);
  Profile.reserve p ~start:2.0 ~duration:3.0 ~procs:4;
  Alcotest.(check int) "before" 10 (Profile.free_at p 1.0);
  Alcotest.(check int) "inside" 6 (Profile.free_at p 2.0);
  Alcotest.(check int) "inside end" 6 (Profile.free_at p 4.999);
  Alcotest.(check int) "after (half-open)" 10 (Profile.free_at p 5.0);
  Profile.release p ~start:2.0 ~duration:3.0 ~procs:4;
  Alcotest.(check (list (pair (float 1e-9) int))) "back to flat" [ (0.0, 10) ] (Profile.breakpoints p)

let test_profile_overflow_raises () =
  let p = Profile.create 4 in
  Profile.reserve p ~start:0.0 ~duration:10.0 ~procs:3;
  Alcotest.(check bool) "underflow rejected" true
    (match Profile.reserve p ~start:5.0 ~duration:1.0 ~procs:2 with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.(check bool) "release overflow rejected" true
    (match Profile.release p ~start:20.0 ~duration:1.0 ~procs:1 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_profile_find_start () =
  let p = Profile.create 10 in
  Profile.reserve p ~start:0.0 ~duration:5.0 ~procs:8;
  (* 2 free on [0,5), 10 after. *)
  T_helpers.check_float "fits now in the gap" 0.0
    (Profile.find_start p ~earliest:0.0 ~duration:3.0 ~procs:2);
  T_helpers.check_float "must wait" 5.0 (Profile.find_start p ~earliest:0.0 ~duration:3.0 ~procs:3);
  T_helpers.check_float "earliest respected" 7.0
    (Profile.find_start p ~earliest:7.0 ~duration:3.0 ~procs:3);
  Alcotest.(check bool) "too wide" true
    (match Profile.find_start p ~earliest:0.0 ~duration:1.0 ~procs:11 with
    | exception Not_found -> true
    | _ -> false)

let test_profile_window_straddles_gap () =
  let p = Profile.create 10 in
  (* Free: 10 on [0,2), 1 on [2,4), 10 after: a 2-proc window of
     length 3 cannot start at 0 or 1, must start at 4. *)
  Profile.reserve p ~start:2.0 ~duration:2.0 ~procs:9;
  T_helpers.check_float "straddle rejected" 4.0
    (Profile.find_start p ~earliest:0.0 ~duration:3.0 ~procs:2);
  T_helpers.check_float "short window fits before" 0.0
    (Profile.find_start p ~earliest:0.0 ~duration:2.0 ~procs:2)

let test_profile_holes () =
  let p = Profile.create 4 in
  Profile.reserve p ~start:0.0 ~duration:2.0 ~procs:4;
  Profile.reserve p ~start:3.0 ~duration:1.0 ~procs:2;
  let holes = Profile.holes p ~until:5.0 in
  Alcotest.(check int) "hole count" 3 (List.length holes);
  (match holes with
  | [ (s1, e1, f1); (s2, e2, f2); (s3, e3, f3) ] ->
    T_helpers.check_float "hole1 start" 2.0 s1;
    T_helpers.check_float "hole1 end" 3.0 e1;
    Alcotest.(check int) "hole1 free" 4 f1;
    T_helpers.check_float "hole2 start" 3.0 s2;
    T_helpers.check_float "hole2 end" 4.0 e2;
    Alcotest.(check int) "hole2 free" 2 f2;
    T_helpers.check_float "hole3 start" 4.0 s3;
    T_helpers.check_float "hole3 end" 5.0 e3;
    Alcotest.(check int) "hole3 free" 4 f3
  | _ -> Alcotest.fail "unexpected hole structure");
  (* Fully free tail appears as a hole up to [until]. *)
  let tail = Profile.holes p ~until:10.0 in
  let _, last_end, _ = List.nth tail (List.length tail - 1) in
  T_helpers.check_float "tail clipped at until" 10.0 last_end

let qcheck_profile_random_ops =
  (* Random sequences of placements never violate capacity, and
     find_start returns windows that truly fit. *)
  T_helpers.qtest "profile: random placements stay within capacity"
    QCheck.(
      pair (int_range 1 12)
        (small_list (triple (float_range 0.0 50.0) (float_range 0.1 10.0) (int_range 1 12))))
    (fun (m, ops) ->
      let p = Profile.create m in
      List.iter
        (fun (earliest, duration, procs) ->
          let procs = min procs m in
          let start = Profile.place p ~earliest ~duration ~procs in
          if start < earliest then QCheck.Test.fail_report "start before earliest")
        ops;
      List.for_all (fun (_, f) -> f >= 0 && f <= m) (Profile.breakpoints p))

(* --- schedule / validate / metrics ------------------------------------ *)

let jobs3 () =
  [
    Job.rigid ~id:0 ~procs:2 ~time:4.0 ();
    Job.rigid ~weight:2.0 ~id:1 ~procs:1 ~time:2.0 ();
    Job.rigid ~id:2 ~release:1.0 ~procs:3 ~time:1.0 ();
  ]

let sched3 jobs =
  let e j start procs = Schedule.entry ~job:(List.nth jobs j) ~start ~procs () in
  Schedule.make ~m:4 [ e 0 0.0 2; e 1 0.0 1; e 2 4.0 3 ]

let test_schedule_accessors () =
  let jobs = jobs3 () in
  let s = sched3 jobs in
  T_helpers.check_float "makespan" 5.0 (Schedule.makespan s);
  T_helpers.check_float "completion of 1" 2.0 (Schedule.completion_of s 1);
  Alcotest.(check int) "peak usage" 3 (Schedule.peak_usage s);
  T_helpers.check_float "total work" (8.0 +. 2.0 +. 3.0) (Schedule.total_work s);
  Alcotest.(check int) "usage at 0" 3 (Schedule.usage_at s 0.0)

let test_validate_ok () =
  let jobs = jobs3 () in
  Alcotest.(check bool) "valid" true (Validate.is_valid ~jobs (sched3 jobs))

let test_validate_violations () =
  let jobs = jobs3 () in
  let e j start procs = Schedule.entry ~job:(List.nth jobs j) ~start ~procs () in
  let has v s = List.mem v (Validate.check ~jobs s) in
  (* missing job 2 *)
  Alcotest.(check bool) "missing" true (has (Validate.Missing_job 2) (Schedule.make ~m:4 [ e 0 0.0 2; e 1 0.0 1 ]));
  (* duplicate *)
  Alcotest.(check bool) "duplicate" true
    (has (Validate.Duplicate_job 0) (Schedule.make ~m:4 [ e 0 0.0 2; e 0 6.0 2; e 1 0.0 1; e 2 4.0 3 ]));
  (* before release *)
  Alcotest.(check bool) "before release" true
    (has (Validate.Before_release 2) (Schedule.make ~m:4 [ e 0 0.0 2; e 1 0.0 1; e 2 0.0 3 ]));
  (* over capacity: all three at t=1 need 6 > 4 *)
  Alcotest.(check bool) "over capacity" true
    (List.exists
       (function Validate.Over_capacity _ -> true | _ -> false)
       (Validate.check ~jobs (Schedule.make ~m:4 [ e 0 0.0 2; e 1 0.0 1; e 2 1.0 3 ])))

let test_validate_reservations () =
  let jobs = [ Job.rigid ~id:0 ~procs:3 ~time:2.0 () ] in
  let s = Schedule.make ~m:4 [ Schedule.entry ~job:(List.hd jobs) ~start:0.0 ~procs:3 () ] in
  let r = Psched_platform.Reservation.make ~id:0 ~start:1.0 ~duration:2.0 ~procs:2 in
  Alcotest.(check bool) "valid without reservation" true (Validate.is_valid ~jobs s);
  Alcotest.(check bool) "invalid with reservation" false
    (Validate.is_valid ~reservations:[ r ] ~jobs s)

let test_metrics_values () =
  let jobs = jobs3 () in
  let m = Metrics.compute ~jobs (sched3 jobs) in
  T_helpers.check_float "Cmax" 5.0 m.Metrics.makespan;
  T_helpers.check_float "sum C" (4.0 +. 2.0 +. 5.0) m.Metrics.sum_completion;
  T_helpers.check_float "sum wC" (4.0 +. 4.0 +. 5.0) m.Metrics.sum_weighted_completion;
  (* flows: 4, 2, 4 *)
  T_helpers.check_float "mean flow" (10.0 /. 3.0) m.Metrics.mean_flow;
  T_helpers.check_float "max flow" 4.0 m.Metrics.max_flow;
  T_helpers.check_float "throughput" (3.0 /. 5.0) m.Metrics.throughput;
  T_helpers.check_float "utilisation" (13.0 /. 20.0) m.Metrics.utilisation

let test_metrics_tardiness () =
  let jobs =
    [
      Job.make ~id:0 ~due:3.0 (Job.Rigid { procs = 1; time = 4.0 });
      Job.make ~id:1 ~due:10.0 (Job.Rigid { procs = 1; time = 2.0 });
    ]
  in
  let s =
    Schedule.make ~m:2
      [
        Schedule.entry ~job:(List.nth jobs 0) ~start:0.0 ~procs:1 ();
        Schedule.entry ~job:(List.nth jobs 1) ~start:0.0 ~procs:1 ();
      ]
  in
  let m = Metrics.compute ~jobs s in
  Alcotest.(check int) "one tardy" 1 m.Metrics.tardy_count;
  T_helpers.check_float "sum tardiness" 1.0 m.Metrics.sum_tardiness;
  T_helpers.check_float "max tardiness" 1.0 m.Metrics.max_tardiness

let base_suite =
  [
    Alcotest.test_case "engine order" `Quick test_engine_order;
    Alcotest.test_case "engine fifo ties" `Quick test_engine_fifo_ties;
    Alcotest.test_case "engine cascade" `Quick test_engine_cascade;
    Alcotest.test_case "engine until" `Quick test_engine_until;
    Alcotest.test_case "engine past raises" `Quick test_engine_past_raises;
    Alcotest.test_case "profile reserve/release" `Quick test_profile_basic_reserve;
    Alcotest.test_case "profile overflow" `Quick test_profile_overflow_raises;
    Alcotest.test_case "profile find_start" `Quick test_profile_find_start;
    Alcotest.test_case "profile straddle" `Quick test_profile_window_straddles_gap;
    Alcotest.test_case "profile holes" `Quick test_profile_holes;
    qcheck_profile_random_ops;
    Alcotest.test_case "schedule accessors" `Quick test_schedule_accessors;
    Alcotest.test_case "validate ok" `Quick test_validate_ok;
    Alcotest.test_case "validate violations" `Quick test_validate_violations;
    Alcotest.test_case "validate reservations" `Quick test_validate_reservations;
    Alcotest.test_case "metrics values" `Quick test_metrics_values;
    Alcotest.test_case "metrics tardiness" `Quick test_metrics_tardiness;
  ]

(* --- export ---------------------------------------------------------------- *)

let export_sched () =
  let jobs = jobs3 () in
  (jobs, sched3 jobs)

let test_export_csv () =
  let _, s = export_sched () in
  let csv = Export.to_csv (Export.Schedule s) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 3 rows" 4 (List.length lines);
  Alcotest.(check string) "header" "job_id,start,duration,procs,cluster" (List.hd lines)

let test_export_json_roundtrippable () =
  let _, s = export_sched () in
  let json = Export.to_json (Export.Schedule s) in
  Alcotest.(check bool) "mentions m" true
    (String.length json > 10 && String.sub json 0 6 = {|{"m":4|});
  (* Exactly one object per entry. *)
  let count_sub sub str =
    let n = ref 0 in
    let sl = String.length sub in
    for i = 0 to String.length str - sl do
      if String.sub str i sl = sub then incr n
    done;
    !n
  in
  Alcotest.(check int) "three entries" 3 (count_sub {|"job":|} json)

let test_export_metrics_csv () =
  let jobs, s = export_sched () in
  let metrics = Metrics.compute ~jobs s in
  let csv = Export.to_csv (Export.Metrics [ ("run1", metrics); ("run2", metrics) ]) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length (String.split_on_char '\n' (String.trim csv)))

let test_export_series_csv () =
  let csv = Export.to_csv (Export.Series { header = [ "x"; "y" ]; rows = [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] }) in
  Alcotest.(check string) "content" "x,y\n1,2\n3,4\n" csv

let export_suite =
  [
    Alcotest.test_case "export schedule csv" `Quick test_export_csv;
    Alcotest.test_case "export schedule json" `Quick test_export_json_roundtrippable;
    Alcotest.test_case "export metrics csv" `Quick test_export_metrics_csv;
    Alcotest.test_case "export series csv" `Quick test_export_series_csv;
  ]


(* --- executor ---------------------------------------------------------------- *)

let test_executor_replay_order () =
  let jobs = jobs3 () in
  let s = sched3 jobs in
  let log = Executor.run s in
  Alcotest.(check int) "two events per job" 6 (List.length log);
  (* Chronological, completions before starts at equal dates. *)
  let rec sorted = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (sorted log);
  (match log with
  | (t0, Executor.Started _) :: _ -> T_helpers.check_float "starts at 0" 0.0 t0
  | _ -> Alcotest.fail "expected a start first")

let test_executor_rejects_overload () =
  let job = Job.rigid ~id:0 ~procs:3 ~time:2.0 () in
  let bad =
    Schedule.make ~m:4
      [ Schedule.entry ~job ~start:0.0 ~procs:3 ();
        Schedule.entry ~job:{ job with Job.id = 1 } ~start:1.0 ~procs:3 () ]
  in
  Alcotest.(check bool) "overload detected" true
    (match Executor.run bad with exception Failure _ -> true | _ -> false)

let qcheck_executor_runs_plans =
  T_helpers.qtest "executor: every planned schedule replays cleanly"
    (T_helpers.arb_instance ~releases:true `Mixed)
    (fun (m, jobs) ->
      let sched =
        Psched_core.Packing.list_schedule ~m (List.map Psched_core.Packing.allocate_rigid jobs)
      in
      let log = Executor.run sched in
      let trace = Executor.utilisation_trace sched in
      List.length log = 2 * List.length jobs
      && List.for_all (fun (_, u) -> u >= 0 && u <= m) trace)

let test_executor_until () =
  let jobs = jobs3 () in
  let s = sched3 jobs in
  let log = Executor.run ~until:3.0 s in
  Alcotest.(check bool) "truncated" true (List.length log < 6);
  Alcotest.(check bool) "nothing after 3" true (List.for_all (fun (t, _) -> t <= 3.0) log)

let executor_suite =
  [
    Alcotest.test_case "executor replay" `Quick test_executor_replay_order;
    Alcotest.test_case "executor overload" `Quick test_executor_rejects_overload;
    qcheck_executor_runs_plans;
    Alcotest.test_case "executor until" `Quick test_executor_until;
  ]

(* --- streaming engine -------------------------------------------------- *)

let stream_jobs ~seed ~n =
  let rng = Psched_util.Rng.create seed in
  let release = ref 0.0 in
  List.init n (fun id ->
      (* Mean work per job is E[procs] * E[time] ~ 4.5 * 25.5; spacing
         arrivals at ~90% of a 16-proc cluster's capacity keeps the
         backlog (and so the live horizon) bounded. *)
      release := !release +. Psched_util.Rng.exp_mean rng 8.0;
      let procs = 1 + Psched_util.Rng.int rng 8 in
      let time = Psched_util.Rng.uniform rng 1.0 50.0 in
      Job.rigid ~release:!release ~id ~procs ~time ())

let test_stream_compaction_bit_identical () =
  (* The tentpole invariant: folding passed history into aggregates
     must not change a single reported bit. *)
  let jobs = stream_jobs ~seed:5 ~n:400 in
  let a = Stream.run ~compact:true ~m:16 (Stream.of_list jobs) in
  let b = Stream.run ~compact:false ~m:16 (Stream.of_list jobs) in
  Alcotest.(check int) "jobs" a.Stream.jobs b.Stream.jobs;
  Alcotest.(check bool) "metrics bit-identical" true (a.Stream.metrics = b.Stream.metrics);
  let sa = a.Stream.profile and sb = b.Stream.profile in
  Alcotest.(check bool) "history was folded" true (sa.Profile.compactions > 0);
  Alcotest.(check bool) "live window stays small" true
    (sa.Profile.peak_segments < sb.Profile.peak_segments / 4)

let test_stream_acc_matches_compute () =
  (* Acc feeds placements in the order compute observes them, so the
     incremental report equals the schedule-based one bit for bit. *)
  let jobs = stream_jobs ~seed:9 ~n:300 in
  let r = Stream.run ~keep_schedule:true ~m:12 (Stream.of_list jobs) in
  let sched = Option.get r.Stream.schedule in
  Alcotest.(check bool) "Acc = compute" true
    (r.Stream.metrics = Metrics.compute ~jobs sched);
  Alcotest.(check int) "every job placed" (List.length jobs)
    (List.length sched.Schedule.entries)

let test_stream_rejects_regression () =
  let j0 = Job.rigid ~release:1.0 ~id:0 ~procs:1 ~time:1.0 () in
  let j1 = Job.rigid ~release:0.5 ~id:1 ~procs:1 ~time:1.0 () in
  Alcotest.check_raises "releases must be non-decreasing"
    (Invalid_argument "Stream.run: releases must be non-decreasing") (fun () ->
      ignore (Stream.run ~m:4 (Stream.of_list [ j0; j1 ])))

let test_stream_lag_keeps_recent_past () =
  (* With a lag, the origin trails the arrival front by that much. *)
  let jobs = stream_jobs ~seed:13 ~n:200 in
  let a = Stream.run ~lag:25.0 ~m:8 (Stream.of_list jobs) in
  let b = Stream.run ~m:8 (Stream.of_list jobs) in
  Alcotest.(check bool) "metrics unchanged by lag" true (a.Stream.metrics = b.Stream.metrics);
  Alcotest.(check bool) "lag folds less" true
    (a.Stream.profile.Profile.folded_span <= b.Stream.profile.Profile.folded_span)

(* Rigid jobs, width U[1,16], time U[10,1000] s, Poisson arrivals at
   90% offered load on m machines: the machine stays busy and the live
   horizon stays bounded. *)
let busy_stream ~seed ~n ~m =
  let rng = Psched_util.Rng.create seed in
  let gap = 8.5 *. 505.0 /. (0.9 *. float_of_int m) in
  let next_id = ref 0 and release = ref 0.0 in
  fun () ->
    if !next_id >= n then None
    else begin
      let id = !next_id in
      incr next_id;
      let procs = 1 + Psched_util.Rng.int rng 16 in
      let time = Psched_util.Rng.uniform rng 10.0 1000.0 in
      release := !release +. Psched_util.Rng.exp_mean rng gap;
      Some (Job.rigid ~release:!release ~id ~procs ~time ())
    end

let test_stream_live_segments_bounded () =
  (* Compaction keeps the live profile O(live horizon): 144 segments at
     n=10^4 (the count the old scaling bench recorded), and four times
     the jobs must not double it. *)
  let peak n = (Stream.run ~m:1000 (busy_stream ~seed:42 ~n ~m:1000)).Stream.profile.Profile.peak_segments in
  let small = peak 10_000 in
  Alcotest.(check int) "peak live segments at n=10^4" 144 small;
  Alcotest.(check bool) "bounded at n=4*10^4" true (peak 40_000 <= 2 * small)

let stream_suite =
  [
    Alcotest.test_case "stream: compaction bit-identical" `Quick
      test_stream_compaction_bit_identical;
    Alcotest.test_case "stream: Acc = compute" `Quick test_stream_acc_matches_compute;
    Alcotest.test_case "stream: release regression" `Quick test_stream_rejects_regression;
    Alcotest.test_case "stream: lag" `Quick test_stream_lag_keeps_recent_past;
    Alcotest.test_case "stream: live segments bounded" `Quick test_stream_live_segments_bounded;
  ]

let suite = base_suite @ export_suite @ executor_suite @ stream_suite
