open Psched_core
open Psched_workload
open Psched_sim

let arb_rigid = T_helpers.arb_instance `Rigid
let arb_moldable = T_helpers.arb_instance `Moldable
let arb_mixed = T_helpers.arb_instance `Mixed
let arb_mixed_rel = T_helpers.arb_instance ~releases:true `Mixed

let allocate_all jobs = List.map Packing.allocate_rigid jobs

(* --- lower bounds ------------------------------------------------------ *)

let test_lb_cmax_hand () =
  let jobs = [ Job.rigid ~id:0 ~procs:2 ~time:4.0 (); Job.rigid ~id:1 ~procs:2 ~time:4.0 () ] in
  (* area = 16/2 = 8 > critical 4 *)
  T_helpers.check_float "area bound" 8.0 (Lower_bounds.cmax ~m:2 jobs);
  T_helpers.check_float "critical bound" 4.0 (Lower_bounds.cmax ~m:4 jobs)

let test_lb_release_dates () =
  let jobs = [ Job.rigid ~id:0 ~release:100.0 ~procs:1 ~time:1.0 () ] in
  T_helpers.check_float "release shifts bound" 101.0 (Lower_bounds.cmax ~m:4 jobs)

let qcheck_lb_below_any_schedule =
  T_helpers.qtest "lower bounds: below every produced schedule" arb_mixed (fun (m, jobs) ->
      let sched = Packing.list_schedule ~m (allocate_all jobs) in
      let lb = Lower_bounds.cmax ~m jobs in
      let lb_wc = Lower_bounds.sum_weighted_completion ~m jobs in
      let metrics = Metrics.compute ~jobs sched in
      lb <= Schedule.makespan sched +. 1e-9
      && lb_wc <= metrics.Metrics.sum_weighted_completion +. 1e-6)

(* --- packing / list scheduling ---------------------------------------- *)

let qcheck_list_schedule_valid =
  T_helpers.qtest "packing: list schedules are valid" arb_mixed_rel (fun (m, jobs) ->
      T_helpers.assert_valid ~jobs (Packing.list_schedule ~m (allocate_all jobs)))

let qcheck_list_schedule_no_runaway =
  (* Greedy earliest-start placement never exceeds the fully serial
     schedule: each job could at worst start after all previous ones. *)
  T_helpers.qtest "packing: never worse than serial execution" arb_rigid (fun (m, jobs) ->
      let sched = Packing.list_schedule ~m (allocate_all jobs) in
      let serial = List.fold_left (fun acc j -> acc +. Job.seq_time j) 0.0 jobs in
      Schedule.makespan sched <= serial +. 1e-6)

let test_pack_fcfs_is_conservative () =
  (* With FCFS order, a later job can fill an earlier hole only without
     moving earlier guarantees: check a known backfilling scenario. *)
  let jobs =
    [
      Job.rigid ~id:0 ~procs:3 ~time:4.0 ();
      Job.rigid ~id:1 ~release:0.0 ~procs:4 ~time:2.0 ();
      Job.rigid ~id:2 ~release:0.0 ~procs:1 ~time:3.0 ();
    ]
  in
  let sched = Packing.list_schedule ~m:4 (allocate_all jobs) in
  (* job0 [0,4) on 3 procs; job1 needs 4 procs -> [4,6); job2 (1 proc,
     3s) backfills at 0 beside job0 without delaying job1. *)
  T_helpers.check_float "job1 start" 4.0 (Schedule.completion_of sched 1 -. 2.0);
  T_helpers.check_float "job2 backfilled" 3.0 (Schedule.completion_of sched 2)

(* --- strip packing ------------------------------------------------------ *)

let qcheck_shelves_valid =
  T_helpers.qtest "strip packing: NFDH and FFDH valid" arb_rigid (fun (m, jobs) ->
      let tasks = allocate_all jobs in
      T_helpers.assert_valid ~jobs (Strip_packing.nfdh ~m tasks)
      && T_helpers.assert_valid ~jobs (Strip_packing.ffdh ~m tasks))

let qcheck_ffdh_not_worse =
  T_helpers.qtest "strip packing: FFDH <= NFDH" arb_rigid (fun (m, jobs) ->
      let tasks = allocate_all jobs in
      Schedule.makespan (Strip_packing.ffdh ~m tasks)
      <= Schedule.makespan (Strip_packing.nfdh ~m tasks) +. 1e-9)

let test_shelves_structure () =
  let jobs =
    [
      Job.rigid ~id:0 ~procs:2 ~time:10.0 ();
      Job.rigid ~id:1 ~procs:2 ~time:9.0 ();
      Job.rigid ~id:2 ~procs:1 ~time:8.0 ();
      Job.rigid ~id:3 ~procs:4 ~time:7.0 ();
    ]
  in
  (* NFDH: shelf1 = {job0, job1} (width 4); job2 opens shelf2 but job3
     (width 4) does not fit next to it, so NFDH opens a third shelf.
     FFDH in contrast fits nothing differently here but fewer shelves
     arise on other inputs. *)
  let shelves = Strip_packing.nfdh_shelves ~m:4 (allocate_all jobs) in
  Alcotest.(check int) "three shelves" 3 (List.length shelves);
  (match shelves with
  | [ s1; s2; s3 ] ->
    T_helpers.check_float "first shelf at 0" 0.0 s1.Strip_packing.start;
    T_helpers.check_float "first shelf height" 10.0 s1.Strip_packing.height;
    T_helpers.check_float "second shelf start" 10.0 s2.Strip_packing.start;
    T_helpers.check_float "second shelf height" 8.0 s2.Strip_packing.height;
    T_helpers.check_float "third shelf start" 18.0 s3.Strip_packing.start
  | _ -> Alcotest.fail "unexpected shelves")

(* --- single machine ----------------------------------------------------- *)

let arb_small_jobs =
  let gen =
    let ( let* ) = QCheck.Gen.( >>= ) in
    let* n = QCheck.Gen.int_range 1 6 in
    let rec build acc i =
      if i >= n then QCheck.Gen.return (List.rev acc)
      else
        let* t = QCheck.Gen.float_range 0.5 20.0 in
        let* w = QCheck.Gen.float_range 1.0 10.0 in
        build (Job.rigid ~weight:w ~id:i ~procs:1 ~time:t () :: acc) (i + 1)
    in
    build [] 0
  in
  QCheck.make ~print:(fun js -> Format.asprintf "%a" (Format.pp_print_list Job.pp) js) gen

let qcheck_wspt_optimal =
  T_helpers.qtest ~count:100 "single machine: WSPT matches brute force" arb_small_jobs
    (fun jobs ->
      let wspt = Single_machine.sum_weighted_completion_of_order (Single_machine.wspt_order jobs) in
      let best = Single_machine.brute_force_best jobs in
      Float.abs (wspt -. best) <= 1e-6 *. Float.max 1.0 best)

let qcheck_spt_optimal_unweighted =
  T_helpers.qtest ~count:100 "single machine: SPT matches brute force (unit weights)"
    arb_small_jobs (fun jobs ->
      let jobs = List.map (fun (j : Job.t) -> { j with weight = 1.0 }) jobs in
      let spt = Single_machine.sum_weighted_completion_of_order (Single_machine.spt_order jobs) in
      let best = Single_machine.brute_force_best jobs in
      Float.abs (spt -. best) <= 1e-6 *. Float.max 1.0 best)

let test_single_machine_schedule () =
  let jobs =
    [ Job.rigid ~id:0 ~procs:1 ~time:5.0 (); Job.rigid ~weight:10.0 ~id:1 ~procs:1 ~time:1.0 () ] in
  let s = Single_machine.schedule jobs in
  Alcotest.(check bool) "valid" true (Validate.is_valid ~jobs s);
  (* heavy short job first *)
  T_helpers.check_float "heavy job first" 1.0 (Schedule.completion_of s 1)

(* --- MRT ---------------------------------------------------------------- *)

let test_canonical_alloc () =
  let j = Job.moldable ~id:0 ~times:[| 10.0; 6.0; 4.0; 3.5 |] () in
  Alcotest.(check (option int)) "deadline 10" (Some 1) (Mrt.canonical_alloc ~m:4 ~deadline:10.0 j);
  Alcotest.(check (option int)) "deadline 6" (Some 2) (Mrt.canonical_alloc ~m:4 ~deadline:6.0 j);
  Alcotest.(check (option int)) "deadline 5" (Some 3) (Mrt.canonical_alloc ~m:4 ~deadline:5.0 j);
  Alcotest.(check (option int)) "deadline too tight" None (Mrt.canonical_alloc ~m:4 ~deadline:3.0 j);
  Alcotest.(check (option int)) "m caps alloc" None (Mrt.canonical_alloc ~m:2 ~deadline:5.0 j)

let qcheck_mrt_valid =
  T_helpers.qtest "MRT: schedules are valid" arb_moldable (fun (m, jobs) ->
      T_helpers.assert_valid ~jobs (Mrt.schedule ~m jobs))

let qcheck_mrt_above_lb =
  T_helpers.qtest "MRT: makespan >= lower bound" arb_moldable (fun (m, jobs) ->
      Schedule.makespan (Mrt.schedule ~m jobs) >= Lower_bounds.cmax ~m jobs -. 1e-9)

let arb_tiny_moldable = T_helpers.arb_instance ~max_m:4 ~max_n:4 `Moldable

let qcheck_mrt_guess_soundness =
  (* Rejecting lambda certifies optimum > lambda, so the algorithm must
     accept any lambda >= a known achievable makespan. *)
  T_helpers.qtest ~count:60 "MRT: never rejects an achievable guess" arb_tiny_moldable
    (fun (m, jobs) ->
      let achievable = T_helpers.best_permutation_makespan ~m jobs in
      match Mrt.try_guess ~m ~lambda:achievable jobs with
      | Mrt.Accepted s -> T_helpers.assert_valid ~jobs s
      | Mrt.Rejected -> QCheck.Test.fail_reportf "rejected achievable lambda %g" achievable)

let qcheck_mrt_ratio_tiny =
  (* Against the exact-ish reference on tiny instances the 3/2 + eps
     guarantee must show. *)
  T_helpers.qtest ~count:60 "MRT: ratio <= 1.5 + eps on tiny instances" arb_tiny_moldable
    (fun (m, jobs) ->
      let reference = T_helpers.best_permutation_makespan ~m jobs in
      let c = Schedule.makespan (Mrt.schedule ~m jobs) in
      if c <= (1.5 +. 0.05) *. reference +. 1e-6 then true
      else QCheck.Test.fail_reportf "ratio %.3f" (c /. reference))

let test_mrt_empty_and_single () =
  T_helpers.check_float "empty" 0.0 (Schedule.makespan (Mrt.schedule ~m:4 []));
  let j = Job.moldable ~id:0 ~times:[| 8.0; 5.0 |] () in
  let s = Mrt.schedule ~m:4 [ j ] in
  Alcotest.(check bool) "single valid" true (Validate.is_valid ~jobs:[ j ] s)

(* --- batch on-line ------------------------------------------------------ *)

let qcheck_batch_online_valid =
  T_helpers.qtest "batch on-line: valid with release dates" arb_mixed_rel (fun (m, jobs) ->
      T_helpers.assert_valid ~jobs (Batch_online.with_mrt ~m jobs))

let qcheck_batches_respect_releases =
  T_helpers.qtest "batch on-line: batch contents released before batch start" arb_mixed_rel
    (fun (m, jobs) ->
      let offline ~m js = Mrt.schedule ~m js in
      let batches = Batch_online.batches ~offline ~m jobs in
      List.for_all
        (fun (start, batch) -> List.for_all (fun (j : Job.t) -> j.release <= start +. 1e-9) batch)
        batches)

let qcheck_batch_online_ratio =
  (* Empirical check of the 2*rho transformation: the guarantee is
     against the optimum; against the lower bound we allow the full
     3 + eps plus LB slack. *)
  T_helpers.qtest ~count:100 "batch on-line: sane ratio vs lower bound" arb_mixed_rel
    (fun (m, jobs) ->
      let c = Schedule.makespan (Batch_online.with_mrt ~m jobs) in
      let lb = Lower_bounds.cmax ~m jobs in
      if c <= 6.0 *. lb +. 1e-6 then true
      else QCheck.Test.fail_reportf "ratio %.3f" (c /. lb))

(* --- SMART -------------------------------------------------------------- *)

let test_shelf_class () =
  Alcotest.(check int) "p=base" 0 (Smart.shelf_class ~base:1.0 1.0);
  Alcotest.(check int) "p=1.5" 1 (Smart.shelf_class ~base:1.0 1.5);
  Alcotest.(check int) "p=2" 1 (Smart.shelf_class ~base:1.0 2.0);
  Alcotest.(check int) "p=9" 4 (Smart.shelf_class ~base:1.0 9.0)

let qcheck_smart_valid =
  T_helpers.qtest "SMART: schedules are valid" arb_rigid (fun (m, jobs) ->
      T_helpers.assert_valid ~jobs (Smart.schedule_rigid_jobs ~m jobs))

let qcheck_smart_ratio =
  T_helpers.qtest ~count:150 "SMART: sum wC within 8.53x of lower bound" arb_rigid
    (fun (m, jobs) ->
      let sched = Smart.schedule_rigid_jobs ~m jobs in
      let v = (Metrics.compute ~jobs sched).Metrics.sum_weighted_completion in
      let lb = Lower_bounds.sum_weighted_completion ~m jobs in
      if v <= 8.53 *. lb +. 1e-6 then true else QCheck.Test.fail_reportf "ratio %.3f" (v /. lb))

(* --- bi-criteria --------------------------------------------------------- *)

let qcheck_bicriteria_valid =
  T_helpers.qtest "bi-criteria: schedules are valid" arb_mixed_rel (fun (m, jobs) ->
      T_helpers.assert_valid ~jobs (Bicriteria.schedule ~m jobs))

let qcheck_bicriteria_batches_double =
  T_helpers.qtest "bi-criteria: deadlines grow geometrically" arb_mixed (fun (m, jobs) ->
      let batches = Bicriteria.batches ~m jobs in
      let rec growing = function
        | (a : Bicriteria.batch) :: (b :: _ as rest) ->
          b.Bicriteria.deadline >= 2.0 *. a.Bicriteria.deadline -. 1e-9 && growing rest
        | _ -> true
      in
      growing batches)

let qcheck_bicriteria_ratios =
  T_helpers.qtest ~count:100 "bi-criteria: both ratios within 4*rho of lower bounds" arb_mixed
    (fun (m, jobs) ->
      let sched = Bicriteria.schedule ~m jobs in
      let metrics = Metrics.compute ~jobs sched in
      let r_cmax = Schedule.makespan sched /. Float.max (Lower_bounds.cmax ~m jobs) 1e-12 in
      let r_wc =
        metrics.Metrics.sum_weighted_completion
        /. Float.max (Lower_bounds.sum_weighted_completion ~m jobs) 1e-12
      in
      if r_cmax <= 6.0 +. 1e-6 && r_wc <= 6.0 +. 1e-6 then true
      else QCheck.Test.fail_reportf "ratios %.3f %.3f" r_cmax r_wc)

(* --- backfilling --------------------------------------------------------- *)

let arb_rigid_rel = T_helpers.arb_instance ~releases:true `Rigid

let qcheck_easy_valid =
  T_helpers.qtest "EASY: schedules are valid" arb_rigid_rel (fun (m, jobs) ->
      T_helpers.assert_valid ~jobs (Backfilling.easy ~m (allocate_all jobs)))

let qcheck_conservative_valid_with_reservations =
  T_helpers.qtest "conservative: valid under reservations" arb_rigid_rel (fun (m, jobs) ->
      let reservations =
        [ Psched_platform.Reservation.make ~id:0 ~start:5.0 ~duration:10.0 ~procs:(max 1 (m / 2)) ]
      in
      T_helpers.assert_valid ~reservations ~jobs
        (Backfilling.conservative ~reservations ~m (allocate_all jobs)))

let qcheck_easy_valid_with_reservations =
  T_helpers.qtest "EASY: valid under reservations" arb_rigid_rel (fun (m, jobs) ->
      let reservations =
        [ Psched_platform.Reservation.make ~id:0 ~start:5.0 ~duration:10.0 ~procs:(max 1 (m / 2)) ]
      in
      T_helpers.assert_valid ~reservations ~jobs
        (Backfilling.easy ~reservations ~m (allocate_all jobs)))

let test_easy_backfills () =
  (* job0 occupies 3/4 procs until 4; job1 (4 procs) must wait; job2
     (1 proc, 2s) finishes before job1's reservation: EASY starts it
     immediately. *)
  let jobs =
    [
      Job.rigid ~id:0 ~procs:3 ~time:4.0 ();
      Job.rigid ~id:1 ~procs:4 ~time:2.0 ();
      Job.rigid ~id:2 ~procs:1 ~time:2.0 ();
    ]
  in
  let s = Backfilling.easy ~m:4 (allocate_all jobs) in
  T_helpers.check_float "job2 starts now" 2.0 (Schedule.completion_of s 2);
  T_helpers.check_float "job1 not delayed" 6.0 (Schedule.completion_of s 1)

let test_easy_does_not_delay_head () =
  (* A long backfill candidate that would delay the head must wait. *)
  let jobs =
    [
      Job.rigid ~id:0 ~procs:3 ~time:4.0 ();
      Job.rigid ~id:1 ~procs:4 ~time:2.0 ();
      Job.rigid ~id:2 ~procs:1 ~time:10.0 ();
    ]
  in
  let s = Backfilling.easy ~m:4 (allocate_all jobs) in
  T_helpers.check_float "head starts at 4" 6.0 (Schedule.completion_of s 1);
  Alcotest.(check bool) "long job waits for head" true (Schedule.completion_of s 2 >= 6.0)

(* --- the on-line engine ------------------------------------------------ *)

(* The registry policies that run on the on-line engine or honour
   reservations beside it. *)
let online_policies =
  [ "easy"; "easy-mr"; "conservative"; "list-mr"; "fcfs"; "sjf"; "wsjf"; "max-stretch-first" ]

(* Every on-line policy and non-clairvoyant EASY under each estimator
   give a valid schedule of all [jobs]. *)
let check_online_valid ~m jobs =
  let valid label sched =
    match Validate.check ~jobs sched with
    | [] -> ()
    | v :: _ -> Alcotest.failf "%s: %a" label Validate.pp_violation v
  in
  List.iter
    (fun policy ->
      match Schedulers.run policy (Scheduler_intf.ctx ~m ()) jobs with
      | Ok o -> valid policy o.Scheduler_intf.schedule
      | Error e -> Alcotest.failf "%s" (Scheduler_intf.error_to_string e))
    online_policies;
  List.iter
    (fun (name, estimator) ->
      valid ("nonclairvoyant " ^ name) (Nonclairvoyant.easy ~estimator ~m (allocate_all jobs)))
    T_helpers.estimators

(* Events closer than the engine's 1e-9 merge window.  The old loops
   lost a processor (a completion merged away before it was counted),
   freed one twice (a completion counted at two steps), or started a
   job at the step's date while a job due within the window still
   ran. *)
let test_tiny_job () =
  check_online_valid ~m:1
    [ Job.rigid ~id:0 ~procs:1 ~time:1e-12 (); Job.rigid ~id:1 ~procs:1 ~time:1.0 () ]

let test_two_close_completions () =
  check_online_valid ~m:2
    [
      Job.rigid ~id:0 ~procs:1 ~time:1.0 ();
      Job.rigid ~id:1 ~procs:1 ~time:(1.0 +. 5e-10) ();
      Job.rigid ~id:2 ~procs:2 ~time:1.0 ();
    ]

let test_three_close_completions () =
  check_online_valid ~m:3
    (Job.rigid ~id:0 ~procs:1 ~time:1.0 ()
    :: Job.rigid ~id:1 ~procs:1 ~time:(1.0 +. 0.9e-9) ()
    :: Job.rigid ~id:2 ~procs:1 ~time:(1.0 +. 1.8e-9) ()
    :: List.init 4 (fun i -> Job.rigid ~id:(3 + i) ~procs:1 ~time:1.0 ()))

(* A job shorter than the merge window completes inside the step that
   started it; its belief tail must still be given back, or the job
   queued behind it never starts. *)
let test_tiny_job_long_estimate () =
  let jobs = [ Job.rigid ~id:0 ~procs:1 ~time:1e-12 (); Job.rigid ~id:1 ~procs:1 ~time:1.0 () ] in
  let sched =
    Nonclairvoyant.easy ~estimator:(Nonclairvoyant.overestimate ~factor:1e7) ~m:1
      (allocate_all jobs)
  in
  Alcotest.(check bool) "valid" true (Validate.is_valid ~jobs sched)

let qcheck_queue_oracle =
  T_helpers.qtest ~count:1000 "engine = old queue loop: fcfs/sjf/wsjf/msf" T_helpers.arb_spaced
    (fun (m, jobs, _) ->
      let allocated = allocate_all jobs in
      List.for_all
        (fun (name, policy) ->
          T_helpers.same_schedule name
            (Queue_policies.schedule policy ~m allocated)
            (Online_oracle.queue policy ~m allocated))
        Queue_policies.all)

let qcheck_easy_oracle =
  T_helpers.qtest ~count:1000 "engine = old EASY loop, with reservations" T_helpers.arb_spaced
    (fun (m, jobs, reservations) ->
      let allocated = allocate_all jobs in
      T_helpers.same_schedule "easy"
        (Backfilling.easy ~reservations ~m allocated)
        (Online_oracle.easy ~reservations ~estimator:Nonclairvoyant.exact ~m allocated))

let qcheck_online_reservations =
  T_helpers.qtest ~count:300 "on-line policies: valid under reservations"
    (QCheck.pair arb_rigid_rel (QCheck.make (T_helpers.G.float_range 0.0 1.0)))
    (fun ((m, jobs), share) ->
      (* Three disjoint reservations over the arrival period, each as
         wide as a random share of the machine. *)
      let horizon = List.fold_left (fun acc (j : Job.t) -> Float.max acc j.release) 10.0 jobs in
      let procs = max 1 (int_of_float (share *. float_of_int m)) in
      let reservations =
        List.init 3 (fun i ->
            Psched_platform.Reservation.make ~id:i
              ~start:(float_of_int i *. horizon /. 3.0)
              ~duration:(horizon /. 6.0) ~procs)
      in
      let ctx = Scheduler_intf.ctx ~reservations ~m () in
      List.for_all
        (fun policy ->
          match Schedulers.run policy ctx jobs with
          | Ok o -> T_helpers.assert_valid ~reservations ~jobs o.Scheduler_intf.schedule
          | Error e -> QCheck.Test.fail_reportf "%s" (Scheduler_intf.error_to_string e))
        online_policies)

(* --- allocation strategies / rigid mix ----------------------------------- *)

let qcheck_alloc_strategies =
  T_helpers.qtest "moldable_alloc: strategy invariants" arb_moldable (fun (m, jobs) ->
      List.for_all
        (fun j ->
          let fast = Moldable_alloc.fastest ~m j in
          let thrifty = Moldable_alloc.thriftiest ~m j in
          let bounded = Moldable_alloc.work_bounded ~m ~delta:0.3 j in
          Job.time_on j fast <= Job.time_on j thrifty +. 1e-9
          && Job.work_on j thrifty <= Job.work_on j fast +. 1e-9
          && Job.work_on j bounded <= (1.3 *. Job.work_on j thrifty) +. 1e-6
          && Job.can_run_on j fast && Job.can_run_on j thrifty && Job.can_run_on j bounded)
        jobs)

let qcheck_rigid_mix_all_valid =
  T_helpers.qtest "rigid mix: all strategies produce valid schedules" arb_mixed
    (fun (m, jobs) ->
      List.for_all
        (fun (_, strategy) ->
          T_helpers.assert_valid ~jobs (Rigid_mix.schedule strategy ~m jobs))
        Rigid_mix.all_strategies)

let suite =
  [
    Alcotest.test_case "LB cmax hand values" `Quick test_lb_cmax_hand;
    Alcotest.test_case "LB release dates" `Quick test_lb_release_dates;
    qcheck_lb_below_any_schedule;
    qcheck_list_schedule_valid;
    qcheck_list_schedule_no_runaway;
    Alcotest.test_case "FCFS backfills conservatively" `Quick test_pack_fcfs_is_conservative;
    qcheck_shelves_valid;
    qcheck_ffdh_not_worse;
    Alcotest.test_case "shelf structure" `Quick test_shelves_structure;
    qcheck_wspt_optimal;
    qcheck_spt_optimal_unweighted;
    Alcotest.test_case "single machine schedule" `Quick test_single_machine_schedule;
    Alcotest.test_case "canonical alloc" `Quick test_canonical_alloc;
    qcheck_mrt_valid;
    qcheck_mrt_above_lb;
    qcheck_mrt_guess_soundness;
    qcheck_mrt_ratio_tiny;
    Alcotest.test_case "MRT empty/single" `Quick test_mrt_empty_and_single;
    qcheck_batch_online_valid;
    qcheck_batches_respect_releases;
    qcheck_batch_online_ratio;
    Alcotest.test_case "SMART shelf class" `Quick test_shelf_class;
    qcheck_smart_valid;
    qcheck_smart_ratio;
    qcheck_bicriteria_valid;
    qcheck_bicriteria_batches_double;
    qcheck_bicriteria_ratios;
    qcheck_easy_valid;
    qcheck_conservative_valid_with_reservations;
    qcheck_easy_valid_with_reservations;
    Alcotest.test_case "EASY backfills" `Quick test_easy_backfills;
    Alcotest.test_case "EASY protects head" `Quick test_easy_does_not_delay_head;
    Alcotest.test_case "engine: a 1e-12 s job" `Quick test_tiny_job;
    Alcotest.test_case "engine: completions 5e-10 apart" `Quick test_two_close_completions;
    Alcotest.test_case "engine: completions 0.9e-9 apart" `Quick test_three_close_completions;
    Alcotest.test_case "engine: tail of a 1e-12 s job" `Quick test_tiny_job_long_estimate;
    qcheck_queue_oracle;
    qcheck_easy_oracle;
    qcheck_online_reservations;
    qcheck_alloc_strategies;
    qcheck_rigid_mix_all_valid;
  ]
