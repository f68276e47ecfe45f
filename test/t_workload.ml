open Psched_workload
open Psched_util

let qcheck_profiles_time_monotone =
  T_helpers.qtest "speedup: profiles are time-monotone"
    (QCheck.make T_helpers.gen_model) (fun model ->
      let times = Speedup.profile model ~t1:10.0 ~max_procs:32 in
      Speedup.monotone_time times)

let qcheck_amdahl_work_monotone =
  T_helpers.qtest "speedup: Amdahl profiles are work-monotone"
    QCheck.(float_range 0.0 1.0) (fun f ->
      let times = Speedup.profile (Speedup.Amdahl { seq_fraction = f }) ~t1:10.0 ~max_procs:32 in
      Speedup.monotone_work times)

let test_downey_model () =
  (* Speedup 1 on one processor, saturating at A for large k. *)
  let model = Speedup.Downey { avg_parallelism = 8.0; sigma = 0.5 } in
  T_helpers.check_float "k=1 is t1" 10.0 (Speedup.time model ~t1:10.0 1);
  T_helpers.check_float "saturates at A" (10.0 /. 8.0) (Speedup.time model ~t1:10.0 64);
  Alcotest.(check bool) "speedup below linear" true (Speedup.time model ~t1:10.0 4 >= 10.0 /. 4.0);
  (* sigma = 0 is ideal up to A. *)
  let ideal = Speedup.Downey { avg_parallelism = 8.0; sigma = 0.0 } in
  T_helpers.check_float "sigma=0 linear below A" 2.5 (Speedup.time ideal ~t1:10.0 4);
  (* High-variance branch also starts at 1 and saturates. *)
  let hv = Speedup.Downey { avg_parallelism = 8.0; sigma = 2.0 } in
  T_helpers.check_float "hv k=1" 10.0 (Speedup.time hv ~t1:10.0 1);
  T_helpers.check_float "hv saturation" (10.0 /. 8.0) (Speedup.time hv ~t1:10.0 200)

let test_speedup_values () =
  T_helpers.check_float "linear halves" 5.0 (Speedup.time Speedup.Linear ~t1:10.0 2);
  T_helpers.check_float "amdahl fully sequential" 10.0
    (Speedup.time (Speedup.Amdahl { seq_fraction = 1.0 }) ~t1:10.0 8);
  T_helpers.check_float "amdahl fully parallel" 1.25
    (Speedup.time (Speedup.Amdahl { seq_fraction = 0.0 }) ~t1:10.0 8);
  T_helpers.check_float "power alpha=1 is linear" 2.5
    (Speedup.time (Speedup.Power { alpha = 1.0 }) ~t1:10.0 4)

let test_job_time_on () =
  let r = Job.rigid ~id:0 ~procs:4 ~time:10.0 () in
  T_helpers.check_float "rigid exact" 10.0 (Job.time_on r 4);
  Alcotest.(check bool) "rigid other alloc infeasible" true (Job.time_on r 3 = infinity);
  let mo = Job.moldable ~id:1 ~times:[| 10.0; 6.0; 5.0 |] () in
  T_helpers.check_float "moldable k=2" 6.0 (Job.time_on mo 2);
  Alcotest.(check bool) "moldable k=4 infeasible" true (Job.time_on mo 4 = infinity);
  let d = Job.make ~id:2 (Job.Divisible { work = 100.0 }) in
  T_helpers.check_float "divisible linear" 25.0 (Job.time_on d 4);
  let mp = Job.make ~id:3 (Job.Multiparam { count = 10; unit_time = 2.0 }) in
  T_helpers.check_float "multiparam waves" 8.0 (Job.time_on mp 3)

let test_job_min_work () =
  let mo = Job.moldable ~id:0 ~times:[| 10.0; 6.0; 5.0 |] () in
  (* works: 10, 12, 15 -> min 10 *)
  T_helpers.check_float "min work at 1 proc" 10.0 (Job.min_work mo);
  T_helpers.check_float "min time" 5.0 (Job.min_time mo);
  T_helpers.check_float "seq time" 10.0 (Job.seq_time mo)

let test_job_min_procs_constraint () =
  let mo = Job.moldable ~id:0 ~min_procs:2 ~times:[| 10.0; 6.0; 5.0 |] () in
  Alcotest.(check bool) "k=1 infeasible" true (Job.time_on mo 1 = infinity);
  Alcotest.(check int) "min procs" 2 (Job.min_procs mo);
  T_helpers.check_float "min work skips k=1" 12.0 (Job.min_work mo)

let test_job_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "zero time" (fun () -> Job.rigid ~id:0 ~procs:1 ~time:0.0 ());
  expect_invalid "zero procs" (fun () -> Job.rigid ~id:0 ~procs:0 ~time:1.0 ());
  expect_invalid "negative release" (fun () -> Job.rigid ~release:(-1.0) ~id:0 ~procs:1 ~time:1.0 ());
  expect_invalid "zero weight" (fun () -> Job.rigid ~weight:0.0 ~id:0 ~procs:1 ~time:1.0 ());
  expect_invalid "short times array" (fun () ->
      Job.moldable ~id:0 ~min_procs:4 ~times:[| 1.0 |] ());
  expect_invalid "bad multiparam" (fun () -> Job.make ~id:0 (Job.Multiparam { count = 0; unit_time = 1.0 }))

let test_fig2_generators () =
  let rng = Rng.create 11 in
  let seq = Workload_gen.fig2_nonparallel rng ~n:200 in
  Alcotest.(check int) "n sequential" 200 (List.length seq);
  List.iter
    (fun (j : Job.t) ->
      Alcotest.(check int) "sequential procs" 1 (Job.min_procs j);
      Alcotest.(check bool) "time in [1,100]" true (Job.seq_time j >= 1.0 && Job.seq_time j <= 100.0);
      Alcotest.(check bool) "weight in [1,10]" true (j.weight >= 1.0 && j.weight <= 10.0);
      T_helpers.check_float "release 0" 0.0 j.release)
    seq;
  let par = Workload_gen.fig2_parallel rng ~n:200 ~m:100 in
  Alcotest.(check int) "n parallel" 200 (List.length par);
  List.iter
    (fun (j : Job.t) ->
      Alcotest.(check bool) "parallel max procs within m" true (Job.max_procs j <= 100);
      match j.shape with
      | Job.Moldable { times; _ } -> Alcotest.(check bool) "monotone" true (Speedup.monotone_time times)
      | _ -> Alcotest.fail "expected moldable")
    par

let test_poisson_arrivals_sorted () =
  let rng = Rng.create 5 in
  let jobs = Workload_gen.fig2_nonparallel rng ~n:50 in
  let stamped = Workload_gen.with_poisson_arrivals rng ~rate:0.5 jobs in
  let rec increasing = function
    | (a : Job.t) :: (b :: _ as rest) -> a.release <= b.release && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "releases increasing" true (increasing stamped);
  Alcotest.(check bool) "releases positive" true
    (List.for_all (fun (j : Job.t) -> j.release > 0.0) stamped)

let test_community_stream () =
  let rng = Rng.create 21 in
  let profiles =
    [
      Workload_gen.physicists ~community:0 ~m:100;
      Workload_gen.cs_debug ~community:1 ~m:100;
      Workload_gen.parametric_users ~community:2;
    ]
  in
  let jobs = Workload_gen.community_stream rng ~horizon:(3600.0 *. 24.0) ~profiles in
  Alcotest.(check bool) "non-empty" true (jobs <> []);
  let rec sorted = function
    | (a : Job.t) :: (b :: _ as rest) -> a.release <= b.release && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by release" true (sorted jobs);
  List.iteri (fun i (j : Job.t) -> Alcotest.(check int) "dense ids" i j.id) jobs;
  let communities = List.sort_uniq compare (List.map (fun (j : Job.t) -> j.community) jobs) in
  Alcotest.(check bool) "several communities present" true (List.length communities >= 2)

let qcheck_multiparam_waves =
  T_helpers.qtest "multiparam: ceil-of-linear semantics"
    QCheck.(pair (int_range 1 1000) (int_range 1 64)) (fun (count, k) ->
      let j = Job.make ~id:0 (Job.Multiparam { count; unit_time = 3.0 }) in
      let k = min k count in
      Job.time_on j k = (3.0 *. float_of_int ((count + k - 1) / k)))

let base_suite =
  [
    qcheck_profiles_time_monotone;
    qcheck_amdahl_work_monotone;
    Alcotest.test_case "speedup values" `Quick test_speedup_values;
    Alcotest.test_case "downey model" `Quick test_downey_model;
    Alcotest.test_case "job time_on" `Quick test_job_time_on;
    Alcotest.test_case "job min_work" `Quick test_job_min_work;
    Alcotest.test_case "min_procs constraint" `Quick test_job_min_procs_constraint;
    Alcotest.test_case "job validation" `Quick test_job_validation;
    Alcotest.test_case "fig2 generators" `Quick test_fig2_generators;
    Alcotest.test_case "poisson arrivals" `Quick test_poisson_arrivals_sorted;
    Alcotest.test_case "community stream" `Quick test_community_stream;
    qcheck_multiparam_waves;
  ]

(* --- analyze -------------------------------------------------------------- *)

let test_analyze_profile () =
  let jobs =
    [
      Job.rigid ~community:1 ~id:0 ~procs:2 ~time:10.0 ();
      Job.moldable ~id:1 ~times:[| 8.0; 5.0 |] ();
      Job.make ~id:2 (Job.Divisible { work = 100.0 });
      Job.make ~community:1 ~id:3 (Job.Multiparam { count = 5; unit_time = 2.0 });
    ]
  in
  let p = Analyze.profile jobs in
  Alcotest.(check int) "jobs" 4 p.Analyze.jobs;
  Alcotest.(check int) "rigid" 1 p.Analyze.rigid;
  Alcotest.(check int) "moldable" 1 p.Analyze.moldable;
  Alcotest.(check int) "divisible" 1 p.Analyze.divisible;
  Alcotest.(check int) "multiparam" 1 p.Analyze.multiparam;
  (* 20 + 8 + 100 + 10 *)
  T_helpers.check_float "total work" 138.0 p.Analyze.total_min_work;
  Alcotest.(check (list (pair int int))) "communities" [ (0, 2); (1, 2) ] p.Analyze.per_community

let test_analyze_empty () =
  let p = Analyze.profile [] in
  Alcotest.(check int) "empty" 0 p.Analyze.jobs

let analyze_suite =
  [
    Alcotest.test_case "analyze profile" `Quick test_analyze_profile;
    Alcotest.test_case "analyze empty" `Quick test_analyze_empty;
  ]

(* --- app-class generator --------------------------------------------- *)

module R = Psched_platform.Resource

let test_app_class_sampling () =
  let rng = Psched_util.Rng.create 11 in
  let c =
    App_class.make ~name:"t" ~corehour_ratio:1.0 ~walltime:1000.0 ~cores:16 ~mem_per_core:100
      ~input_ratio:0.5 ~output_ratio:0.5 ~ckpt_ratio:0.5 ~ckpt_period:100.0 ()
  in
  for id = 0 to 49 do
    let j = App_class.sample rng c ~max_cores:32 ~id in
    let procs = Job.min_procs j in
    Alcotest.(check bool) "width in range" true (procs >= 1 && procs <= 32);
    (* High-pass filter: never below 95% of the nominal. *)
    Alcotest.(check bool) "walltime filtered" true (Job.seq_time j >= 0.95 *. 1000.0);
    Alcotest.(check int) "memory = cores x mem_per_core" (procs * 100)
      j.Job.res.R.memory;
    Alcotest.(check bool) "bandwidth derived" true (j.Job.res.R.bandwidth > 0)
  done

let test_app_class_generate () =
  let rng = Psched_util.Rng.create 7 in
  let cap = R.cap ~cores:64 ~memory:65536 ~bandwidth:1024 () in
  List.iter
    (fun (name, classes) ->
      let jobs = App_class.generate rng ~classes ~cap ~corehours:50.0 in
      Alcotest.(check bool) (name ^ " non-empty") true (jobs <> []);
      let work =
        List.fold_left (fun acc j -> acc +. (Job.min_work j /. 3600.0)) 0.0 jobs
      in
      Alcotest.(check bool) (name ^ " hits the budget") true (work >= 50.0);
      (* Every job individually fits the platform (the registry
         precondition for the multi-resource policies). *)
      List.iter
        (fun j ->
          Alcotest.(check bool) (name ^ " job fits") true
            (R.fits (Job.min_request j) ~within:cap))
        jobs)
    (App_class.communities cap)

let test_ckpt_write_cost () =
  T_helpers.check_float "64 GB at 1 GB/s" 64.0
    (Psched_fault.Recovery.write_cost ~size_mb:65536 ~bandwidth:1024);
  match Psched_fault.Recovery.daly_of_footprint ~mtbf:86400.0 ~size_mb:65536 ~bandwidth:1024 with
  | Psched_fault.Recovery.Checkpoint { period; cost } ->
    T_helpers.check_float "cost" 64.0 cost;
    T_helpers.check_float "young period" (sqrt (2.0 *. 64.0 *. 86400.0)) period
  | _ -> Alcotest.fail "expected a checkpoint policy"

let app_class_suite =
  [
    Alcotest.test_case "app-class sampling" `Quick test_app_class_sampling;
    Alcotest.test_case "app-class generate" `Quick test_app_class_generate;
    Alcotest.test_case "checkpoint write cost" `Quick test_ckpt_write_cost;
  ]

(* --- allocation cache -------------------------------------------------- *)

(* Jobs of every shape on small grids, so times tie and moldable tables
   come both non-increasing and not; [m] lands below and above the
   widest allocation. *)
let gen_cache_case =
  let open QCheck.Gen in
  let time = map (fun k -> 0.5 *. float_of_int k) (int_range 1 40) in
  let moldable =
    let* len = int_range 1 24 in
    let* min_procs = int_range 1 len in
    let* times = array_repeat len time in
    let* sorted = bool in
    if sorted then Array.sort (fun a b -> Float.compare b a) times;
    return (Job.moldable ~min_procs ~id:0 ~times ())
  in
  let job =
    frequency
      [
        (4, moldable);
        (1, map2 (fun procs time -> Job.rigid ~id:0 ~procs ~time ()) (int_range 1 24) time);
        (1, map (fun work -> Job.make ~id:0 (Job.Divisible { work })) time);
        ( 1,
          map2
            (fun count unit_time -> Job.make ~id:0 (Job.Multiparam { count; unit_time }))
            (int_range 1 24) time );
      ]
  in
  pair (int_range 1 30) job

(* Outside [min_procs, min m max_procs] the cache answers infinity;
   inside it must repeat Job.time_on / Job.work_on bit for bit. *)
let qcheck_alloc_cache_matches_job =
  T_helpers.qtest ~count:1000 "alloc cache: queries equal Job's, canonical = linear scan"
    (QCheck.make
       ~print:(fun (m, j) ->
         match j.Job.shape with
         | Job.Moldable { min_procs; times } ->
           Format.asprintf "m=%d moldable min_procs=%d times=%a" m min_procs
             (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_float)
             (Array.to_list times)
         | _ -> Format.asprintf "m=%d %a" m Job.pp j)
       gen_cache_case)
    (fun (m, job) ->
      let c = Alloc_cache.of_job ~m job in
      let lo = Job.min_procs job and hi = min m (Job.max_procs job) in
      let inside k = k >= lo && k <= hi in
      let range = List.init (max 0 (hi - lo + 1)) (fun i -> lo + i) in
      let queries_agree =
        List.for_all
          (fun k ->
            let time = if inside k then Job.time_on job k else infinity in
            let work = if inside k then Job.work_on job k else infinity in
            Float.equal (Alloc_cache.time_on c k) time && Float.equal (Alloc_cache.work_on c k) work)
          (List.init (m + 2) Fun.id)
      in
      let min_work =
        List.fold_left (fun acc k -> Float.min acc (Job.work_on job k)) infinity range
      in
      let scan deadline = List.find_opt (fun k -> Job.time_on job k <= deadline) range in
      let values = List.sort_uniq Float.compare (List.map (Job.time_on job) range) in
      let rec between = function
        | a :: (b :: _ as rest) -> ((a +. b) /. 2.0) :: between rest
        | _ -> []
      in
      let deadlines = (0.0 :: infinity :: values) @ between values in
      queries_agree
      && Alloc_cache.feasible c = (lo <= hi)
      && Float.equal (Alloc_cache.min_work c) min_work
      && List.for_all (fun d -> Alloc_cache.canonical c ~deadline:d = scan d) deadlines)

(* The cache reads a moldable job's own table: building it must cost the
   same whatever the table's length, so a copy put back fails here. *)
let test_alloc_cache_no_copy () =
  let bytes max_procs =
    let job =
      Job.moldable ~id:0 ~times:(Array.init max_procs (fun k -> 100.0 /. float_of_int (k + 1))) ()
    in
    let before = Gc.allocated_bytes () in
    let c = Alloc_cache.of_job ~m:2048 job in
    let after = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity c);
    after -. before
  in
  T_helpers.check_float "of_job allocates the same for 8 and 1024 procs" (bytes 8) (bytes 1024)

let alloc_cache_suite =
  [
    qcheck_alloc_cache_matches_job;
    Alcotest.test_case "alloc cache shares the table" `Quick test_alloc_cache_no_copy;
  ]

let suite = base_suite @ analyze_suite @ app_class_suite @ alloc_cache_suite
