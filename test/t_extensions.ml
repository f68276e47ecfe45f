(* Tests for the extension modules: malleable scheduling,
   non-clairvoyant backfilling, SWF traces, submission queues. *)

open Psched_core
open Psched_workload

(* --- malleable ---------------------------------------------------------- *)

let test_malleable_single_task () =
  let t = Malleable.task ~id:0 ~work:100.0 ~max_procs:4.0 () in
  let o = Malleable.simulate ~m:8 [ t ] in
  (* Alone, the task runs at its cap: 100 / 4 = 25. *)
  T_helpers.check_float "capped rate" 25.0 o.Malleable.makespan

let test_malleable_equipartition_two () =
  (* Two identical tasks, m=4, caps 4: each gets 2 procs; work 40 ->
     both finish at 20. *)
  let t id = Malleable.task ~id ~work:40.0 ~max_procs:4.0 () in
  let o = Malleable.simulate ~m:4 [ t 0; t 1 ] in
  T_helpers.check_float "both at 20" 20.0 o.Malleable.makespan;
  T_helpers.check_float "task 0" 20.0 (Malleable.completion_of o 0);
  T_helpers.check_float "task 1" 20.0 (Malleable.completion_of o 1)

let test_malleable_water_filling () =
  (* Caps 1 and 8 on m=4: task 0 saturates at 1, task 1 gets 3. *)
  let t0 = Malleable.task ~id:0 ~work:10.0 ~max_procs:1.0 () in
  let t1 = Malleable.task ~id:1 ~work:30.0 ~max_procs:8.0 () in
  let o = Malleable.simulate ~m:4 [ t0; t1 ] in
  (* Both finish at 10: t0 at rate 1, t1 at rate 3. *)
  T_helpers.check_float "t0" 10.0 (Malleable.completion_of o 0);
  T_helpers.check_float "t1" 10.0 (Malleable.completion_of o 1)

let test_malleable_weighted () =
  (* Weights 3:1 on m=4, no caps binding: rates 3 and 1. *)
  let t0 = Malleable.task ~weight:3.0 ~id:0 ~work:30.0 ~max_procs:8.0 () in
  let t1 = Malleable.task ~weight:1.0 ~id:1 ~work:30.0 ~max_procs:8.0 () in
  let o = Malleable.simulate ~policy:Malleable.Weighted ~m:4 [ t0; t1 ] in
  T_helpers.check_float "t0 first" 10.0 (Malleable.completion_of o 0);
  (* After t0 finishes, t1 has 20 work left and gets 4 procs: 10 + 5. *)
  T_helpers.check_float "t1 second" 15.0 (Malleable.completion_of o 1)

let arb_malleable =
  let ( let* ) = QCheck.Gen.( >>= ) in
  let gen =
    let* m = QCheck.Gen.int_range 2 16 in
    let* n = QCheck.Gen.int_range 1 10 in
    let rec build acc i =
      if i >= n then QCheck.Gen.return (m, List.rev acc)
      else
        let* work = QCheck.Gen.float_range 1.0 100.0 in
        let* cap = QCheck.Gen.float_range 0.5 16.0 in
        let* release = QCheck.Gen.float_range 0.0 20.0 in
        build (Malleable.task ~release ~id:i ~work ~max_procs:cap () :: acc) (i + 1)
    in
    build [] 0
  in
  QCheck.make
    ~print:(fun (m, ts) ->
      Format.asprintf "m=%d %s" m
        (String.concat ";"
           (List.map
              (fun (t : Malleable.task) ->
                Printf.sprintf "(w=%g,cap=%g,r=%g)" t.Malleable.work t.Malleable.max_procs
                  t.Malleable.release)
              ts)))
    gen

let qcheck_malleable_invariants =
  T_helpers.qtest "malleable: shares within capacity and caps, all complete" arb_malleable
    (fun (m, tasks) ->
      let o = Malleable.simulate ~m tasks in
      let all_complete = List.length o.Malleable.completions = List.length tasks in
      let shares_ok =
        List.for_all
          (fun (_, shares) ->
            let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 shares in
            total <= float_of_int m +. 1e-6
            && List.for_all
                 (fun (id, s) ->
                   let t = List.find (fun (t : Malleable.task) -> t.Malleable.id = id) tasks in
                   s <= t.Malleable.max_procs +. 1e-6 && s >= -1e-9)
                 shares)
          o.Malleable.events
      in
      let above_lb =
        o.Malleable.makespan >= Malleable.fluid_lower_bound ~m tasks -. 1e-6
      in
      all_complete && shares_ok && above_lb)

let qcheck_malleable_completions_after_release =
  T_helpers.qtest "malleable: completion after release + work/m" arb_malleable
    (fun (m, tasks) ->
      let o = Malleable.simulate ~m tasks in
      List.for_all
        (fun (c : Malleable.completion) ->
          c.Malleable.finish
          >= c.Malleable.task.Malleable.release
             +. (c.Malleable.task.Malleable.work /. float_of_int m)
             -. 1e-6)
        o.Malleable.completions)

(* --- non-clairvoyant ------------------------------------------------------ *)

let arb_rigid_rel = T_helpers.arb_instance ~releases:true `Rigid
let allocate_all jobs = List.map Packing.allocate_rigid jobs

let qcheck_nc_oracle =
  (* Differential: the engine against the old non-clairvoyant loop,
     on instances whose event dates are equal or far apart. *)
  T_helpers.qtest ~count:1000 "nonclairvoyant: engine = old loop" T_helpers.arb_spaced
    (fun (m, jobs, _) ->
      let allocated = allocate_all jobs in
      List.for_all
        (fun (name, estimator) ->
          T_helpers.same_schedule name
            (Nonclairvoyant.easy ~estimator ~m allocated)
            (Online_oracle.easy ~estimator ~m allocated))
        T_helpers.estimators)

let qcheck_nc_valid_under_overestimates =
  T_helpers.qtest "nonclairvoyant: valid schedules under overestimation" arb_rigid_rel
    (fun (m, jobs) ->
      let allocated = allocate_all jobs in
      List.for_all
        (fun estimator ->
          T_helpers.assert_valid ~jobs (Nonclairvoyant.easy ~estimator ~m allocated))
        [
          Nonclairvoyant.overestimate ~factor:1.5;
          Nonclairvoyant.overestimate ~factor:10.0;
          Nonclairvoyant.noisy ~seed:3 ~max_factor:5.0;
        ])

let test_nc_underestimate_rejected () =
  let jobs = [ (Job.rigid ~id:0 ~procs:1 ~time:10.0 (), 1) ] in
  Alcotest.(check bool) "rejected" true
    (match Nonclairvoyant.easy ~estimator:(fun j k -> 0.5 *. Job.time_on j k) ~m:2 jobs with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- SWF ------------------------------------------------------------------ *)

let test_swf_roundtrip () =
  let rng = Psched_util.Rng.create 5 in
  let jobs =
    Workload_gen.rigid_uniform rng ~n:30 ~m:16 ~tmin:1.0 ~tmax:100.0
    |> Workload_gen.with_poisson_arrivals rng ~rate:0.1
  in
  let parsed = Swf.of_string (Swf.to_string jobs) in
  Alcotest.(check int) "same count" (List.length jobs) (List.length parsed);
  List.iter2
    (fun (a : Job.t) (b : Job.t) ->
      Alcotest.(check int) "id" a.id b.id;
      Alcotest.(check int) "procs" (Job.min_procs a) (Job.min_procs b);
      Alcotest.(check (float 0.01)) "time" (Job.seq_time a) (Job.seq_time b);
      Alcotest.(check (float 0.01)) "release" a.release b.release;
      Alcotest.(check (float 0.01)) "weight" a.weight b.weight)
    jobs parsed

let test_swf_parses_standard_lines () =
  let trace =
    "; comment line\n\
     1 0 3 100 4 -1 -1 4 120 -1 1 7 2 -1 0 -1 -1 -1\n\
     2 50 -1 -1 -1 -1 -1 8 3600 -1 1 7 2 -1 1 -1 -1 -1\n\
     3 60 0 10 0 -1 -1 -1 -1 -1 0 1 1 -1 0 -1 -1 -1\n"
  in
  let jobs = Swf.of_string trace in
  (* Job 3 has no usable processors: skipped. *)
  Alcotest.(check int) "two usable jobs" 2 (List.length jobs);
  let j1 = List.nth jobs 0 and j2 = List.nth jobs 1 in
  Alcotest.(check int) "j1 procs" 4 (Job.min_procs j1);
  T_helpers.check_float "j1 run time" 100.0 (Job.seq_time j1);
  (* Job 2 has run = -1: falls back to requested time. *)
  T_helpers.check_float "j2 requested time" 3600.0 (Job.seq_time j2);
  Alcotest.(check int) "j2 queue -> community" 1 j2.Job.community

let test_swf_rejects_malformed () =
  (* The hardened parser never raises on trace content: a short line
     becomes a typed per-line warning and is skipped. *)
  let jobs, warnings = Swf.parse "1 2 3\n" in
  Alcotest.(check int) "short line yields no job" 0 (List.length jobs);
  match warnings with
  | [ { Swf.line = 1; problem = Swf.Missing_fields { got = 3 } } ] -> ()
  | _ -> Alcotest.fail "expected one Missing_fields warning for line 1"

let test_swf_damaged_fixture () =
  match Swf.parse_file "fixtures/damaged.swf" with
  | Error e -> Alcotest.fail e
  | Ok (jobs, warnings) ->
    (* Jobs 1, 5 and 7 are intact; 2 is truncated, 3 has garbage in the
       run-time column, 4 a negative run time, 6 no processors. *)
    Alcotest.(check (list int)) "usable jobs survive" [ 1; 5; 7 ]
      (List.map (fun (j : Job.t) -> j.Job.id) jobs);
    let problem line =
      match List.find_opt (fun w -> w.Swf.line = line) warnings with
      | Some w -> w.Swf.problem
      | None -> Alcotest.failf "no warning for line %d" line
    in
    (match problem 4 with
    | Swf.Missing_fields { got = 4 } -> ()
    | p -> Alcotest.failf "line 4: expected Missing_fields, got %s" (Swf.problem_to_string p));
    (match problem 5 with
    | Swf.Bad_number { field = 4; text = "abc" } -> ()
    | p -> Alcotest.failf "line 5: expected Bad_number, got %s" (Swf.problem_to_string p));
    (match problem 6 with
    | Swf.Negative_field { field = 4; _ } -> ()
    | p -> Alcotest.failf "line 6: expected Negative_field, got %s" (Swf.problem_to_string p));
    (match problem 8 with
    | Swf.Unusable _ -> ()
    | p -> Alcotest.failf "line 8: expected Unusable, got %s" (Swf.problem_to_string p));
    List.iter
      (fun w ->
        Alcotest.(check bool) "warning renders" true
          (String.length (Swf.warning_to_string w) > 0))
      warnings

let test_swf_memory_fixture () =
  match Swf.parse_file "fixtures/memory.swf" with
  | Error e -> Alcotest.fail e
  | Ok (jobs, warnings) ->
    (* Job 3's negative memory is corruption (skipped); 1, 2 and 4
       survive. *)
    Alcotest.(check (list int)) "surviving jobs" [ 1; 2; 4 ]
      (List.map (fun (j : Job.t) -> j.Job.id) jobs);
    let mem id =
      let j = List.find (fun (j : Job.t) -> j.Job.id = id) jobs in
      j.Job.res.Psched_platform.Resource.memory
    in
    Alcotest.(check int) "job 1: 4 x 2048 KB = 8 MB" 8 (mem 1);
    Alcotest.(check int) "job 2: missing -> zero demand" 0 (mem 2);
    Alcotest.(check int) "job 4: 3 x 1000 KB rounds to 3 MB" 3 (mem 4);
    (* Exactly one soft Missing_memory for job 2, one hard
       Negative_field for job 3's line. *)
    (match List.filter (fun w -> Swf.is_soft w.Swf.problem) warnings with
    | [ { Swf.problem = Swf.Missing_memory { job = 2 }; _ } ] -> ()
    | ws -> Alcotest.failf "expected one Missing_memory for job 2, got %d soft" (List.length ws));
    (match List.filter (fun w -> not (Swf.is_soft w.Swf.problem)) warnings with
    | [ { Swf.problem = Swf.Negative_field { field = 10; _ }; _ } ] -> ()
    | _ -> Alcotest.fail "expected one Negative_field for job 3's memory column")

let test_swf_memory_roundtrip () =
  let res = Psched_platform.Resource.make ~memory:512 () in
  let jobs = [ Job.rigid ~res ~id:1 ~procs:4 ~time:100.0 () ] in
  match Swf.of_string (Swf.to_string jobs) with
  | [ j ] ->
    Alcotest.(check int) "memory survives the roundtrip" 512
      j.Job.res.Psched_platform.Resource.memory
  | l -> Alcotest.failf "expected 1 job, got %d" (List.length l)

let test_swf_file_io () =
  let rng = Psched_util.Rng.create 9 in
  let jobs = Workload_gen.rigid_uniform rng ~n:10 ~m:8 ~tmin:1.0 ~tmax:10.0 in
  let path = Filename.temp_file "psched" ".swf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Swf.save path jobs;
      Alcotest.(check int) "reload count" 10 (List.length (Swf.load path)))

(* --- queues ---------------------------------------------------------------- *)

let mk_queue name priority ids =
  Psched_grid.Queues.queue ~name ~priority
    (List.map (fun id -> Job.rigid ~id ~procs:1 ~time:10.0 ()) ids)

let ids jobs = List.map (fun (j : Job.t) -> j.Job.id) jobs

let test_queues_strict () =
  let qs = [ mk_queue "low" 1 [ 0; 1 ]; mk_queue "high" 5 [ 10; 11 ] ] in
  Alcotest.(check (list int)) "high first" [ 10; 11; 0; 1 ]
    (ids (Psched_grid.Queues.dispatch_order Psched_grid.Queues.Strict qs))

let test_queues_weighted_fair () =
  let qs = [ mk_queue "a" 2 [ 0; 1; 2; 3 ]; mk_queue "b" 1 [ 10; 11 ] ] in
  (* Round 1: a takes 2 (0,1), b takes 1 (10); round 2: a (2,3), b (11). *)
  Alcotest.(check (list int)) "interleaved 2:1" [ 0; 1; 10; 2; 3; 11 ]
    (ids (Psched_grid.Queues.dispatch_order Psched_grid.Queues.Weighted_fair qs))

let test_queues_no_starvation () =
  let qs = [ mk_queue "big" 3 (List.init 50 Fun.id); mk_queue "small" 1 [ 100 ] ] in
  let order = ids (Psched_grid.Queues.dispatch_order Psched_grid.Queues.Weighted_fair qs) in
  let position = List.mapi (fun i id -> (id, i)) order in
  (* The small queue's job appears within the first round + weight. *)
  Alcotest.(check bool) "small queue served early" true (List.assoc 100 position <= 3)

let test_queues_schedule_valid () =
  let qs = [ mk_queue "a" 2 [ 0; 1; 2 ]; mk_queue "b" 1 [ 3; 4 ] ] in
  let jobs = List.concat_map (fun q -> q.Psched_grid.Queues.jobs) qs in
  let sched = Psched_grid.Queues.schedule ~m:2 qs in
  Alcotest.(check bool) "valid" true (Psched_sim.Validate.is_valid ~jobs sched)

let suite =
  [
    Alcotest.test_case "malleable single task" `Quick test_malleable_single_task;
    Alcotest.test_case "malleable equipartition" `Quick test_malleable_equipartition_two;
    Alcotest.test_case "malleable water filling" `Quick test_malleable_water_filling;
    Alcotest.test_case "malleable weighted" `Quick test_malleable_weighted;
    qcheck_malleable_invariants;
    qcheck_malleable_completions_after_release;
    qcheck_nc_oracle;
    qcheck_nc_valid_under_overestimates;
    Alcotest.test_case "nonclairvoyant rejects underestimates" `Quick test_nc_underestimate_rejected;
    Alcotest.test_case "swf roundtrip" `Quick test_swf_roundtrip;
    Alcotest.test_case "swf standard lines" `Quick test_swf_parses_standard_lines;
    Alcotest.test_case "swf malformed" `Quick test_swf_rejects_malformed;
    Alcotest.test_case "swf damaged fixture" `Quick test_swf_damaged_fixture;
    Alcotest.test_case "swf file io" `Quick test_swf_file_io;
    Alcotest.test_case "swf memory fixture" `Quick test_swf_memory_fixture;
    Alcotest.test_case "swf memory roundtrip" `Quick test_swf_memory_roundtrip;
    Alcotest.test_case "queues strict" `Quick test_queues_strict;
    Alcotest.test_case "queues weighted fair" `Quick test_queues_weighted_fair;
    Alcotest.test_case "queues no starvation" `Quick test_queues_no_starvation;
    Alcotest.test_case "queues schedule valid" `Quick test_queues_schedule_valid;
  ]
