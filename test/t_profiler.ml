(* Span profiler, histogram percentiles, ring edge cases, and the
   perfbench regression gate. *)

open Psched_core
open Psched_workload
module Obs = Psched_obs.Obs
module Ring = Psched_obs.Ring
module Profiler = Psched_obs.Profiler
module B = Psched_obs.Bench_report

(* --- ring at exact capacity -------------------------------------------- *)

let test_ring_exact_capacity () =
  let r = Ring.create 4 in
  List.iter (fun i -> Ring.push r i) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "exactly full, nothing lost" [ 1; 2; 3; 4 ] (Ring.to_list r);
  Alcotest.(check int) "no drops at capacity" 0 (Ring.dropped r);
  Alcotest.(check int) "length is capacity" 4 (Ring.length r);
  Ring.push r 5;
  Alcotest.(check (list int)) "one past capacity evicts oldest" [ 2; 3; 4; 5 ] (Ring.to_list r);
  Alcotest.(check int) "one drop" 1 (Ring.dropped r);
  let r1 = Ring.create 1 in
  Ring.push r1 7;
  Alcotest.(check (list int)) "capacity-1 full" [ 7 ] (Ring.to_list r1);
  Ring.push r1 8;
  Alcotest.(check (list int)) "capacity-1 wraps" [ 8 ] (Ring.to_list r1);
  Alcotest.(check int) "capacity-1 drop" 1 (Ring.dropped r1)

(* --- histogram percentile edges ---------------------------------------- *)

let test_hist_percentile_edges () =
  let bounds = [| 1.0; 10.0; 100.0 |] in
  let pct counts p = Obs.Hist.percentile ~bounds ~counts p in
  (* Empty histogram: no percentile exists. *)
  Alcotest.(check (option (float 0.0))) "empty" None (pct [| 0; 0; 0; 0 |] 50.0);
  (* A single sample answers every percentile. *)
  let single = [| 0; 1; 0; 0 |] in
  Alcotest.(check (option (float 0.0))) "single p0" (Some 10.0) (pct single 0.0);
  Alcotest.(check (option (float 0.0))) "single p50" (Some 10.0) (pct single 50.0);
  Alcotest.(check (option (float 0.0))) "single p100" (Some 10.0) (pct single 100.0);
  (* Spread samples: p0 is the first non-empty bucket, p100 the last,
     out-of-range p clamps rather than failing. *)
  let spread = [| 2; 0; 3; 1 |] in
  Alcotest.(check (option (float 0.0))) "p0 first bucket" (Some 1.0) (pct spread 0.0);
  Alcotest.(check (option (float 0.0))) "p100 overflow" (Some infinity) (pct spread 100.0);
  Alcotest.(check (option (float 0.0))) "p50 middle" (Some 100.0) (pct spread 50.0);
  Alcotest.(check (option (float 0.0))) "p<0 clamps" (Some 1.0) (pct spread (-10.0));
  Alcotest.(check (option (float 0.0))) "p>100 clamps" (Some infinity) (pct spread 200.0);
  (* Boundary between buckets: 2 of 5 samples in bucket 0 => p40 still
     bucket 0, anything above crosses. *)
  let five = [| 2; 3; 0; 0 |] in
  Alcotest.(check (option (float 0.0))) "p40 on the boundary" (Some 1.0) (pct five 40.0);
  Alcotest.(check (option (float 0.0))) "p41 crosses" (Some 10.0) (pct five 41.0)

(* --- span attribution --------------------------------------------------- *)

let test_span_stats_nesting () =
  let obs = Obs.create () in
  (* Two calls of parent > child; child time must be excluded from the
     parent's self column. *)
  for _ = 1 to 2 do
    Obs.span obs "outer" (fun () ->
        Obs.span obs "inner" (fun () -> Sys.opaque_identity (ignore (List.init 100 Fun.id))))
  done;
  let stats = Obs.span_stats obs in
  let find path = List.assoc_opt path stats in
  (match find "outer" with
  | None -> Alcotest.fail "outer path missing"
  | Some s ->
    Alcotest.(check int) "outer calls" 2 s.Obs.calls;
    Alcotest.(check bool) "self <= total" true (s.Obs.self <= s.Obs.total +. 1e-12);
    Alcotest.(check bool) "alloc self <= total" true
      (s.Obs.alloc_self <= s.Obs.alloc_total +. 1e-6));
  (match find "outer;inner" with
  | None -> Alcotest.fail "nested path missing"
  | Some s ->
    Alcotest.(check int) "inner calls" 2 s.Obs.calls;
    Alcotest.(check bool) "inner allocates" true (s.Obs.alloc_total > 0.0));
  (* Paths sort parents before children. *)
  let paths = List.map fst stats in
  Alcotest.(check (list string)) "tree order" [ "outer"; "outer;inner" ] paths

let test_mrt_profile_phases () =
  let rng = Psched_util.Rng.create 11 in
  let jobs = Workload_gen.moldable_uniform rng ~n:40 ~m:24 ~tmin:1.0 ~tmax:50.0 in
  let obs = Obs.create ~ring_capacity:256 () in
  ignore (Mrt.schedule ~obs ~m:24 jobs);
  let stats = Obs.span_stats obs in
  let mrt_paths =
    List.filter (fun (p, _) -> String.length p >= 3 && String.sub p 0 3 = "mrt") stats
  in
  (* The acceptance bar: at least three distinct MRT phases, each with
     calls, total/self wall time and allocation attribution. *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 3 mrt phases (got %d)" (List.length mrt_paths))
    true
    (List.length mrt_paths >= 3);
  List.iter
    (fun (path, (s : Obs.span_stat)) ->
      Alcotest.(check bool) (path ^ " called") true (s.Obs.calls >= 1);
      Alcotest.(check bool) (path ^ " self within total") true (s.Obs.self <= s.Obs.total +. 1e-12);
      Alcotest.(check bool) (path ^ " timings non-negative") true
        (s.Obs.total >= 0.0 && s.Obs.self >= 0.0))
    mrt_paths;
  (* The search phase allocates (caches, knapsack tables). *)
  (match List.assoc_opt "mrt;mrt.search" stats with
  | None -> Alcotest.fail "mrt;mrt.search missing"
  | Some s -> Alcotest.(check bool) "search allocates" true (s.Obs.alloc_total > 0.0));
  (* Rendered forms agree with the stats. *)
  let table = Profiler.table obs in
  Alcotest.(check bool) "table mentions knapsack" true (T_helpers.contains table "mrt.knapsack");
  let folded = Profiler.folded obs in
  Alcotest.(check bool) "folded has the nested path" true
    (T_helpers.contains folded "mrt;mrt.search;mrt.knapsack ");
  let prom = Profiler.prometheus obs in
  Alcotest.(check bool) "prometheus span family" true
    (T_helpers.contains prom "psched_span_self_seconds_total{path=\"mrt\"}");
  Alcotest.(check bool) "prometheus counter family" true
    (T_helpers.contains prom "psched_counter_total{name=\"mrt/knapsack/dp\"}")

let test_prometheus_histogram_family () =
  let obs = Obs.create () in
  Obs.Hist.observe obs "decide" 0.05;
  Obs.Hist.observe obs "decide" 0.05;
  Obs.Hist.observe obs "decide" 2.0;
  let prom = Profiler.prometheus obs in
  Alcotest.(check bool) "cumulative buckets exported" true
    (T_helpers.contains prom "psched_histogram_bucket{name=\"decide\",le=\"0.1\"} 2"
    && T_helpers.contains prom "psched_histogram_bucket{name=\"decide\",le=\"+Inf\"} 3");
  Alcotest.(check bool) "sum exported" true
    (T_helpers.contains prom "psched_histogram_sum{name=\"decide\"} 2.1");
  Alcotest.(check bool) "count exported" true
    (T_helpers.contains prom "psched_histogram_count{name=\"decide\"} 3")

let test_profiler_empty () =
  let obs = Obs.create () in
  Alcotest.(check bool) "empty table is a note" true
    (T_helpers.contains (Profiler.table obs) "no completed spans");
  Alcotest.(check string) "empty folded" "" (Profiler.folded obs)

let test_span_accounting_survives_ring () =
  (* Span stats live outside the event ring: a tiny ring drops events
     but never loses attribution. *)
  let obs = Obs.create ~ring_capacity:1 () in
  for _ = 1 to 50 do
    Obs.span obs "work" (fun () -> ())
  done;
  Alcotest.(check bool) "events dropped" true (Obs.dropped obs > 0);
  match List.assoc_opt "work" (Obs.span_stats obs) with
  | None -> Alcotest.fail "path lost"
  | Some s -> Alcotest.(check int) "all calls attributed" 50 s.Obs.calls

(* --- bench gate ---------------------------------------------------------- *)

(* A slice of BENCHMARK.json: two end-to-end timings, one exact metric,
   and per-layer timings including the whole-call totals. *)
let spec =
  let j =
    B.json_of_string
      {|{"end_to_end": [
          {"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.25},
          {"name": "decide_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
          {"name": "cmax_ratio", "unit": "ratio", "better": "lower", "bound": 0.01}],
        "per_layer": [
          {"name": "run.rep_s", "unit": "s", "better": "lower"},
          {"name": "core.schedule_s", "unit": "s", "better": "lower"},
          {"name": "span.easy.self_s", "unit": "s", "better": "lower"},
          {"name": "sim.validate_s", "unit": "s", "better": "lower"},
          {"name": "core.alloc_bytes_per_job", "unit": "bytes", "better": "lower"}]}|}
  in
  match Result.map B.spec_of_json j with
  | Ok (Ok s) -> s
  | Ok (Error e) -> Alcotest.failf "spec: %s" (B.error_to_string e)
  | Error msg -> Alcotest.failf "spec json: %s" msg

(* One gate line wrapping a perfbench result. *)
let line ?(correct = true) ?(failed = 0) workload trace metrics =
  Printf.sprintf
    {|{"workload": "%s", "trace": %d, "result": {"correct": %b, "attempted": 100, "failed": %d, "metrics": {%s}}}|}
    workload trace correct failed
    (String.concat ", "
       (List.map (fun (n, v) -> Printf.sprintf {|"%s": {"value": %.17g, "unit": "u"}|} n v) metrics))

let runs lines =
  match B.runs_of_string (String.concat "\n" lines) with
  | Ok r -> r
  | Error e -> Alcotest.failf "runs: %s" (B.error_to_string e)

let e2e ?(jobs = 50000.0) ?(p50 = 17.0) ?(cmax = 1.0) () =
  [ ("jobs_per_s", jobs); ("decide_p50_ms", p50); ("cmax_ratio", cmax) ]

let layers ?(slow = 0.0) ?(alloc = 48518.775) () =
  [
    ("run.rep_s", 0.019 +. slow);
    ("core.schedule_s", 0.0163 +. slow);
    ("span.easy.self_s", 0.0171 +. slow);
    ("sim.validate_s", 0.0017);
    ("core.alloc_bytes_per_job", alloc);
  ]

let base = runs [ line "batch-easy" 0 (e2e ()); line "batch-easy" 1 (layers ()) ]

let gate ?correct ?(e2e = e2e ()) ?(layers = layers ()) () =
  B.diff spec base (runs [ line ?correct "batch-easy" 0 e2e; line "batch-easy" 1 layers ])

let test_bench_diff_regression_and_noise () =
  Alcotest.(check int) "identical runs pass" 0 (gate ()).B.failures;
  (* Timings inside the factor are noise, however far they moved... *)
  let noisy = gate ~e2e:(e2e ~jobs:(50000.0 /. 2.5) ~p50:(17.0 *. 2.5) ()) () in
  Alcotest.(check int) "x2.5 inside the factor" 0 noisy.B.failures;
  (* ...past it they fail, and the report names the per-layer timing
     that grew most: the span, not the whole-call totals around it. *)
  let slow =
    gate ~e2e:(e2e ~jobs:8000.0 ~p50:117.0 ()) ~layers:(layers ~slow:0.1 ()) ()
  in
  Alcotest.(check int) "both timings past the factor" 2 slow.B.failures;
  let w = List.hd slow.B.workloads in
  Alcotest.(check bool) "workload fails" true (B.failing w);
  Alcotest.(check (option string)) "names the span" (Some "span.easy.self_s")
    (Option.map (fun r -> r.B.metric) w.B.moved_most);
  let rendered = B.render slow in
  Alcotest.(check bool) "render flags FAIL" true (T_helpers.contains rendered "FAIL");
  Alcotest.(check bool) "render names the span" true
    (T_helpers.contains rendered "moved most: span.easy.self_s");
  (* Per-layer timings never fail on their own. *)
  Alcotest.(check int) "layers alone pass" 0 (gate ~layers:(layers ~slow:1.0 ()) ()).B.failures;
  (* An exact metric fails on any change, better or worse. *)
  Alcotest.(check int) "cmax_ratio better" 1 (gate ~e2e:(e2e ~cmax:0.9999999 ()) ()).B.failures;
  Alcotest.(check int) "one extra byte per job" 1
    (gate ~layers:(layers ~alloc:48519.775 ()) ()).B.failures;
  (* A run that failed its own checks fails the gate. *)
  Alcotest.(check int) "correct false" 1 (gate ~correct:false ()).B.failures

let test_bench_culprit_grew () =
  (* An exact metric fails while every timing shrank or stayed put: no
     layer slowed down, so none is named. *)
  let d = gate ~layers:(layers ~slow:(-0.01) ~alloc:2933.0 ()) () in
  Alcotest.(check int) "allocation changed" 1 d.B.failures;
  Alcotest.(check (option string)) "no culprit" None
    (Option.map (fun r -> r.B.metric) (List.hd d.B.workloads).B.moved_most);
  let rendered = B.render d in
  Alcotest.(check bool) "says none grew" true (T_helpers.contains rendered "no per-layer timing grew");
  Alcotest.(check bool) "names no layer" false (T_helpers.contains rendered "moved most")

let test_bench_higher_better_flips () =
  let jobs_gate old_jobs new_jobs =
    B.diff spec
      (runs [ line "w" 0 [ ("jobs_per_s", old_jobs) ] ])
      (runs [ line "w" 0 [ ("jobs_per_s", new_jobs) ] ])
  in
  (* jobs_per_s is higher-better: it regresses when it goes DOWN. *)
  let d = jobs_gate 6000.0 1000.0 in
  Alcotest.(check int) "throughput collapse fails" 1 d.B.failures;
  Alcotest.(check int) "throughput gain passes" 0 (jobs_gate 1000.0 6000.0).B.failures;
  (* decide_p50_ms is lower-better: the other way round. *)
  let p50_gate o n =
    B.diff spec
      (runs [ line "w" 0 [ ("decide_p50_ms", o) ] ])
      (runs [ line "w" 0 [ ("decide_p50_ms", n) ] ])
  in
  Alcotest.(check int) "latency x6 fails" 1 (p50_gate 10.0 60.0).B.failures;
  Alcotest.(check int) "latency /6 passes" 0 (p50_gate 60.0 10.0).B.failures

let test_bench_added_removed () =
  let d =
    B.diff spec
      (runs [ line "w" 0 [ ("A", 1.0); ("jobs_per_s", 2.0) ]; line "v" 0 (e2e ()) ])
      (runs [ line "w" 0 [ ("jobs_per_s", 2.0); ("C", 3.0) ] ])
  in
  let w = List.find (fun w -> w.B.name = "w") d.B.workloads in
  Alcotest.(check (list string)) "removed" [ "A" ] w.B.only_old;
  Alcotest.(check (list string)) "added" [ "C" ] w.B.only_new;
  Alcotest.(check int) "only common compared" 1 (List.length w.B.rows);
  (* A workload the baseline has and the fresh set lacks fails. *)
  let v = List.find (fun w -> w.B.name = "v") d.B.workloads in
  Alcotest.(check bool) "missing run fails" true (B.failing v);
  Alcotest.(check int) "one failure" 1 d.B.failures

let test_bench_malformed_lines () =
  let bad_line s =
    match B.runs_of_string s with
    | Error (B.Bad_line { line; _ }) -> Some line
    | Error _ | Ok _ -> None
  in
  let good = line "w" 0 (e2e ()) in
  Alcotest.(check (option int)) "not json" (Some 2) (bad_line (good ^ "\n{oops"));
  Alcotest.(check (option int)) "no result" (Some 1) (bad_line {|{"workload": "w", "trace": 0}|});
  Alcotest.(check (option int)) "trace 2" (Some 1)
    (bad_line
       {|{"workload": "w", "trace": 2, "result": {"correct": true, "failed": 0, "metrics": {}}}|});
  Alcotest.(check (option int)) "value not a number" (Some 1)
    (bad_line
       {|{"workload": "w", "trace": 0, "result": {"correct": true, "failed": 0, "metrics": {"a": {"value": "x"}}}}|});
  Alcotest.(check (option int)) "repeated run" (Some 3) (bad_line (good ^ "\n\n" ^ good));
  Alcotest.(check int) "blank lines skipped" 0
    (match B.runs_of_string "\n\n" with Ok r -> List.length r | Error _ -> -1);
  (* Every prefix of a valid file decodes or errors; none raises. *)
  let file = good ^ "\n" ^ line "w" 1 (layers ()) ^ "\n" in
  for k = 0 to String.length file do
    ignore (B.runs_of_string (String.sub file 0 k))
  done;
  match B.load "no/such/file.jsonl" with
  | Error (B.Unreadable _) -> ()
  | _ -> Alcotest.fail "missing file is not Unreadable"

(* The committed baseline is what `make bench-diff` compares against:
   it must parse, pass its own checks, name only BENCHMARK.json's
   metrics, and pass against itself. *)
let test_bench_baseline_fixture () =
  let spec =
    match B.load_spec "../BENCHMARK.json" with
    | Ok s -> s
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" (B.error_to_string e)
  in
  let baseline =
    match B.load "fixtures/perfbench_baseline.jsonl" with
    | Ok r -> r
    | Error e -> Alcotest.failf "baseline: %s" (B.error_to_string e)
  in
  Alcotest.(check int) "five workloads, untraced and traced" 10 (List.length baseline);
  List.iter
    (fun (r : B.run) ->
      Alcotest.(check bool) (r.B.workload ^ " correct") true (r.B.correct && r.B.failed = 0);
      List.iter
        (fun (name, _) ->
          Alcotest.(check bool) (name ^ " in BENCHMARK.json") true
            (List.exists (fun (m : B.metric_spec) -> m.B.name = name) spec))
        r.B.metrics)
    baseline;
  Alcotest.(check int) "passes against itself" 0 (B.diff spec baseline baseline).B.failures

(* --- SVG gantt ---------------------------------------------------------- *)

let test_gantt_svg () =
  let jobs =
    [
      Job.rigid ~id:0 ~procs:2 ~time:4.0 ();
      Job.rigid ~id:1 ~procs:1 ~time:3.0 ();
      Job.rigid ~id:2 ~procs:3 ~time:2.0 ();
    ]
  in
  let sched = Packing.list_schedule ~m:4 (List.map Packing.allocate_rigid jobs) in
  let svg = Psched_sim.Gantt.render_svg sched in
  Alcotest.(check bool) "is svg" true (T_helpers.contains svg "<svg");
  Alcotest.(check bool) "closes" true (T_helpers.contains svg "</svg>");
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d drawn" id)
        true
        (T_helpers.contains svg (Printf.sprintf "job %d:" id)))
    [ 0; 1; 2 ];
  (* A 2-proc job paints 2 lanes: rect count >= sum of procs. *)
  let rects =
    List.length (String.split_on_char '\n' svg)
    |> fun _ ->
    let count = ref 0 in
    let re = "<rect" in
    let n = String.length svg and k = String.length re in
    for i = 0 to n - k do
      if String.sub svg i k = re then incr count
    done;
    !count
  in
  Alcotest.(check bool) "one rect per lane plus frame" true (rects >= 7);
  let empty = Psched_sim.Gantt.render_svg (Psched_sim.Schedule.make ~m:4 []) in
  Alcotest.(check bool) "empty schedule still svg" true (T_helpers.contains empty "<svg")

let suite =
  [
    Alcotest.test_case "ring exact capacity" `Quick test_ring_exact_capacity;
    Alcotest.test_case "hist percentile edges" `Quick test_hist_percentile_edges;
    Alcotest.test_case "span stats nesting" `Quick test_span_stats_nesting;
    Alcotest.test_case "mrt profile phases" `Quick test_mrt_profile_phases;
    Alcotest.test_case "prometheus histogram family" `Quick test_prometheus_histogram_family;
    Alcotest.test_case "profiler empty" `Quick test_profiler_empty;
    Alcotest.test_case "span accounting survives ring" `Quick test_span_accounting_survives_ring;
    Alcotest.test_case "bench diff regression vs noise" `Quick test_bench_diff_regression_and_noise;
    Alcotest.test_case "bench higher-better flips" `Quick test_bench_higher_better_flips;
    Alcotest.test_case "bench culprit: timings that grew" `Quick test_bench_culprit_grew;
    Alcotest.test_case "bench added/removed" `Quick test_bench_added_removed;
    Alcotest.test_case "bench malformed lines" `Quick test_bench_malformed_lines;
    Alcotest.test_case "bench baseline fixture" `Quick test_bench_baseline_fixture;
    Alcotest.test_case "gantt svg" `Quick test_gantt_svg;
  ]
