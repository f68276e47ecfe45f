(* Observability layer: ring buffer, JSONL encoding/validation, the
   unified registry, and the trace-transparency property (tracing never
   changes a schedule). *)

open Psched_core
open Psched_workload
module Obs = Psched_obs.Obs
module Event = Psched_obs.Event
module Ring = Psched_obs.Ring
module Trace = Psched_obs.Trace

let arb_mixed_rel = T_helpers.arb_instance ~releases:true `Mixed
let arb_moldable = T_helpers.arb_instance `Moldable

(* --- ring buffer ------------------------------------------------------ *)

let test_ring_wraparound () =
  let r = Ring.create 4 in
  List.iter (fun i -> Ring.push r i) [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check (list int)) "oldest first, newest kept" [ 3; 4; 5; 6 ] (Ring.to_list r);
  Alcotest.(check int) "two overwritten" 2 (Ring.dropped r);
  Alcotest.(check int) "full" 4 (Ring.length r);
  Ring.clear r;
  Alcotest.(check (list int)) "cleared" [] (Ring.to_list r);
  Alcotest.(check int) "drop count reset" 0 (Ring.dropped r)

let test_ring_partial () =
  let r = Ring.create 8 in
  Ring.push r 10;
  Ring.push r 20;
  Alcotest.(check (list int)) "insertion order" [ 10; 20 ] (Ring.to_list r);
  Alcotest.(check int) "nothing dropped" 0 (Ring.dropped r)

let test_obs_ring_drops () =
  let obs = Obs.create ~ring_capacity:3 () in
  for i = 1 to 5 do
    Obs.event obs ~payload:[ ("pending", Event.Int i) ] "engine.step"
  done;
  Alcotest.(check int) "ring keeps capacity" 3 (List.length (Obs.events obs));
  Alcotest.(check int) "dropped counted" 2 (Obs.dropped obs)

(* --- JSONL encoding and validation ------------------------------------ *)

let test_jsonl_escaping () =
  let ev =
    Event.make
      ~payload:
        [
          ("reason", Event.Str "quote \" backslash \\ newline \n tab \t ctrl \x01 done");
          ("lambda", Event.Float 2.0);
        ]
      ~sim_time:1.5 ~wall_time:0.25 "mrt.prune"
  in
  let line = Event.to_jsonl ev in
  Alcotest.(check bool)
    "escaped quote" true
    (T_helpers.contains line {|quote \" backslash \\ newline \n tab \t ctrl \u0001 done|});
  (* The escaped line must itself validate. *)
  match Trace.validate_jsonl line with
  | Ok n -> Alcotest.(check int) "one event" 1 n
  | Error { Trace.line; reason } -> Alcotest.failf "line %d rejected: %s" line reason

let test_jsonl_validation_rejects () =
  (match Trace.validate_jsonl "{\"kind\":\"no.such.kind\",\"t\":0}" with
  | Ok _ -> Alcotest.fail "unknown kind accepted"
  | Error { Trace.reason; _ } ->
    Alcotest.(check bool) "mentions kind" true (T_helpers.contains reason "no.such.kind"));
  (match Trace.validate_jsonl "not json at all" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  match Trace.validate_jsonl "\n\n" with
  | Ok n -> Alcotest.(check int) "blank lines skipped" 0 n
  | Error _ -> Alcotest.fail "blank lines rejected"

let test_jsonl_sink_stream () =
  let path = Filename.temp_file "psched_obs" ".jsonl" in
  let oc = open_out path in
  let obs = Obs.create () in
  Obs.add_sink obs (Obs.Jsonl oc);
  Obs.lambda_guess obs ~lambda:3.0 ~accepted:true;
  Obs.backfill_fill obs ~job:7 ~start:1.0 ~procs:2;
  close_out oc;
  (match Trace.validate_file path with
  | Ok n -> Alcotest.(check int) "two streamed events" 2 n
  | Error { Trace.line; reason } -> Alcotest.failf "line %d: %s" line reason);
  Sys.remove path

let test_vocabulary_closed () =
  List.iter
    (fun kind -> Alcotest.(check bool) (kind ^ " known") true (Event.known kind))
    Event.vocabulary;
  Alcotest.(check bool) "unknown kind" false (Event.known "made.up")

(* --- counters, spans, summaries ---------------------------------------- *)

let test_counters_and_summary () =
  let obs = Obs.create () in
  Obs.Counter.incr obs "mrt/guess/accepted";
  Obs.Counter.add obs "mrt/guess/accepted" 2.0;
  Obs.Counter.incr obs "backfill/filled";
  Obs.Hist.observe obs "queue/wait" 5.0;
  let x = Obs.span obs "mrt.search" (fun () -> Obs.event obs "engine.step"; 41 + 1) in
  Alcotest.(check int) "span returns" 42 x;
  Alcotest.(check (float 1e-9)) "counter sums" 3.0 (Obs.Counter.get obs "mrt/guess/accepted");
  let s = Trace.summarize obs in
  Alcotest.(check int) "span completed" 1
    (match List.assoc_opt "mrt.search" s.Trace.spans with Some (n, _) -> n | None -> 0);
  Alcotest.(check bool) "kinds counted" true
    (List.mem_assoc "engine.step" s.Trace.kinds && List.mem_assoc "span.begin" s.Trace.kinds);
  Alcotest.(check bool) "summary renders" true (String.length (Trace.to_string s) > 0)

let test_null_is_disabled () =
  Alcotest.(check bool) "null disabled" false (Obs.enabled Obs.null);
  (* Emitting through null must be a no-op, not an error. *)
  Obs.lambda_guess Obs.null ~lambda:1.0 ~accepted:false;
  Obs.Counter.incr Obs.null "x/y";
  Alcotest.(check int) "null retains nothing" 0 (List.length (Obs.events Obs.null))

(* --- engine integration ------------------------------------------------ *)

let test_engine_steps_traced () =
  let obs = Obs.create () in
  let e = Psched_sim.Engine.create ~obs () in
  Psched_sim.Engine.at e 1.0 (fun () -> ());
  Psched_sim.Engine.at e 2.0 (fun () -> ());
  Psched_sim.Engine.run e;
  let steps =
    List.filter (fun (ev : Event.t) -> ev.Event.kind = "engine.step") (Obs.events obs)
  in
  Alcotest.(check int) "one step per distinct date" 2 (List.length steps);
  Alcotest.(check (float 1e-9)) "sim time stamped" 2.0
    (match List.rev steps with ev :: _ -> ev.Event.sim_time | [] -> nan)

(* --- the registry ------------------------------------------------------ *)

let feasible_jobs =
  [
    Job.rigid ~id:0 ~procs:2 ~time:4.0 ();
    Job.rigid ~id:1 ~procs:1 ~time:3.0 ~weight:2.0 ();
    Job.moldable ~id:2 ~times:[| 9.0; 5.0; 4.0 |] ();
    Job.rigid ~id:3 ~procs:3 ~time:2.0 ();
  ]

let test_registry_all_policies_ok () =
  List.iter
    (fun name ->
      let reservations =
        if name = "reservation-batches" then
          [ Psched_platform.Reservation.make ~id:0 ~start:100.0 ~duration:5.0 ~procs:2 ]
        else []
      in
      let ctx = Scheduler_intf.ctx ~reservations ~m:4 () in
      match Schedulers.run name ctx feasible_jobs with
      | Ok o ->
        Alcotest.(check int)
          (name ^ " schedules everything")
          4
          o.Scheduler_intf.stats.Scheduler_intf.scheduled
      | Error (Scheduler_intf.Too_wide { m = 1; _ }) when name = "wspt" ->
        (* The single-machine policy rejects jobs it cannot shrink to
           one processor (it used to emit an infeasible m=1 schedule);
           it must still accept the sequential subset. *)
        let narrow =
          List.filter (fun (j : Job.t) -> Job.min_procs j = 1) feasible_jobs
        in
        (match Schedulers.run name ctx narrow with
        | Ok o ->
          Alcotest.(check int) "wspt schedules the narrow subset" (List.length narrow)
            o.Scheduler_intf.stats.Scheduler_intf.scheduled
        | Error e -> Alcotest.failf "wspt on narrow jobs: %s" (Scheduler_intf.error_to_string e))
      | Error e -> Alcotest.failf "%s: %s" name (Scheduler_intf.error_to_string e))
    Schedulers.names

let test_registry_typed_errors () =
  let ctx = Scheduler_intf.ctx ~m:4 () in
  let released = [ Job.rigid ~id:0 ~release:5.0 ~procs:1 ~time:1.0 () ] in
  (* SMART is off-line-only: nonzero release dates are a typed error,
     not an Invalid_argument escape (the historic bug). *)
  (match Schedulers.run "smart" ctx released with
  | Error (Scheduler_intf.Needs_zero_releases { policy; job; release }) ->
    Alcotest.(check string) "policy named" "smart" policy;
    Alcotest.(check int) "job named" 0 job;
    Alcotest.(check (float 0.0)) "release reported" 5.0 release
  | Ok _ -> Alcotest.fail "smart accepted nonzero releases under Honour"
  | Error e -> Alcotest.failf "wrong error: %s" (Scheduler_intf.error_to_string e));
  (* ... and succeeds under releases=Zero. *)
  (match Schedulers.run "smart" (Scheduler_intf.ctx ~releases:Scheduler_intf.Zero ~m:4 ()) released with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "smart under Zero: %s" (Scheduler_intf.error_to_string e));
  (* Too-wide jobs are typed for every policy. *)
  let wide = [ Job.rigid ~id:9 ~procs:8 ~time:1.0 () ] in
  List.iter
    (fun name ->
      if name <> "wspt" && name <> "reservation-batches" then
        match Schedulers.run name ctx wide with
        | Error (Scheduler_intf.Too_wide { job = 9; procs = 8; m = 4; _ }) -> ()
        | Error e -> Alcotest.failf "%s: wrong error %s" name (Scheduler_intf.error_to_string e)
        | Ok _ -> Alcotest.failf "%s accepted an 8-wide job on m=4" name)
    Schedulers.names;
  (* Unknown names come back as data too. *)
  match Schedulers.run "no-such-policy" ctx feasible_jobs with
  | Error (Scheduler_intf.Failure { policy = "no-such-policy"; _ }) -> ()
  | _ -> Alcotest.fail "unknown policy not reported"

let test_registry_needs_reservations () =
  match Schedulers.run "reservation-batches" (Scheduler_intf.ctx ~m:4 ()) feasible_jobs with
  | Error (Scheduler_intf.Needs_reservations _) -> ()
  | Ok _ -> Alcotest.fail "reservation-batches ran without reservations"
  | Error e -> Alcotest.failf "wrong error: %s" (Scheduler_intf.error_to_string e)

(* --- trace transparency ------------------------------------------------ *)

(* The core contract: same ctx modulo the obs handle => byte-identical
   schedule.  Run the policies with the richest instrumentation. *)
let traced_policies =
  [ "mrt"; "bicriteria"; "batch-online"; "smart"; "easy"; "fcfs"; "conservative"; "list-mr" ]

let qcheck_trace_transparency =
  T_helpers.qtest ~count:60 "obs: tracing never changes the schedule" arb_mixed_rel
    (fun (m, jobs) ->
      List.for_all
        (fun name ->
          let run obs =
            Schedulers.run name
              (Scheduler_intf.ctx ~obs ~releases:Scheduler_intf.Zero ~m ())
              jobs
          in
          let plain = run Obs.null in
          let traced = run (Obs.create ~ring_capacity:1024 ()) in
          match (plain, traced) with
          | Ok a, Ok b -> a.Scheduler_intf.schedule = b.Scheduler_intf.schedule
          | Error _, Error _ -> true
          | _ -> false)
        traced_policies)

let qcheck_registry_valid_schedules =
  T_helpers.qtest ~count:60 "registry: schedules validate" arb_moldable (fun (m, jobs) ->
      List.for_all
        (fun name ->
          match
            Schedulers.run name (Scheduler_intf.ctx ~releases:Scheduler_intf.Zero ~m ()) jobs
          with
          | Ok o ->
            let zeroed = List.map (fun (j : Job.t) -> { j with Job.release = 0.0 }) jobs in
            T_helpers.assert_valid ~jobs:zeroed o.Scheduler_intf.schedule
          | Error e ->
            QCheck.Test.fail_reportf "%s rejected a feasible instance: %s" name
              (Scheduler_intf.error_to_string e))
        [ "mrt"; "bicriteria"; "smart"; "easy"; "conservative"; "sjf"; "nfdh" ])

let test_fault_injector_transparent () =
  let jobs = List.map Packing.allocate_rigid feasible_jobs in
  let outages = [ Psched_fault.Outage.make ~start:2.0 ~duration:3.0 ~procs:2 () ] in
  let config =
    { Psched_fault.Injector.m = 4; outages; policy = Psched_fault.Recovery.Restart; backoff = None }
  in
  let plain = Psched_fault.Injector.run config jobs in
  let obs = Obs.create () in
  let traced = Psched_fault.Injector.run ~obs config jobs in
  Alcotest.(check bool) "same schedule" true
    (plain.Psched_fault.Injector.schedule = traced.Psched_fault.Injector.schedule);
  Alcotest.(check bool) "kills traced" true
    (List.exists (fun (ev : Event.t) -> ev.Event.kind = "fault.kill") (Obs.events obs))

let test_export_obs_summary () =
  let obs = Obs.create () in
  Obs.lambda_guess obs ~lambda:2.0 ~accepted:true;
  Obs.Counter.incr obs "mrt/guess/accepted";
  let s = Trace.summarize obs in
  let json = Psched_sim.Export.to_json (Psched_sim.Export.Obs_summary s) in
  let csv = Psched_sim.Export.to_csv (Psched_sim.Export.Obs_summary s) in
  Alcotest.(check bool) "json mentions kind" true (T_helpers.contains json "mrt.guess");
  Alcotest.(check bool) "csv mentions counter" true (T_helpers.contains csv "mrt/guess/accepted")

(* --- metrics time series ------------------------------------------------ *)

module Series = Psched_obs.Series
module Prov = Psched_obs.Provenance

let probe_const ~queue ~t =
  { Series.t; queue_depth = queue; running = 0; deferred = 0; utilisation = 0.5;
    goodput = 1.0; shed = 0; killed = 0; lat_p50 = 1e-5; lat_p99 = 2e-5 }

let test_series_grid () =
  let s = Series.create ~interval:2.0 () in
  Series.tick s ~now:0.0 (probe_const ~queue:1);
  Series.tick s ~now:0.5 (probe_const ~queue:9);
  (* not due: nothing taken *)
  Alcotest.(check int) "one sample after sub-interval tick" 1 (Series.taken s);
  (* a long idle stretch collapses to ONE probe at the last grid point *)
  Series.tick s ~now:11.0 (probe_const ~queue:2);
  Alcotest.(check int) "idle stretch is one probe" 2 (Series.taken s);
  let ts = List.map (fun (x : Series.sample) -> x.Series.t) (Series.samples s) in
  Alcotest.(check (list (float 1e-9))) "grid-aligned timestamps" [ 0.0; 10.0 ] ts;
  Series.tick s ~now:12.0 (probe_const ~queue:3);
  Alcotest.(check int) "next grid point fires" 3 (Series.taken s)

let test_series_jsonl_roundtrip () =
  let s = Series.create ~interval:0.5 ~capacity:8 () in
  List.iter (fun now -> Series.tick s ~now (probe_const ~queue:(int_of_float (now *. 2.0))))
    [ 0.0; 0.5; 1.0; 1.5 ];
  let text = Series.to_jsonl s in
  (match Series.of_jsonl_string text with
  | Error e -> Alcotest.fail e
  | Ok (interval, samples) ->
    Alcotest.(check (float 1e-9)) "interval round-trips" 0.5 interval;
    Alcotest.(check int) "all samples decoded" 4 (List.length samples);
    Alcotest.(check bool) "samples round-trip exactly" true
      (samples = Series.samples s));
  (match Series.of_jsonl_string "{\"schema\":\"other/1\"}\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign schema accepted");
  match Series.of_jsonl_string "{\"t\":1,\"queue\":0}\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing header accepted"

let test_series_sink_and_render () =
  let file = Filename.temp_file "psched" ".series" in
  let oc = open_out file in
  let s = Series.create ~interval:1.0 () in
  Series.attach_sink s oc;
  List.iter (fun now -> Series.tick s ~now (probe_const ~queue:1)) [ 0.0; 1.0; 2.0 ];
  close_out oc;
  let ic = open_in file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  (match Series.of_jsonl_string text with
  | Error e -> Alcotest.fail e
  | Ok (_, samples) -> Alcotest.(check int) "sink streamed every sample" 3 (List.length samples));
  let out = Series.render (Series.samples s) in
  Alcotest.(check bool) "render names the signals" true
    (T_helpers.contains out "queue" && T_helpers.contains out "goodput"
    && T_helpers.contains out "lat p99")

(* --- provenance timelines ----------------------------------------------- *)

let ev ?(payload = []) ~t kind = Event.make ~payload ~sim_time:t ~wall_time:0.0 kind

let test_provenance_policy_dialect () =
  let events =
    [
      ev ~t:0.0 "prov.consider"
        ~payload:[ ("job", Event.Int 1); ("start", Event.Float 0.0); ("procs", Event.Int 2) ];
      ev ~t:0.0 "prov.reject"
        ~payload:[ ("job", Event.Int 1); ("reason", Event.Str "would_delay_head") ];
      ev ~t:0.0 "prov.choice" ~payload:[ ("job", Event.Int 1); ("chosen", Event.Str "backfill") ];
      ev ~t:1.0 "job.start"
        ~payload:[ ("job", Event.Int 1); ("start", Event.Float 1.0); ("procs", Event.Int 2) ];
      ev ~t:4.0 "job.complete" ~payload:[ ("job", Event.Int 1); ("finish", Event.Float 4.0) ];
    ]
  in
  match Prov.of_events events with
  | [ tl ] ->
    Alcotest.(check bool) "completed" true (tl.Prov.outcome = Prov.Completed 4.0);
    Alcotest.(check int) "one candidate considered" 1 tl.Prov.considered;
    Alcotest.(check bool) "rejection reason counted" true
      (tl.Prov.rejections = [ ("would_delay_head", 1) ]);
    Alcotest.(check bool) "explained" true (Prov.explained tl);
    Alcotest.(check bool) "text narrates the choice" true
      (T_helpers.contains (Prov.to_text tl) "backfill");
    Alcotest.(check bool) "json carries the outcome" true
      (T_helpers.contains (Prov.to_json tl) "\"outcome\"")
  | tls -> Alcotest.failf "expected one timeline, got %d" (List.length tls)

let test_provenance_contradictions () =
  (* completes without a start, then starts after completing *)
  let events =
    [
      ev ~t:1.0 "job.complete" ~payload:[ ("job", Event.Int 7); ("finish", Event.Float 1.0) ];
      ev ~t:2.0 "job.start"
        ~payload:[ ("job", Event.Int 7); ("start", Event.Float 2.0); ("procs", Event.Int 1) ];
    ]
  in
  (match Prov.of_events events with
  | [ tl ] ->
    Alcotest.(check bool) "contradictions recorded" true (tl.Prov.contradictions <> []);
    Alcotest.(check bool) "not explained" false (Prov.explained tl)
  | _ -> Alcotest.fail "expected one timeline");
  (* a placed-only trace: unexplained when completions are expected,
     fine when the dialect never records them *)
  let placed =
    [ ev ~t:0.0 "job.start"
        ~payload:[ ("job", Event.Int 3); ("start", Event.Float 0.0); ("procs", Event.Int 1) ] ]
  in
  match Prov.of_events placed with
  | [ tl ] ->
    Alcotest.(check bool) "placed is not terminal by default" false (Prov.explained tl);
    Alcotest.(check bool) "placed is terminal for start-only dialects" true
      (Prov.explained ~terminal_placed:true tl);
    Alcotest.(check bool) "incomplete traces never block" true (Prov.explained ~complete:false tl)
  | _ -> Alcotest.fail "expected one timeline"

let test_provenance_serve_dialect () =
  let events =
    [
      ev ~t:0.0 "serve.admit" ~payload:[ ("job", Event.Int 4); ("community", Event.Int 2) ];
      ev ~t:0.5 "job.start"
        ~payload:[ ("job", Event.Int 4); ("start", Event.Float 0.5); ("procs", Event.Int 1) ];
      ev ~t:1.0 "serve.decide"
        ~payload:[ ("job", Event.Int 4); ("start", Event.Float 1.0); ("procs", Event.Int 1) ];
      ev ~t:2.0 "fault.kill" ~payload:[ ("job", Event.Int 4); ("attempt", Event.Int 1) ];
      ev ~t:3.0 "serve.admit" ~payload:[ ("job", Event.Int 4) ];
      ev ~t:4.0 "serve.decide"
        ~payload:[ ("job", Event.Int 4); ("start", Event.Float 4.0); ("procs", Event.Int 1) ];
      ev ~t:9.0 "serve.complete" ~payload:[ ("job", Event.Int 4); ("finish", Event.Float 9.0) ];
      ev ~t:0.0 "serve.admit" ~payload:[ ("job", Event.Int 5); ("community", Event.Int 1) ];
      ev ~t:0.1 "serve.shed" ~payload:[ ("job", Event.Int 5); ("reason", Event.Str "reject") ];
    ]
  in
  Alcotest.(check bool) "dialect detected" true (Prov.serve_style events);
  let tls = Prov.of_events events in
  Alcotest.(check int) "two jobs" 2 (List.length tls);
  (match Prov.find 4 tls with
  | Some tl ->
    Alcotest.(check bool) "kill then completion resolves" true
      (tl.Prov.outcome = Prov.Completed 9.0 && tl.Prov.contradictions = []);
    Alcotest.(check bool) "inner job.start demoted to a planning step" true
      (List.exists (fun (s : Prov.step) -> s.Prov.label = "planned") tl.Prov.steps)
  | None -> Alcotest.fail "job 4 missing");
  (match Prov.find 5 tls with
  | Some tl ->
    Alcotest.(check bool) "terminal shed with cause" true (tl.Prov.outcome = Prov.Shed "reject");
    Alcotest.(check bool) "class recorded" true (tl.Prov.community = Some 1)
  | None -> Alcotest.fail "job 5 missing");
  let summary = Prov.summary tls in
  Alcotest.(check bool) "summary breaks shed causes out by class" true
    (T_helpers.contains summary "reject");
  Alcotest.(check int) "all explained" 0 (List.length (Prov.unexplained tls))

let suite =
  [
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "ring partial" `Quick test_ring_partial;
    Alcotest.test_case "obs ring drops" `Quick test_obs_ring_drops;
    Alcotest.test_case "jsonl escaping" `Quick test_jsonl_escaping;
    Alcotest.test_case "jsonl validation rejects" `Quick test_jsonl_validation_rejects;
    Alcotest.test_case "jsonl sink streams" `Quick test_jsonl_sink_stream;
    Alcotest.test_case "vocabulary closed" `Quick test_vocabulary_closed;
    Alcotest.test_case "counters and summary" `Quick test_counters_and_summary;
    Alcotest.test_case "null handle disabled" `Quick test_null_is_disabled;
    Alcotest.test_case "engine steps traced" `Quick test_engine_steps_traced;
    Alcotest.test_case "registry runs every policy" `Quick test_registry_all_policies_ok;
    Alcotest.test_case "registry typed errors" `Quick test_registry_typed_errors;
    Alcotest.test_case "registry needs reservations" `Quick test_registry_needs_reservations;
    qcheck_trace_transparency;
    qcheck_registry_valid_schedules;
    Alcotest.test_case "fault injector transparent" `Quick test_fault_injector_transparent;
    Alcotest.test_case "export obs summary" `Quick test_export_obs_summary;
    Alcotest.test_case "series: grid sampling" `Quick test_series_grid;
    Alcotest.test_case "series: jsonl round-trip" `Quick test_series_jsonl_roundtrip;
    Alcotest.test_case "series: sink and render" `Quick test_series_sink_and_render;
    Alcotest.test_case "provenance: policy dialect" `Quick test_provenance_policy_dialect;
    Alcotest.test_case "provenance: contradictions" `Quick test_provenance_contradictions;
    Alcotest.test_case "provenance: serve dialect" `Quick test_provenance_serve_dialect;
  ]
