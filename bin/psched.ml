(* psched: command-line driver for the scheduling-policy library.

   Sub-commands regenerate the paper's figure and tables, inspect the
   built-in platforms, and run one-off simulations of each policy. *)

open Cmdliner
open Psched_workload
open Psched_core
open Psched_sim

(* ------------------------------------------------------------- fig2 *)

let fig2_cmd =
  let run quick m seeds domains =
    let ns = if quick then Some [ 50; 100; 200; 400; 700; 1000 ] else None in
    let result = Psched_experiments.Fig2.run ~domains ~m ~seeds ?ns () in
    print_string (Psched_experiments.Fig2.to_string result)
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Fewer task counts for a fast run.")
  in
  let m = Arg.(value & opt int 100 & info [ "m" ] ~doc:"Cluster size (the paper uses 100).") in
  let seeds = Arg.(value & opt int 3 & info [ "seeds" ] ~doc:"Seeds averaged per point.") in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains sharding the replications (1 = sequential; the output is \
                   identical for every value).")
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Regenerate Figure 2 (bi-criteria ratios vs number of tasks).")
    Term.(const run $ quick $ m $ seeds $ jobs)

(* ------------------------------------------------------------ tables *)

let table_names =
  [ "mrt"; "online"; "smart"; "bicriteria"; "dlt"; "grid"; "multicluster"; "mix"; "delay"; "stretch"; "tardiness";
    "multires" ]

let table_of_name = function
  | "mrt" -> Psched_experiments.Tables.mrt ()
  | "online" -> Psched_experiments.Tables.online ()
  | "smart" -> Psched_experiments.Tables.smart ()
  | "bicriteria" -> Psched_experiments.Tables.bicriteria ()
  | "dlt" -> Psched_experiments.Tables.dlt ()
  | "grid" -> Psched_experiments.Tables.grid ()
  | "multicluster" -> Psched_experiments.Tables.multicluster ()
  | "mix" -> Psched_experiments.Tables.mix ()
  | "delay" -> Psched_experiments.Tables.delay_model ()
  | "stretch" -> Psched_experiments.Tables.stretch ()
  | "tardiness" -> Psched_experiments.Tables.tardiness ()
  | "multires" -> Psched_experiments.Tables.multires ()
  | other -> Printf.sprintf "unknown table %S (try: %s)" other (String.concat ", " table_names)

let ablations_cmd =
  let studies = Psched_experiments.Ablations.studies in
  let run = function
    | [] ->
      List.iter
        (fun (id, text) -> Printf.printf "== %s ==\n%s\n\n" id text)
        (Psched_experiments.Ablations.all ())
    | ids ->
      List.iter
        (fun id ->
          match List.assoc_opt id studies with
          | Some study -> Printf.printf "%s\n\n" (study ())
          | None ->
            Printf.eprintf "unknown ablation %S (try: %s)\n" id
              (String.concat ", " (List.map fst studies));
            exit 1)
        ids
  in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Ablations to print, by id (default all).")
  in
  Cmd.v
    (Cmd.info "ablations" ~doc:"Run the ablation studies (design-choice sweeps).")
    Term.(const run $ ids)

let tables_cmd =
  let run names =
    match names with
    | [] ->
      List.iter
        (fun (id, text) -> Printf.printf "== %s ==\n%s\n\n" id text)
        (Psched_experiments.Tables.all ())
    | names -> List.iter (fun n -> Printf.printf "%s\n\n" (table_of_name n)) names
  in
  let names =
    Arg.(value & pos_all string [] & info [] ~docv:"TABLE" ~doc:"Tables to print (default all).")
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the empirical tables (see DESIGN.md section 4).")
    Term.(const run $ names)

(* ---------------------------------------------------------- platform *)

let platform_cmd =
  let run () =
    let p = Psched_platform.Platform.ciment in
    Format.printf "%a@." Psched_platform.Platform.pp p;
    Format.printf "@.%a@." Psched_platform.Platform.pp Psched_platform.Platform.light_grid_example
  in
  Cmd.v
    (Cmd.info "platform" ~doc:"Show the built-in platform descriptions (Figures 1 and 3).")
    Term.(const run $ const ())

(* ---------------------------------------------------------- simulate *)

let gen_jobs ~n ~m ~seed ~rate =
  let rng = Psched_util.Rng.create seed in
  let jobs = Workload_gen.moldable_uniform rng ~n ~m ~tmin:1.0 ~tmax:100.0 in
  if rate > 0.0 then Workload_gen.with_poisson_arrivals rng ~rate jobs else jobs

(* Run a registry policy; off-line-only policies silently fall back to
   the zero-release view (the historic `psched simulate` behaviour),
   reporting that the fallback happened. *)
let run_registry ~obs ~policy ~m jobs =
  let ctx releases = Scheduler_intf.ctx ~obs ~releases ~m () in
  match Schedulers.run policy (ctx Scheduler_intf.Honour) jobs with
  | Ok o -> Ok (o, false)
  | Error (Scheduler_intf.Needs_zero_releases _) -> (
    match Schedulers.run policy (ctx Scheduler_intf.Zero) jobs with
    | Ok o -> Ok (o, true)
    | Error e -> Error e)
  | Error e -> Error e

let simulate_with_obs ~obs ~policy ~n ~m ~seed ~rate =
  let jobs = gen_jobs ~n ~m ~seed ~rate in
  match run_registry ~obs ~policy ~m jobs with
  | Error e ->
    Printf.eprintf "%s\n(known policies: %s)\n"
      (Scheduler_intf.error_to_string e)
      (String.concat ", " Schedulers.names);
    exit 1
  | Ok (outcome, stripped) ->
    let used_jobs =
      if stripped then List.map (fun (j : Job.t) -> { j with release = 0.0 }) jobs else jobs
    in
    let sched = outcome.Scheduler_intf.schedule in
    Validate.check_exn ~jobs:used_jobs sched;
    let metrics = Metrics.compute ~jobs:used_jobs sched in
    Format.printf "policy=%s n=%d m=%d seed=%d@." policy n m seed;
    if stripped then
      Format.printf "note: off-line policy, release dates stripped (releases=Zero)@.";
    Format.printf "%a@." Metrics.pp metrics;
    Format.printf "Cmax lower bound: %g (ratio %.3f)@."
      (Lower_bounds.cmax ~m used_jobs)
      (Schedule.makespan sched /. Lower_bounds.cmax ~m used_jobs);
    Format.printf "sum wC lower bound: %g (ratio %.3f)@."
      (Lower_bounds.sum_weighted_completion ~m used_jobs)
      (metrics.Metrics.sum_weighted_completion /. Lower_bounds.sum_weighted_completion ~m used_jobs);
    outcome

let policy_arg =
  Arg.(value & opt string "bicriteria"
       & info [ "policy" ] ~doc:"Registry policy name (see $(b,psched policies)).")

let n_arg = Arg.(value & opt int 100 & info [ "n" ] ~doc:"Number of jobs.")
let m_arg = Arg.(value & opt int 64 & info [ "m" ] ~doc:"Processors.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.")

let rate_arg =
  Arg.(value & opt float 0.0 & info [ "rate" ] ~doc:"Poisson arrival rate (0 = all at time 0).")

let simulate_cmd =
  let run policy n m seed rate =
    ignore (simulate_with_obs ~obs:Psched_obs.Obs.null ~policy ~n ~m ~seed ~rate)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one policy on a synthetic workload and print all criteria.")
    Term.(const run $ policy_arg $ n_arg $ m_arg $ seed_arg $ rate_arg)

(* ----------------------------------------------------------- profile *)

let profile_cmd =
  let run policy n m seed rate repeats min_calls folded prom =
    let obs = Psched_obs.Obs.create ~ring_capacity:1024 () in
    (* Sys.time ticks at ~1ms on some hosts; profiling wants the
       microsecond wall clock. *)
    Psched_obs.Obs.set_wall_clock obs Unix.gettimeofday;
    let jobs = gen_jobs ~n ~m ~seed ~rate in
    for _ = 1 to repeats do
      match run_registry ~obs ~policy ~m jobs with
      | Error e ->
        Printf.eprintf "%s\n(known policies: %s)\n"
          (Scheduler_intf.error_to_string e)
          (String.concat ", " Schedulers.names);
        exit 1
      | Ok _ -> ()
    done;
    Printf.printf "policy=%s n=%d m=%d seed=%d runs=%d\n\n" policy n m seed repeats;
    print_string (Psched_obs.Profiler.table ~min_calls obs);
    let write path content what =
      match path with
      | None -> ()
      | Some p ->
        let oc = open_out p in
        output_string oc content;
        close_out oc;
        Printf.printf "wrote %s (%s)\n" p what
    in
    write folded (Psched_obs.Profiler.folded obs) "folded stacks";
    write prom (Psched_obs.Profiler.prometheus obs) "prometheus exposition"
  in
  let repeats =
    Arg.(value & opt int 10 & info [ "repeats" ] ~doc:"Scheduler runs accumulated into the table.")
  in
  let min_calls =
    Arg.(value & opt int 1 & info [ "min-calls" ] ~doc:"Hide phases with fewer completed spans.")
  in
  let folded =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"Write folded stacks (flamegraph.pl input, self-time in microseconds).")
  in
  let prom =
    Arg.(value & opt (some string) None
         & info [ "prometheus" ] ~docv:"FILE"
             ~doc:"Write every counter/timer/histogram/span as a Prometheus text exposition.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Per-phase cost table for one policy: hierarchical spans with call counts, \
             total/self wall time and GC allocation attribution.")
    Term.(const run $ policy_arg $ n_arg $ m_arg $ seed_arg $ rate_arg $ repeats $ min_calls
          $ folded $ prom)

(* ------------------------------------------------------------- bench *)

let bench_diff_cmd =
  let module B = Psched_obs.Bench_report in
  let run old_path new_path =
    let load path = function
      | Ok x -> x
      | Error (B.Unreadable msg) ->
        (* The system's message already names the file. *)
        prerr_endline msg;
        exit 2
      | Error e ->
        Printf.eprintf "%s: %s\n" path (B.error_to_string e);
        exit 2
    in
    let spec = load "BENCHMARK.json" (B.load_spec "BENCHMARK.json") in
    let old_runs = load old_path (B.load old_path) in
    let new_runs = load new_path (B.load new_path) in
    let d = B.diff spec old_runs new_runs in
    print_string (B.render d);
    if d.B.failures > 0 then exit 1
  in
  let old_path = Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD") in
  let new_path = Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW") in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two sets of perfbench results (one JSON line per workload and trace, see \
          $(b,make bench-diff)) against the metrics of BENCHMARK.json in the current \
          directory.  Exits 1 when a run failed its checks or is missing, an exact metric \
          changed, or an end-to-end metric is worse past the fixed factor; 2 on unreadable \
          input.")
    Term.(const run $ old_path $ new_path)

let bench_cmd =
  Cmd.group
    (Cmd.info "bench" ~doc:"Benchmark regression gate over perfbench results.")
    [ bench_diff_cmd ]

(* ---------------------------------------------------------- policies *)

let policies_cmd =
  let run () =
    let width =
      List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 Schedulers.docs
    in
    List.iter
      (fun (name, doc) -> Printf.printf "%-*s  %s\n" width name doc)
      Schedulers.docs
  in
  Cmd.v
    (Cmd.info "policies" ~doc:"List the scheduler registry (names usable with --policy).")
    Term.(const run $ const ())

(* ------------------------------------------------------------- trace *)

let trace_simulate_cmd =
  let run policy n m seed rate out format summary =
    let obs = Psched_obs.Obs.create () in
    let oc = if out = "-" then stdout else open_out out in
    let sink =
      match format with
      | "csv" -> Psched_obs.Obs.Csv oc
      | _ -> Psched_obs.Obs.Jsonl oc
    in
    Psched_obs.Obs.add_sink obs sink;
    let outcome = simulate_with_obs ~obs ~policy ~n ~m ~seed ~rate in
    if out <> "-" then close_out oc;
    if summary then begin
      match outcome.Scheduler_intf.trace with
      | Some s -> Format.printf "@.%a@." Psched_obs.Trace.pp s
      | None -> ()
    end;
    if out <> "-" then
      Format.printf "trace written to %s (%d events retained, %d dropped)@." out
        (List.length (Psched_obs.Obs.events obs))
        (Psched_obs.Obs.dropped obs)
  in
  let out =
    Arg.(value & opt string "trace.jsonl"
         & info [ "trace"; "o" ] ~docv:"FILE" ~doc:"Output file ('-' for stdout).")
  in
  let format =
    Arg.(value & opt string "jsonl" & info [ "format" ] ~doc:"jsonl | csv")
  in
  let summary =
    Arg.(value & flag & info [ "summary" ] ~doc:"Print the trace digest after the run.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a policy with tracing enabled, streaming events to a JSONL/CSV file.")
    Term.(const run $ policy_arg $ n_arg $ m_arg $ seed_arg $ rate_arg $ out $ format $ summary)

let trace_check_cmd =
  let run files =
    let failed = ref false in
    List.iter
      (fun file ->
        match Psched_obs.Trace.validate_file file with
        | Ok n -> Printf.printf "%s: ok (%d events)\n" file n
        | Error { Psched_obs.Trace.line; reason } ->
          failed := true;
          Printf.printf "%s:%d: %s\n" file line reason)
      files;
    if !failed then exit 1
  in
  let files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc:"JSONL trace files.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Validate JSONL traces against the event vocabulary.")
    Term.(const run $ files)

let trace_gantt_cmd =
  let run file m_override svg width =
    match Psched_obs.Trace.events_of_file file with
    | Error { Psched_obs.Trace.line; reason } ->
      Printf.eprintf "%s:%d: %s\n" file line reason;
      exit 1
    | Ok events ->
      let num payload k =
        match List.assoc_opt k payload with
        | Some (Psched_obs.Event.Float f) -> Some f
        | Some (Psched_obs.Event.Int i) -> Some (float_of_int i)
        | _ -> None
      in
      let int payload k =
        match List.assoc_opt k payload with
        | Some (Psched_obs.Event.Int i) -> Some i
        | _ -> None
      in
      let starts = Hashtbl.create 64 and finishes = Hashtbl.create 64 in
      let horizon = ref 0.0 in
      (* Disrupted fates: killed and shed jobs straight from their
         events, outage windows collected to mark clipped survivors. *)
      let killed = ref [] and shed = ref [] and outages = ref [] in
      List.iter
        (fun (e : Psched_obs.Event.t) ->
          horizon := Float.max !horizon e.Psched_obs.Event.sim_time;
          let p = e.Psched_obs.Event.payload in
          match e.Psched_obs.Event.kind with
          | "job.start" | "serve.decide" -> (
            match (int p "job", num p "start", int p "procs") with
            | Some j, Some s, Some k ->
              Hashtbl.replace starts j (s, k);
              horizon := Float.max !horizon s
            | _ -> ())
          | "job.complete" | "serve.complete" -> (
            match (int p "job", num p "finish") with
            | Some j, Some f ->
              Hashtbl.replace finishes j f;
              horizon := Float.max !horizon f
            | _ -> ())
          | "fault.kill" -> (
            match int p "job" with Some j -> killed := j :: !killed | None -> ())
          | "serve.shed" -> (
            match int p "job" with Some j -> shed := j :: !shed | None -> ())
          | "outage.down" -> (
            let start =
              Option.value ~default:e.Psched_obs.Event.sim_time (num p "start")
            in
            match num p "duration" with
            | Some d -> outages := (start, start +. d) :: !outages
            | None -> ())
          | _ -> ())
        events;
      if Hashtbl.length starts = 0 then begin
        Printf.eprintf "%s: no job.start events, nothing to draw\n" file;
        exit 1
      end;
      (* Jobs without a completion event (policies that only emit
         starts) run to the trace horizon. *)
      let entries =
        Hashtbl.fold
          (fun j (s, procs) acc ->
            let finish =
              match Hashtbl.find_opt finishes j with Some f -> f | None -> !horizon
            in
            { Schedule.job_id = j; start = s; duration = Float.max 0.0 (finish -. s); procs;
              cluster = 0 }
            :: acc)
          starts []
      in
      let m =
        match m_override with
        | Some m -> m
        | None ->
          (* Peak concurrency: ends sort before coincident starts, so
             back-to-back jobs don't double-count. *)
          let edges =
            List.concat_map
              (fun (e : Schedule.entry) ->
                [ (e.Schedule.start, e.Schedule.procs);
                  (Schedule.completion e, -e.Schedule.procs) ])
              entries
          in
          let _, peak =
            List.fold_left
              (fun (cur, peak) (_, d) -> (cur + d, max peak (cur + d)))
              (0, 1)
              (List.sort compare edges)
          in
          peak
      in
      let sched = Schedule.make ~m entries in
      let killed = List.sort_uniq compare !killed in
      let clipped =
        (* Survivors overlapping an outage window; a kill outranks. *)
        List.filter_map
          (fun (e : Schedule.entry) ->
            if List.mem e.Schedule.job_id killed then None
            else if
              List.exists
                (fun (o0, o1) -> e.Schedule.start < o1 && Schedule.completion e > o0)
                !outages
            then Some e.Schedule.job_id
            else None)
          entries
        |> List.sort_uniq compare
      in
      let marks =
        List.map (fun j -> (j, Gantt.Killed)) killed
        @ List.map (fun j -> (j, Gantt.Clipped)) clipped
        @ List.map (fun j -> (j, Gantt.Shed)) (List.sort_uniq compare !shed)
      in
      match svg with
      | Some out ->
        let oc = open_out out in
        output_string oc (Gantt.render_svg ~width ~marks sched);
        close_out oc;
        Printf.printf "wrote %s (%d jobs, %d lanes)\n" out (List.length entries) m
      | None -> print_string (Gantt.render ~max_rows:(min m 32) ~marks sched)
  in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Saved JSONL trace.")
  in
  let m_override =
    Arg.(value & opt (some int) None
         & info [ "m" ] ~doc:"Lane count (default: the trace's peak concurrency).")
  in
  let svg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG timeline instead of ASCII output.")
  in
  let width = Arg.(value & opt int 960 & info [ "width" ] ~doc:"SVG width in pixels.") in
  Cmd.v
    (Cmd.info "gantt"
       ~doc:"Rebuild a timeline from a saved trace's job.start/job.complete events and render \
             it as ASCII or SVG.")
    Term.(const run $ file $ m_override $ svg $ width)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Traced runs and trace validation (the observability layer).")
    [ trace_simulate_cmd; trace_check_cmd; trace_gantt_cmd ]

(* ------------------------------------------------------------ workload *)

let workload_cmd =
  let run n m seed rate kind out =
    let rng = Psched_util.Rng.create seed in
    let jobs =
      match kind with
      | "rigid" -> Workload_gen.rigid_uniform rng ~n ~m ~tmin:1.0 ~tmax:100.0
      | "moldable" -> Workload_gen.moldable_uniform rng ~n ~m ~tmin:1.0 ~tmax:100.0
      | "fig2-parallel" -> Workload_gen.fig2_parallel rng ~n ~m
      | "fig2-sequential" -> Workload_gen.fig2_nonparallel rng ~n
      | "communities" ->
        Workload_gen.community_stream rng ~horizon:(24.0 *. 3600.0)
          ~profiles:
            [
              Workload_gen.physicists ~community:0 ~m;
              Workload_gen.cs_debug ~community:1 ~m;
              Workload_gen.parametric_users ~community:2;
            ]
      | other ->
        Printf.eprintf "unknown workload kind %S\n" other;
        exit 1
    in
    let jobs = if rate > 0.0 then Workload_gen.with_poisson_arrivals rng ~rate jobs else jobs in
    Format.printf "%a@." Analyze.pp (Analyze.profile jobs);
    match out with
    | Some path ->
      Swf.save path jobs;
      Format.printf "wrote SWF trace to %s@." path
    | None -> ()
  in
  let n = Arg.(value & opt int 100 & info [ "n" ] ~doc:"Number of jobs.") in
  let m = Arg.(value & opt int 64 & info [ "m" ] ~doc:"Target cluster size.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let rate = Arg.(value & opt float 0.0 & info [ "rate" ] ~doc:"Poisson arrival rate.") in
  let kind =
    Arg.(value & opt string "moldable"
         & info [ "kind" ]
             ~doc:"rigid | moldable | fig2-parallel | fig2-sequential | communities")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "swf" ] ~doc:"Write the workload as an SWF trace.")
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Generate and characterise a workload; optionally export SWF.")
    Term.(const run $ n $ m $ seed $ rate $ kind $ out)

(* ------------------------------------------------------------ gantt *)

let gantt_cmd =
  let run policy n m seed =
    let rng = Psched_util.Rng.create seed in
    let jobs = Workload_gen.moldable_uniform rng ~n ~m ~tmin:1.0 ~tmax:100.0 in
    let sched =
      match policy with
      | "mrt" -> Mrt.schedule ~m jobs
      | "bicriteria" -> Bicriteria.schedule ~m jobs
      | "smart" ->
        Smart.schedule ~m (Moldable_alloc.allocate (Moldable_alloc.work_bounded ~m ~delta:0.25) jobs)
      | _ ->
        Printf.eprintf "unknown policy %S (mrt | bicriteria | smart)\n" policy;
        exit 1
    in
    Validate.check_exn ~jobs sched;
    print_string (Gantt.render ~max_rows:(min m 32) sched)
  in
  let policy = Arg.(value & opt string "mrt" & info [ "policy" ] ~doc:"mrt | bicriteria | smart") in
  let n = Arg.(value & opt int 20 & info [ "n" ] ~doc:"Jobs.") in
  let m = Arg.(value & opt int 16 & info [ "m" ] ~doc:"Processors.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed.") in
  Cmd.v
    (Cmd.info "gantt" ~doc:"Draw a policy's schedule as an ASCII Gantt chart.")
    Term.(const run $ policy $ n $ m $ seed)

(* ------------------------------------------------------------ grid ops *)

(* Shared --jobs flag: worker domains for the Pool-sharded sections.
   Results are identical whatever the value (1 = fully sequential). *)
let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for the parallel sections (1 = sequential; the output is \
                 identical for every value).")

let grid_cmd =
  let run n seed policy domains =
    let rng = Psched_util.Rng.create seed in
    let jobs =
      List.init n (fun id ->
          let community = Psched_util.Rng.int rng 4 in
          let time = Psched_util.Rng.uniform rng 20.0 400.0 in
          let procs = 1 + Psched_util.Rng.int rng 16 in
          Job.rigid ~community ~id ~procs ~time ())
      |> Workload_gen.with_poisson_arrivals rng ~rate:0.05
    in
    let p =
      match policy with
      | "independent" -> Psched_grid.Multi_cluster.Independent
      | "centralized" -> Psched_grid.Multi_cluster.Centralized
      | "exchange" -> Psched_grid.Multi_cluster.Exchange { threshold = 1.5 }
      | other ->
        Printf.eprintf "unknown policy %S (independent | centralized | exchange)\n" other;
        exit 1
    in
    let o =
      Psched_grid.Multi_cluster.simulate ~domains p ~grid:Psched_platform.Platform.ciment ~jobs
    in
    Format.printf "policy=%s Cmax=%.0f mean-flow=%.0f fairness=%.3f migrations=%d@." policy
      o.Psched_grid.Multi_cluster.makespan o.Psched_grid.Multi_cluster.mean_flow
      o.Psched_grid.Multi_cluster.fairness o.Psched_grid.Multi_cluster.migrations;
    List.iter
      (fun ((c : Psched_platform.Platform.cluster), sched) ->
        Format.printf "  %-28s %4d jobs, util %.3f@." c.Psched_platform.Platform.name
          (List.length sched.Psched_sim.Schedule.entries)
          (Psched_sim.Schedule.utilisation sched))
      o.Psched_grid.Multi_cluster.per_cluster
  in
  let n = Arg.(value & opt int 200 & info [ "n" ] ~doc:"Jobs.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed.") in
  let policy =
    Arg.(value & opt string "centralized"
         & info [ "policy" ] ~doc:"independent | centralized | exchange")
  in
  Cmd.v
    (Cmd.info "grid" ~doc:"Simulate multi-cluster placement on the CIMENT platform (S5.2).")
    Term.(const run $ n $ seed $ policy $ jobs_arg)

let resilience_cmd =
  let run n m seed rate =
    let rng = Psched_util.Rng.create seed in
    let jobs =
      Workload_gen.rigid_uniform rng ~n ~m ~tmin:5.0 ~tmax:50.0
      |> Workload_gen.with_poisson_arrivals rng ~rate:0.1
      |> List.map Packing.allocate_rigid
    in
    let outages =
      Psched_grid.Resilience.poisson_outages rng ~horizon:2000.0 ~rate ~mean_duration:60.0
        ~max_procs:(m / 2)
    in
    let o = Psched_grid.Resilience.simulate ~m ~outages jobs in
    Format.printf "outages=%d restarts=%d wasted=%.0f proc.s Cmax=%.0f@." (List.length outages)
      o.Psched_grid.Resilience.restarts o.Psched_grid.Resilience.wasted_work
      o.Psched_grid.Resilience.makespan
  in
  let n = Arg.(value & opt int 60 & info [ "n" ] ~doc:"Jobs.") in
  let m = Arg.(value & opt int 32 & info [ "m" ] ~doc:"Processors.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed.") in
  let rate = Arg.(value & opt float 0.01 & info [ "outage-rate" ] ~doc:"Outages per second.") in
  Cmd.v
    (Cmd.info "resilience" ~doc:"Node-outage injection with kill and restart (S1.1 versatility).")
    Term.(const run $ n $ m $ seed $ rate)

let fault_cmd =
  let run n m seed rates cost domains out =
    let rates =
      match rates with
      | [] -> Psched_fault.Robustness.default_rates
      | l -> List.sort compare l
    in
    let table =
      Psched_fault.Robustness.degradation ~rates ~n ~m ~checkpoint_cost:cost ~domains ~seed ()
    in
    print_string (Psched_fault.Robustness.to_string table);
    match out with
    | None -> ()
    | Some path ->
      Psched_sim.Export.save path (Psched_fault.Robustness.to_json table);
      Format.printf "wrote %s@." path
  in
  let n = Arg.(value & opt int 40 & info [ "n" ] ~doc:"Jobs.") in
  let m = Arg.(value & opt int 32 & info [ "m" ] ~doc:"Processors.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed.") in
  let rates =
    Arg.(value & opt (list float) [] & info [ "rates" ] ~doc:"Outage rates (per second).")
  in
  let cost =
    Arg.(value & opt float 1.0 & info [ "checkpoint-cost" ] ~doc:"Checkpoint write cost (s).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Write the table as JSON.")
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:
         "Robustness degradation table: outage rates x recovery policies (none | restart | \
          checkpoint at the Young/Daly period) x resubmission backoff.")
    Term.(const run $ n $ m $ seed $ rates $ cost $ jobs_arg $ out)

(* --------------------------------------------------------------- dlt *)

let dlt_cmd =
  let run load workers z rounds =
    let ws = Psched_dlt.Worker.bus ~z (List.init workers (fun _ -> 1.0)) in
    let single = Psched_dlt.Star.schedule ~load ws in
    Format.printf "single round: makespan %g@." single.Psched_dlt.Star.makespan;
    List.iter
      (fun (w, a) ->
        Format.printf "  worker %d gets %.4f@." w.Psched_dlt.Worker.id a)
      single.Psched_dlt.Star.alphas;
    let multi = Psched_dlt.Multiround.simulate ~load ~rounds ws in
    Format.printf "%d rounds: makespan %g@." rounds multi.Psched_dlt.Multiround.makespan;
    let best = Psched_dlt.Multiround.best_rounds ~load ws in
    Format.printf "best rounds: R=%d makespan %g@." best.Psched_dlt.Multiround.rounds
      best.Psched_dlt.Multiround.makespan
  in
  let load = Arg.(value & opt float 1000.0 & info [ "load" ] ~doc:"Total load (units).") in
  let workers = Arg.(value & opt int 8 & info [ "workers" ] ~doc:"Bus workers.") in
  let z = Arg.(value & opt float 0.2 & info [ "z" ] ~doc:"Communication time per unit.") in
  let rounds = Arg.(value & opt int 4 & info [ "rounds" ] ~doc:"Rounds for the multi-round run.") in
  Cmd.v
    (Cmd.info "dlt" ~doc:"Divisible-load distribution on a bus platform.")
    Term.(const run $ load $ workers $ z $ rounds)

(* -------------------------------------------------------------- serve *)

let serve_run_cmd =
  let module Serve = Psched_serve in
  let shed_conv =
    let parse s =
      match String.split_on_char ':' (String.lowercase_ascii s) with
      | [ "reject" ] -> Ok Serve.Admission.Reject
      | [ "degrade" ] -> Ok Serve.Admission.Degrade
      | [ "defer" ] -> Ok (Serve.Admission.Defer { delay = 5.0 })
      | [ "defer"; d ] -> (
        match float_of_string_opt d with
        | Some delay when delay > 0.0 -> Ok (Serve.Admission.Defer { delay })
        | _ -> Error (`Msg "defer delay must be a positive number"))
      | _ -> Error (`Msg "expected reject, degrade or defer[:SECS]")
    in
    let print ppf = function
      | Serve.Admission.Reject -> Format.pp_print_string ppf "reject"
      | Serve.Admission.Degrade -> Format.pp_print_string ppf "degrade"
      | Serve.Admission.Defer { delay } -> Format.fprintf ppf "defer:%g" delay
    in
    Arg.conv (parse, print)
  in
  let run policy m rate count seed swf burst batch round_every cap shed deadline latency_high
      latency_low wal sync snapshot snapshot_every fault_rate fault_mean fault_horizon port
      throttle duration recover series_every series_out =
    let mode =
      if policy = "greedy" then Serve.Daemon.Greedy else Serve.Daemon.Registry policy
    in
    (match mode with
    | Serve.Daemon.Registry name when not (List.mem_assoc name Schedulers.docs) ->
      Printf.eprintf "unknown policy %s (see psched policies; greedy is the default rule)\n"
        name;
      exit 1
    | _ -> ());
    let arrivals =
      match swf with
      | Some file -> (
        match Serve.Arrivals.of_swf file with
        | Error e ->
          Printf.eprintf "%s\n" e;
          exit 1
        | Ok (t, warnings) ->
          (* Hard warnings (skipped lines) print individually; soft
             ones (jobs kept without a memory column) are routine on
             archive traces and collapse into one summary line. *)
          let soft, hard = List.partition (fun w -> Swf.is_soft w.Swf.problem) warnings in
          List.iter (fun w -> Printf.eprintf "%s: %s\n" file (Swf.warning_to_string w)) hard;
          if soft <> [] then
            Printf.eprintf "%s: %d job(s) without requested memory; kept with zero demand\n"
              file (List.length soft);
          t)
      | None -> (
        match burst with
        | Some (period, width, factor) ->
          Serve.Arrivals.burst ~m ~rate ~period ~width ~factor ~seed ~count ()
        | None -> Serve.Arrivals.poisson ~m ~rate ~seed ~count ())
    in
    let outages =
      if fault_rate <= 0.0 then []
      else
        let horizon =
          if fault_horizon > 0.0 then fault_horizon
          else if swf = None && count > 0 then
            (float_of_int count /. rate *. 1.5) +. 100.0
          else 10_000.0
        in
        Psched_fault.Generator.poisson
          (Psched_util.Rng.create (seed + 1))
          ~horizon ~rate:fault_rate ~mean_duration:fault_mean
          ~width:(Psched_fault.Generator.Uniform (max 1 (m / 4)))
          ()
    in
    let obs = Psched_obs.Obs.create () in
    Psched_obs.Obs.set_wall_clock obs Unix.gettimeofday;
    let series =
      if series_every <= 0.0 then None
      else Some (Psched_obs.Series.create ~interval:series_every ())
    in
    let series_sink =
      match (series, series_out) with
      | Some s, Some f ->
        let oc = open_out f in
        Psched_obs.Series.attach_sink s oc;
        Some (f, oc)
      | _ -> None
    in
    let cfg =
      Serve.Daemon.config ~m ~mode ~batch ~round_every ~queue_cap:cap ~shed
        ~deadline:(if deadline > 0.0 then deadline else infinity)
        ~latency_high ~latency_low ?wal ~wal_sync:sync ?snapshot ~snapshot_every ?series ~obs ()
    in
    let state =
      if not recover then None
      else
        match wal with
        | None ->
          Printf.eprintf "--recover needs --wal\n";
          exit 1
        | Some w when not (Sys.file_exists w) ->
          Printf.printf "no WAL at %s yet; starting fresh\n" w;
          None
        | Some w ->
          let st, info = Serve.Daemon.recover ?snapshot ~wal:w ~m () in
          Printf.printf
            "recovered seq %d at clock %.2f: %d records replayed%s%s%s%s\n" st.Serve.Snapshot.seq
            st.Serve.Snapshot.clock info.Serve.Daemon.replayed
            (if info.Serve.Daemon.used_snapshot then " on snapshot" else "")
            (match info.Serve.Daemon.torn with
            | Some t -> Printf.sprintf "; torn tail truncated at byte %d (%s)" t.Serve.Wal.offset t.Serve.Wal.reason
            | None -> "")
            (if info.Serve.Daemon.snapshot_ahead then "; snapshot was ahead of the WAL tail" else "")
            (match info.Serve.Daemon.snapshot_error with
            | Some e -> Printf.sprintf "; snapshot unusable (%s), pure WAL replay" e
            | None -> "");
          Some st
    in
    let http =
      match port with
      | None -> None
      | Some p -> (
        let provider = Option.map (fun s () -> Psched_obs.Series.to_jsonl s) series in
        match Serve.Http.start ~port:p ?series:provider obs with
        | Ok h ->
          Printf.printf "metrics on http://127.0.0.1:%d/metrics%s\n%!" (Serve.Http.port h)
            (if provider = None then "" else " (+ /series)");
          Some h
        | Error e ->
          Printf.eprintf "http: %s\n" e;
          exit 1)
    in
    let stop = ref false in
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> stop := true)))
      [ Sys.sigterm; Sys.sigint ];
    let wall_deadline =
      if duration > 0.0 then Unix.gettimeofday () +. duration else infinity
    in
    let tick _ =
      (match http with Some h -> Serve.Http.poll h | None -> ());
      if throttle > 0.0 then Unix.sleepf throttle;
      if !stop || Unix.gettimeofday () > wall_deadline then raise Exit
    in
    let finish_series () =
      (match series with
      | Some s ->
        Printf.printf "series: %d sample(s) every %gs%s\n" (Psched_obs.Series.taken s)
          (Psched_obs.Series.interval s)
          (match series_sink with Some (f, _) -> "  -> " ^ f | None -> "")
      | None -> ());
      match series_sink with Some (_, oc) -> close_out oc | None -> ()
    in
    match Serve.Daemon.run ?state ~outages ~tick cfg arrivals with
    | exception Exit ->
      (match http with Some h -> Serve.Http.stop h | None -> ());
      finish_series ();
      Printf.printf
        "stopped (%s); every decision is in the WAL — rerun with --recover to resume\n"
        (if !stop then "signal" else "--duration elapsed")
    | o ->
      let c = o.Serve.Daemon.state.Serve.Snapshot.counters in
      let mt = o.Serve.Daemon.metrics in
      Printf.printf "policy %s  m %d  %d arrivals consumed\n"
        (Serve.Daemon.mode_name cfg.Serve.Daemon.mode)
        m o.Serve.Daemon.state.Serve.Snapshot.arrivals;
      Printf.printf
        "admitted %d  decided %d  completed %d  shed %d  killed %d  deferrals %d  timeouts %d\n"
        c.Serve.Snapshot.admitted c.Serve.Snapshot.decided c.Serve.Snapshot.completed
        c.Serve.Snapshot.shed c.Serve.Snapshot.killed c.Serve.Snapshot.deferred_jobs
        c.Serve.Snapshot.timeouts;
      Printf.printf "makespan %.2f  mean flow %.2f  utilisation %.3f  goodput %.3f\n"
        mt.Psched_sim.Metrics.makespan mt.Psched_sim.Metrics.mean_flow
        mt.Psched_sim.Metrics.utilisation o.Serve.Daemon.goodput;
      let lats = Array.to_list o.Serve.Daemon.decision_latencies in
      if lats <> [] then
        Printf.printf "decision latency p50 %.1f us  p99 %.1f us  over %d rounds\n"
          (Psched_util.Stats.percentile 0.50 lats *. 1e6)
          (Psched_util.Stats.percentile 0.99 lats *. 1e6)
          (List.length lats);
      Printf.printf "max queue depth %d  degraded rounds %d  breaker trips %d\n"
        o.Serve.Daemon.max_queue_depth o.Serve.Daemon.degraded_rounds
        o.Serve.Daemon.breaker_trips;
      (match wal with
      | Some w -> Printf.printf "wal %s  last seq %d\n" w o.Serve.Daemon.state.Serve.Snapshot.seq
      | None -> ());
      (match http with
      | Some h ->
        Serve.Http.poll h;
        Printf.printf "http requests served %d\n" (Serve.Http.served h);
        Serve.Http.stop h
      | None -> ());
      finish_series ()
  in
  let policy =
    Arg.(value & opt string "greedy"
         & info [ "policy" ] ~docv:"NAME"
             ~doc:"greedy (earliest-fit per job) or a registry policy (see psched policies).")
  in
  let m = Arg.(value & opt int 64 & info [ "m" ] ~doc:"Processors.") in
  let rate = Arg.(value & opt float 0.5 & info [ "rate" ] ~doc:"Poisson arrival rate (jobs/s).") in
  let count =
    Arg.(value & opt int 200 & info [ "n" ] ~doc:"Arrivals to serve; negative = unbounded.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed.") in
  let swf =
    Arg.(value & opt (some string) None
         & info [ "swf" ] ~docv:"FILE" ~doc:"Replay an SWF trace instead of Poisson arrivals.")
  in
  let burst =
    Arg.(value & opt (some (t3 ~sep:':' float float float)) None
         & info [ "burst" ] ~docv:"PERIOD:WIDTH:FACTOR"
             ~doc:"Periodic arrival storms: every PERIOD, multiply the rate by FACTOR for WIDTH.")
  in
  let batch = Arg.(value & opt int 4 & info [ "batch" ] ~doc:"Decision batch size.") in
  let round_every =
    Arg.(value & opt float 0.0
         & info [ "round-every" ]
             ~doc:"Scheduling cycle (virtual s): decide only on this grid; 0 = decide at \
                   batch-full.")
  in
  let cap =
    Arg.(value & opt int 64 & info [ "queue-cap" ] ~doc:"Admission queue bound; 0 = unbounded.")
  in
  let shed =
    Arg.(value & opt shed_conv (Serve.Admission.Defer { delay = 5.0 })
         & info [ "shed" ] ~docv:"POLICY" ~doc:"Overload policy: reject, defer[:SECS] or degrade.")
  in
  let deadline =
    Arg.(value & opt float 0.0
         & info [ "deadline" ]
             ~doc:"Per-round wall deadline (s) feeding the circuit breaker; 0 = off.")
  in
  let latency_high =
    Arg.(value & opt float infinity
         & info [ "latency-high" ] ~doc:"p99 decision-latency watermark engaging degraded mode (s).")
  in
  let latency_low =
    Arg.(value & opt float infinity
         & info [ "latency-low" ] ~doc:"Watermark releasing degraded mode (s).")
  in
  let wal =
    Arg.(value & opt (some string) None
         & info [ "wal" ] ~docv:"FILE" ~doc:"Write-ahead log; required for crash recovery.")
  in
  let sync =
    Arg.(value & flag & info [ "sync" ] ~doc:"fsync the WAL after every record (power-loss durable).")
  in
  let snapshot =
    Arg.(value & opt (some string) None
         & info [ "snapshot" ] ~docv:"FILE" ~doc:"Periodic state snapshot (bounds replay time).")
  in
  let snapshot_every =
    Arg.(value & opt int 64 & info [ "snapshot-every" ] ~doc:"Snapshot period in WAL records.")
  in
  let fault_rate =
    Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~doc:"Poisson outage rate (per second); 0 = off.")
  in
  let fault_mean =
    Arg.(value & opt float 30.0 & info [ "fault-duration" ] ~doc:"Mean outage duration (s).")
  in
  let fault_horizon =
    Arg.(value & opt float 0.0
         & info [ "fault-horizon" ] ~doc:"Outage generation horizon (s); 0 = derive from the workload.")
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"PORT" ~doc:"Serve Prometheus /metrics on this port; 0 = ephemeral.")
  in
  let throttle =
    Arg.(value & opt float 0.0
         & info [ "throttle" ] ~doc:"Sleep this many wall seconds per event (soak pacing).")
  in
  let duration =
    Arg.(value & opt float 0.0
         & info [ "duration" ] ~doc:"Stop gracefully after this many wall seconds; 0 = run to drain.")
  in
  let recover =
    Arg.(value & flag
         & info [ "recover" ] ~doc:"Recover state from --wal (and --snapshot) before serving.")
  in
  let series_every =
    Arg.(value & opt float 1.0
         & info [ "series-every" ]
             ~doc:"Metrics time-series sampling interval (virtual s); 0 = off.  Served at \
                   /series when --port is given.")
  in
  let series_out =
    Arg.(value & opt (some string) None
         & info [ "series-out" ] ~docv:"FILE"
             ~doc:"Stream the psched-series/1 JSONL to this file as samples are taken.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the crash-safe scheduling daemon: continuous arrivals, rolling decisions, \
          write-ahead logging, bounded admission with shedding, live fault injection and a \
          polled /metrics endpoint.")
    Term.(const run $ policy $ m $ rate $ count $ seed $ swf $ burst $ batch $ round_every
          $ cap $ shed $ deadline $ latency_high $ latency_low $ wal $ sync $ snapshot
          $ snapshot_every $ fault_rate $ fault_mean $ fault_horizon $ port $ throttle
          $ duration $ recover $ series_every $ series_out)

let serve_verify_cmd =
  let module Serve = Psched_serve in
  let module Check = Psched_check in
  let run wal m complete verbose series =
    match Serve.Wal.replay wal with
    | Error e ->
      Printf.eprintf "%s: %s\n" wal e;
      exit 1
    | Ok (entries, torn) ->
      (match torn with
      | Some t ->
        Printf.printf "torn tail at line %d (byte %d): %s — dropped\n" t.Serve.Wal.line
          t.Serve.Wal.offset t.Serve.Wal.reason
      | None -> ());
      let slo_findings =
        match series with
        | None -> []
        | Some file -> (
          let contents =
            let ic = open_in_bin file in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          match Psched_obs.Series.of_jsonl_string contents with
          | Error e ->
            Printf.eprintf "%s: %s\n" file e;
            exit 1
          | Ok (interval, samples) -> Check.Slo_rules.check ~interval samples)
      in
      let findings = Check.Serve_rules.check ~complete entries @ slo_findings in
      let errors = Check.Finding.count Check.Finding.Error findings in
      let warns = Check.Finding.count Check.Finding.Warn findings in
      List.iter
        (fun (f : Check.Finding.t) ->
          if verbose || f.Check.Finding.severity <> Check.Finding.Info then
            Format.printf "%a@." Check.Finding.pp f)
        findings;
      let sched = Serve.Daemon.schedule_of_wal ~m entries in
      Printf.printf
        "%d records, %d surviving placements, makespan %.2f; %d errors, %d warnings\n"
        (List.length entries)
        (List.length sched.Psched_sim.Schedule.entries)
        (Psched_sim.Schedule.makespan sched)
        errors warns;
      if errors > 0 then exit 1
  in
  let wal =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WAL" ~doc:"The log to audit.")
  in
  let m = Arg.(value & opt int 64 & info [ "m" ] ~doc:"Processors (for the rebuilt schedule).") in
  let complete =
    Arg.(value & flag
         & info [ "complete" ]
             ~doc:"Assert the run finished: jobs still queued or deferred at the tail are errors.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print Info findings too.")
  in
  let series =
    Arg.(value & opt (some string) None
         & info [ "series" ] ~docv:"FILE"
             ~doc:"Also check a recorded psched-series/1 JSONL against the SLO burn-rate \
                   rules (wait, goodput, queue).")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Audit a serve WAL: monotone sequencing, job conservation (no admitted job lost or \
          decided twice), and the schedule rebuilt straight from the log.  With --series, \
          multiwindow SLO burn-rate rules run over the recorded metrics too.  Exits 1 on \
          any error.")
    Term.(const run $ wal $ m $ complete $ verbose $ series)

let serve_cmd =
  Cmd.group
    (Cmd.info "serve"
       ~doc:
         "The long-running scheduling daemon: WAL-recoverable, admission-controlled, \
          fault-injected serving with live Prometheus metrics.")
    [ serve_run_cmd; serve_verify_cmd ]

(* --------------------------------------------------------------- lint *)

let lint_cmd =
  let module L = Psched_lint in
  let run paths root json baseline_path update list_rules verbose =
    if list_rules then begin
      let docs = L.Rules.docs () in
      let width = List.fold_left (fun acc (id, _, _) -> max acc (String.length id)) 0 docs in
      List.iter
        (fun (id, sev, doc) -> Printf.printf "%-*s  [%s] %s\n" width id sev doc)
        docs
    end
    else begin
      let paths = if paths = [] then None else Some paths in
      if update then begin
        (* Recount lib/core and rewrite the committed ratchet state, then
           lint against the fresh baseline (which passes by construction
           unless other rules fire). *)
        let scope =
          (* ratchet_scope is a "lib/core/" prefix; walk wants the bare
             directory path. *)
          String.sub L.Rules.ratchet_scope 0 (String.length L.Rules.ratchet_scope - 1)
        in
        let counting = L.Driver.run (L.Driver.config ~root ~paths:[ scope ] ~rules:[] ()) in
        L.Baseline.save (Filename.concat root baseline_path) counting.L.Driver.counts;
        Printf.printf "lint: rewrote %s (%d files, %d occurrences)\n" baseline_path
          (List.length counting.L.Driver.counts)
          (List.fold_left (fun acc (_, c) -> acc + c) 0 counting.L.Driver.counts)
      end;
      let baseline =
        match L.Baseline.load (Filename.concat root baseline_path) with
        | Ok b -> Some b
        | Error e ->
          Printf.eprintf "lint: %s: %s (ratchet disabled)\n" baseline_path e;
          None
      in
      let report = L.Driver.run (L.Driver.config ~root ?paths ?baseline ()) in
      (match json with
      | Some path ->
        let oc = open_out path in
        output_string oc (L.Driver.to_json report);
        close_out oc
      | None -> ());
      Format.printf "%a" (L.Driver.pp ~verbose) report;
      exit (L.Driver.exit_code report)
    end
  in
  let paths =
    Arg.(value & pos_all string []
         & info [] ~docv:"PATH"
             ~doc:
               "Files or directories to analyze (default: lib bin examples test perfbench).")
  in
  let root =
    Arg.(value & opt string "."
         & info [ "root" ] ~docv:"DIR" ~doc:"Repository root paths are resolved against.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Also write the findings as a JSON report.")
  in
  let baseline_path =
    Arg.(value & opt string "tools/lint_baseline.json"
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Per-file invalid_arg ratchet state (root-relative).")
  in
  let update =
    Arg.(value & flag
         & info [ "update-baseline" ]
             ~doc:"Recount lib/core and rewrite the baseline before linting (use in the \
                   same change that lowers a count).")
  in
  let list_rules =
    Arg.(value & flag & info [ "list-rules" ] ~doc:"Print the rule registry and exit.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print Info findings too.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "AST-grounded static analysis of the project's own sources: the legacy grep gates \
          as parsetree rules, a determinism audit, a Domain-race heuristic and the per-file \
          invalid_arg ratchet.  Exits 1 on any Error finding.")
    Term.(const run $ paths $ root $ json $ baseline_path $ update $ list_rules $ verbose)

(* -------------------------------------------------------------- check *)

let check_cmd =
  let module Check = Psched_check in
  let run all policy workload n m seed rate trace json verbose list_rules domains =
    if list_rules then begin
      let docs = Check.Analyzer.rule_docs () in
      let width = List.fold_left (fun acc (id, _) -> max acc (String.length id)) 0 docs in
      List.iter (fun (id, doc) -> Printf.printf "%-*s  %s\n" width id doc) docs
    end
    else begin
      let runs =
        match trace with
        | Some file -> (
          match Psched_obs.Trace.events_of_file file with
          | Error { Psched_obs.Trace.line; reason } ->
            Printf.eprintf "%s:%d: %s\n" file line reason;
            exit 1
          | Ok events -> [ Check.Analyzer.analyze_events ~name:file events ])
        | None ->
          if all then Check.Analyzer.analyze_all ~domains ()
          else
            let entry =
              match workload with
              | Some name -> (
                match Check.Corpus.find name with
                | Some e -> e
                | None ->
                  Printf.eprintf "unknown corpus workload %s (known: %s)\n" name
                    (String.concat ", " (Check.Corpus.names ()));
                  exit 1)
              | None -> { Check.Corpus.name = "generated"; m; jobs = gen_jobs ~n ~m ~seed ~rate }
            in
            [ Check.Analyzer.analyze_run ~policy entry ]
      in
      (match json with
      | Some path ->
        let oc = open_out path in
        output_string oc (Check.Report.to_json runs);
        output_char oc '\n';
        close_out oc
      | None -> ());
      Format.printf "%a" (Check.Report.pp ~verbose) runs;
      exit (Check.Report.exit_code runs)
    end
  in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Sweep: every registry policy on the whole corpus.")
  in
  let workload =
    Arg.(value & opt (some string) None
         & info [ "workload" ] ~docv:"NAME"
             ~doc:"Run against a named corpus workload instead of a generated one.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE" ~doc:"Audit a saved JSONL trace with the trace rules.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Also write the findings as a JSON report.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "v" ] ~doc:"List passing certificates and skipped runs too.")
  in
  let list_rules =
    Arg.(value & flag & info [ "list-rules" ] ~doc:"Print the rule registry and exit.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Rule-based schedule analyzer: structural invariants, approximation-ratio \
             certificates, trace cross-checks.  Exits 1 on any error finding.")
    Term.(const run $ all $ policy_arg $ workload $ n_arg $ m_arg $ seed_arg $ rate_arg $ trace
          $ json $ verbose $ list_rules $ jobs_arg)

(* ------------------------------------------------------------- explain *)

let explain_cmd =
  let module P = Psched_obs.Provenance in
  let run trace wal job all json partial =
    let events =
      match (trace, wal) with
      | Some file, None -> (
        if not (Sys.file_exists file) then begin
          Printf.eprintf "%s: no such file\n" file;
          exit 1
        end;
        match Psched_obs.Trace.events_of_file file with
        | Error { Psched_obs.Trace.line; reason } ->
          Printf.eprintf "%s:%d: %s\n" file line reason;
          exit 1
        | Ok events -> events)
      | None, Some w -> (
        match Psched_serve.Wal.replay w with
        | Error e ->
          Printf.eprintf "%s: %s\n" w e;
          exit 1
        | Ok (entries, torn) ->
          (match torn with
          | Some t ->
            Printf.eprintf "%s: torn tail at byte %d (%s) — dropped\n" w
              t.Psched_serve.Wal.offset t.Psched_serve.Wal.reason
          | None -> ());
          Psched_serve.Explain.events_of_wal entries)
      | Some _, Some _ ->
        Printf.eprintf "give either a TRACE file or --wal, not both\n";
        exit 2
      | None, None ->
        Printf.eprintf "give a saved TRACE file or --wal FILE\n";
        exit 2
    in
    let timelines = P.of_events events in
    let complete = not partial in
    (* Traces whose dialect never records completions (planning-only
       policies, live scrapes) terminate at Placed. *)
    let terminal_placed =
      not
        (List.exists
           (fun (e : Psched_obs.Event.t) ->
             e.Psched_obs.Event.kind = "job.complete"
             || e.Psched_obs.Event.kind = "serve.complete")
           events)
    in
    match job with
    | Some id -> (
      match P.find id timelines with
      | None ->
        Printf.eprintf "job %d does not appear in the trace\n" id;
        exit 1
      | Some tl -> print_string (if json then P.to_json tl ^ "\n" else P.to_text tl))
    | None ->
      if all then begin
        List.iter
          (fun tl -> print_string (if json then P.to_json tl ^ "\n" else P.to_text tl))
          timelines;
        if not json then print_string (P.summary ~complete ~terminal_placed timelines);
        if P.unexplained ~complete ~terminal_placed timelines <> [] then exit 1
      end
      else print_string (P.summary ~complete ~terminal_placed timelines)
  in
  let trace =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"TRACE" ~doc:"Saved JSONL trace to explain.")
  in
  let wal =
    Arg.(value & opt (some string) None
         & info [ "wal" ] ~docv:"FILE"
             ~doc:"Explain a serve write-ahead log instead of a trace.")
  in
  let job =
    Arg.(value & opt (some int) None
         & info [ "job" ] ~docv:"N" ~doc:"Print the causal timeline of one job.")
  in
  let all =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Print every timeline and exit 1 if any job lacks a complete, \
                   contradiction-free one.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSONL instead of text.") in
  let partial =
    Arg.(value & flag
         & info [ "partial" ]
             ~doc:"The trace is a prefix: jobs without a terminal outcome are not errors.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Reconstruct per-job causal timelines (arrival, admission, rounds considered, \
          placement or shed, completion or kill) from a saved trace or a serve WAL, with \
          every candidate hole considered and every rejection reason.")
    Term.(const run $ trace $ wal $ job $ all $ json $ partial)

(* ----------------------------------------------------------------- top *)

let top_cmd =
  let http_get ~port path =
    match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | sock -> (
      match
        Fun.protect
          ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
            ignore (Unix.write_substring sock req 0 (String.length req));
            let buf = Buffer.create 4096 in
            let chunk = Bytes.create 4096 in
            let rec read_all () =
              match Unix.read sock chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | n ->
                Buffer.add_subbytes buf chunk 0 n;
                read_all ()
            in
            read_all ();
            Buffer.contents buf)
      with
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | raw -> (
        (* Split the HTTP head off; the daemon always answers 1.0 with
           a blank line before the body. *)
        let sep = "\r\n\r\n" in
        let rec find i =
          if i + 4 > String.length raw then None
          else if String.sub raw i 4 = sep then Some i
          else find (i + 1)
        in
        match find 0 with
        | Some i ->
          let status = try List.nth (String.split_on_char ' ' raw) 1 with _ -> "?" in
          Ok (status, String.sub raw (i + 4) (String.length raw - i - 4))
        | None -> Error "malformed HTTP response"))
  in
  let gauge_of metrics name =
    (* psched_gauge{name="..."} V *)
    let needle = Printf.sprintf "psched_gauge{name=\"%s\"} " name in
    List.find_map
      (fun line ->
        if String.length line > String.length needle
           && String.sub line 0 (String.length needle) = needle
        then
          float_of_string_opt
            (String.sub line (String.length needle)
               (String.length line - String.length needle))
        else None)
      (String.split_on_char '\n' metrics)
  in
  let scrape port width =
    match http_get ~port "/metrics" with
    | Error e ->
      Printf.eprintf "127.0.0.1:%d: %s (is psched serve run --port live?)\n" port e;
      exit 1
    | Ok (_, metrics) ->
      let show name label =
        match gauge_of metrics name with
        | Some v -> Printf.printf "%-12s %g   " label v
        | None -> ()
      in
      show "serve.queue_depth" "queue";
      show "serve.deferred" "deferred";
      show "serve.live" "live";
      show "serve.degraded" "degraded";
      print_newline ();
      (match http_get ~port "/series" with
      | Ok ("200", body) -> (
        match Psched_obs.Series.of_jsonl_string body with
        | Ok (interval, samples) ->
          Printf.printf "series: %d sample(s), every %gs\n%s" (List.length samples) interval
            (Psched_obs.Series.render ~width samples)
        | Error e -> Printf.printf "series: %s\n" e)
      | Ok (status, _) -> Printf.printf "series: endpoint answered %s (daemon run without --series?)\n" status
      | Error e -> Printf.printf "series: %s\n" e);
      flush stdout
  in
  let run port watch width =
    if watch <= 0.0 then scrape port width
    else begin
      (* Refresh loop: clear, redraw, sleep; ^C exits. *)
      let stop = ref false in
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> stop := true)))
        [ Sys.sigterm; Sys.sigint ];
      while not !stop do
        print_string "\027[2J\027[H";
        scrape port width;
        Unix.sleepf watch
      done
    end
  in
  let port =
    Arg.(required & opt (some int) None
         & info [ "port" ] ~docv:"PORT" ~doc:"The daemon's --port (serving /metrics and /series).")
  in
  let watch =
    Arg.(value & opt float 0.0
         & info [ "watch" ] ~docv:"SECS" ~doc:"Refresh every SECS seconds; 0 = one shot.")
  in
  let width =
    Arg.(value & opt int 60 & info [ "width" ] ~doc:"Sparkline width in samples.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live serve observatory: scrape a running daemon's /metrics and /series endpoints \
          and render queue depth, utilisation, goodput, shed counts and decision-latency \
          quantiles as ASCII sparklines.")
    Term.(const run $ port $ watch $ width)

let main =
  Cmd.group
    (Cmd.info "psched" ~version:"1.0.0"
       ~doc:"Scheduling policies for large scale platforms (Dutot et al., IPDPS'04 reproduction).")
    [ fig2_cmd; tables_cmd; ablations_cmd; platform_cmd; simulate_cmd; profile_cmd; bench_cmd; policies_cmd; trace_cmd; dlt_cmd; workload_cmd; gantt_cmd; grid_cmd; resilience_cmd; fault_cmd; serve_cmd; check_cmd; lint_cmd; explain_cmd; top_cmd ]

let () = exit (Cmd.eval main)
