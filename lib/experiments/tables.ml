open Psched_util
open Psched_core
open Psched_sim
open Psched_workload
module Pf = Psched_platform.Platform

let seeds = [ 1; 2; 3; 4; 5 ]

let mean_max f xs =
  let vs = List.map f xs in
  (Stats.mean vs, Stats.max_l vs)

(* ---------------------------------------------------------------- MRT *)

let mrt () =
  let cases = [ (20, 16); (50, 32); (100, 64); (200, 100) ] in
  let row (n, m) =
    let instances =
      List.map
        (fun seed ->
          let rng = Rng.create ((seed * 7919) + n) in
          Workload_gen.moldable_uniform rng ~n ~m ~tmin:1.0 ~tmax:100.0)
        seeds
    in
    let ratio sched_of jobs =
      Schedule.makespan (sched_of jobs) /. Lower_bounds.cmax ~m jobs
    in
    let mrt_mean, mrt_max = mean_max (ratio (fun js -> Mrt.schedule ~m js)) instances in
    let ls alloc jobs =
      Packing.list_schedule ~order:Packing.largest_area_first ~m
        (Moldable_alloc.allocate (alloc ~m) jobs)
    in
    let thrifty_mean, _ = mean_max (ratio (ls Moldable_alloc.thriftiest)) instances in
    let fastest_mean, _ = mean_max (ratio (ls Moldable_alloc.fastest)) instances in
    [
      string_of_int n;
      string_of_int m;
      Render.float_cell mrt_mean;
      Render.float_cell mrt_max;
      Render.float_cell thrifty_mean;
      Render.float_cell fastest_mean;
    ]
  in
  "T-ratio-mrt: off-line moldable makespan / lower bound (paper claim: 3/2+eps vs OPT)\n"
  ^ Render.table
      ~header:
        [ "n"; "m"; "MRT mean"; "MRT max"; "LS thrifty mean"; "LS fastest mean" ]
      ~rows:(List.map row cases)

(* ------------------------------------------------------------- on-line *)

let online () =
  let m = 32 and n = 60 in
  let rates = [ 0.02; 0.1; 0.5; 2.0 ] in
  let row rate =
    let ratios =
      List.map
        (fun seed ->
          let rng = Rng.create ((seed * 31) + int_of_float (rate *. 1000.0)) in
          let jobs = Workload_gen.moldable_uniform rng ~n ~m ~tmin:1.0 ~tmax:50.0 in
          let jobs = Workload_gen.with_poisson_arrivals rng ~rate jobs in
          let online = Schedule.makespan (Batch_online.with_mrt ~m jobs) in
          let lb = Lower_bounds.cmax ~m jobs in
          let clairvoyant =
            Schedule.makespan
              (Mrt.schedule ~m (List.map (fun (j : Job.t) -> { j with release = 0.0 }) jobs))
          in
          (online /. lb, online /. Float.max clairvoyant 1e-12))
        seeds
    in
    let vs_lb_mean, vs_lb_max = mean_max fst ratios in
    let vs_off_mean, _ = mean_max snd ratios in
    [
      Printf.sprintf "%g" rate;
      Render.float_cell vs_lb_mean;
      Render.float_cell vs_lb_max;
      Render.float_cell vs_off_mean;
    ]
  in
  Printf.sprintf
    "T-ratio-online: batch on-line moldable Cmax (m=%d, n=%d; paper claim: 2rho = 3+eps vs OPT)\n"
    m n
  ^ Render.table
      ~header:[ "arrival rate"; "vs LB mean"; "vs LB max"; "vs off-line (r=0)" ]
      ~rows:(List.map row rates)

(* --------------------------------------------------------------- SMART *)

let smart () =
  let cases = [ (30, 16, true); (30, 16, false); (100, 64, true); (100, 64, false) ] in
  let row (n, m, weighted) =
    let ratios =
      List.map
        (fun seed ->
          let rng = Rng.create ((seed * 131) + n + if weighted then 1 else 0) in
          let jobs = Workload_gen.rigid_uniform rng ~n ~m ~tmin:1.0 ~tmax:100.0 in
          let jobs =
            if weighted then jobs else List.map (fun (j : Job.t) -> { j with weight = 1.0 }) jobs
          in
          let lb = Lower_bounds.sum_weighted_completion ~m jobs in
          let wc sched = (Metrics.compute ~jobs sched).Metrics.sum_weighted_completion /. lb in
          let alloc = List.map Packing.allocate_rigid jobs in
          let order_wspt ((a : Job.t), _) ((b : Job.t), _) =
            compare (Job.seq_time a /. a.weight, a.id) (Job.seq_time b /. b.weight, b.id)
          in
          ( wc (Smart.schedule_rigid_jobs ~m jobs),
            wc (Packing.list_schedule ~order:order_wspt ~m alloc),
            wc (Packing.list_schedule ~m alloc) ))
        seeds
    in
    let smart_mean, smart_max = mean_max (fun (a, _, _) -> a) ratios in
    let wspt_mean, _ = mean_max (fun (_, b, _) -> b) ratios in
    let fcfs_mean, _ = mean_max (fun (_, _, c) -> c) ratios in
    [
      string_of_int n;
      string_of_int m;
      (if weighted then "yes" else "no");
      Render.float_cell smart_mean;
      Render.float_cell smart_max;
      Render.float_cell wspt_mean;
      Render.float_cell fcfs_mean;
    ]
  in
  "T-ratio-smart: rigid sum(w.C) / lower bound (paper claim: 8 unweighted / 8.53 weighted vs OPT)\n"
  ^ Render.table
      ~header:[ "n"; "m"; "weighted"; "SMART mean"; "SMART max"; "WSPT-list"; "FCFS-list" ]
      ~rows:(List.map row cases)

(* ----------------------------------------------------------- bicriteria *)

let bicriteria () =
  let m = 64 and n = 100 in
  let instances =
    List.map
      (fun seed ->
        let rng = Rng.create (seed * 977) in
        Workload_gen.moldable_uniform rng ~n ~m ~tmin:1.0 ~tmax:100.0)
      seeds
  in
  let algorithms =
    [
      ("bi-criteria (doubling)", fun jobs -> Bicriteria.schedule ~m jobs);
      ("MRT (Cmax only)", fun jobs -> Mrt.schedule ~m jobs);
      ( "WSPT-list (sum wC only)",
        fun jobs ->
          let alloc = Moldable_alloc.allocate (Moldable_alloc.work_bounded ~m ~delta:0.25) jobs in
          let order ((a : Job.t), ka) ((b : Job.t), kb) =
            compare
              (Job.time_on a ka /. a.weight, a.id)
              (Job.time_on b kb /. b.weight, b.id)
          in
          Packing.list_schedule ~order ~m alloc );
    ]
  in
  let row (name, algo) =
    let ratios =
      List.map
        (fun jobs ->
          let sched = algo jobs in
          let metrics = Metrics.compute ~jobs sched in
          ( Schedule.makespan sched /. Lower_bounds.cmax ~m jobs,
            metrics.Metrics.sum_weighted_completion
            /. Lower_bounds.sum_weighted_completion ~m jobs ))
        instances
    in
    let cmax_mean, _ = mean_max fst ratios in
    let wc_mean, _ = mean_max snd ratios in
    [ name; Render.float_cell cmax_mean; Render.float_cell wc_mean ]
  in
  Printf.sprintf
    "T-ratio-bicriteria: both criteria vs lower bounds (m=%d, n=%d; paper claim: 4rho = 6 on both)\n"
    m n
  ^ Render.table ~header:[ "algorithm"; "Cmax ratio"; "sum wC ratio" ]
      ~rows:(List.map row algorithms)

(* ------------------------------------------------------------------ DLT *)

let dlt () =
  let open Psched_dlt in
  let load = 1000.0 in
  let platforms =
    [
      ("bus x10 (z=0.2)", Worker.bus ~z:0.2 (List.init 10 (fun _ -> 1.0)));
      ( "hetero star x8",
        List.init 8 (fun i ->
            Worker.make ~id:i ~w:(0.5 +. (0.25 *. float_of_int i)) ~z:(0.05 *. float_of_int (1 + i))
              ()) );
      ("CIMENT clusters", List.map Worker.of_cluster Pf.ciment.Pf.clusters);
    ]
  in
  let row (name, workers) =
    let single = (Star.schedule ~load workers).Star.makespan in
    let worst_order =
      let sorted =
        List.sort (fun (a : Worker.t) b -> compare (b.Worker.z, b.Worker.id) (a.Worker.z, a.Worker.id))
          workers
      in
      (Star.solve_order ~load sorted).Star.makespan
    in
    let multi = Multiround.best_rounds ~max_rounds:32 ~load workers in
    let units = 1000 in
    let stealing chunk =
      (Work_stealing.simulate ~units ~chunk
         (List.map (fun (w : Worker.t) -> { w with Worker.w = w.Worker.w *. load /. float_of_int units }) workers))
        .Work_stealing.makespan
    in
    let steady =
      Steady_state.makespan_estimate ~tasks:units
        (Steady_state.optimal
           (List.map
              (fun (w : Worker.t) ->
                { w with Worker.w = w.Worker.w *. load /. float_of_int units;
                  Worker.z = w.Worker.z *. load /. float_of_int units })
              workers))
    in
    [
      name;
      Render.float_cell single;
      Render.float_cell worst_order;
      Render.float_cell multi.Multiround.makespan;
      string_of_int multi.Multiround.rounds;
      Render.float_cell (stealing 1);
      Render.float_cell (stealing 50);
      Render.float_cell steady;
    ]
  in
  "T-dlt: divisible load of 1000 units, distribution strategies (makespans, lower is better)\n"
  ^ Render.table
      ~header:
        [
          "platform"; "1 round (opt ord)"; "1 round (worst ord)"; "multi-round"; "R*";
          "steal c=1"; "steal c=50"; "steady-state bound";
        ]
      ~rows:(List.map row platforms)

(* ----------------------------------------------------------------- grid *)

let grid () =
  let m = 32 in
  let rng = Rng.create 4242 in
  let local_jobs =
    Workload_gen.rigid_uniform rng ~n:60 ~m ~tmin:5.0 ~tmax:60.0
    |> Workload_gen.with_poisson_arrivals rng ~rate:0.05
    |> List.map Packing.allocate_rigid
  in
  let bags = [ 0; 100; 500; 2000 ] in
  let row bag =
    let config = { Psched_grid.Best_effort.m; bag; unit_time = 5.0; horizon = 1e7 } in
    let o = Psched_grid.Best_effort.simulate config ~local:local_jobs in
    let u0, u1 = Psched_grid.Best_effort.utilisation_gain config ~local:local_jobs in
    [
      string_of_int bag;
      Render.float_cell u0;
      Render.float_cell u1;
      string_of_int o.Psched_grid.Best_effort.grid_completed;
      string_of_int o.Psched_grid.Best_effort.grid_killed;
      Render.float_cell o.Psched_grid.Best_effort.wasted_time;
      "0 (asserted)";
    ]
  in
  Printf.sprintf
    "T-grid: best-effort multi-parametric runs on a %d-proc cluster (CiGri centralized model)\n" m
  ^ Render.table
      ~header:
        [ "bag"; "util local"; "util +grid"; "completed"; "kills"; "wasted proc.s"; "local delay" ]
      ~rows:(List.map row bags)

(* ---------------------------------------------------------- multicluster *)

let multicluster () =
  let grid_pf = Pf.ciment in
  let rng = Rng.create 2026 in
  let jobs =
    (* Imbalanced: community 0 submits 70% of the work. *)
    List.init 200 (fun id ->
        let community = if Rng.int rng 10 < 7 then 0 else 1 + Rng.int rng 3 in
        let time = Rng.uniform rng 20.0 400.0 in
        let procs = 1 + Rng.int rng 16 in
        Job.rigid ~community ~id ~procs ~time ())
    |> Workload_gen.with_poisson_arrivals rng ~rate:0.05
  in
  let policies =
    [
      ("independent", Psched_grid.Multi_cluster.Independent);
      ("centralized", Psched_grid.Multi_cluster.Centralized);
      ("exchange (1.5)", Psched_grid.Multi_cluster.Exchange { threshold = 1.5 });
    ]
  in
  let row (name, policy) =
    let o = Psched_grid.Multi_cluster.simulate policy ~grid:grid_pf ~jobs in
    [
      name;
      Render.float_cell o.Psched_grid.Multi_cluster.makespan;
      Render.float_cell o.Psched_grid.Multi_cluster.mean_flow;
      Render.float_cell o.Psched_grid.Multi_cluster.fairness;
      string_of_int o.Psched_grid.Multi_cluster.migrations;
    ]
  in
  "T-grid (decentralized): linking the CIMENT clusters under imbalanced community load\n"
  ^ Render.table
      ~header:[ "policy"; "Cmax"; "mean flow"; "fairness (Jain)"; "migrations" ]
      ~rows:(List.map row policies)

(* ------------------------------------------------------------------ mix *)

let mix () =
  let m = 32 and n = 60 in
  let instances =
    List.map
      (fun seed ->
        let rng = Rng.create (seed * 577) in
        let rigid = Workload_gen.rigid_uniform rng ~n:(n / 2) ~m:(m / 2) ~tmin:1.0 ~tmax:50.0 in
        let moldable = Workload_gen.moldable_uniform rng ~n:(n / 2) ~m ~tmin:1.0 ~tmax:50.0 in
        let moldable =
          List.map (fun (j : Job.t) -> { j with id = j.id + (n / 2) }) moldable
        in
        rigid @ moldable)
      seeds
  in
  let row (name, strategy) =
    let ratios =
      List.map
        (fun jobs ->
          let sched = Rigid_mix.schedule strategy ~m jobs in
          let metrics = Metrics.compute ~jobs sched in
          ( Schedule.makespan sched /. Lower_bounds.cmax ~m jobs,
            metrics.Metrics.sum_weighted_completion
            /. Lower_bounds.sum_weighted_completion ~m jobs ))
        instances
    in
    let cmax_mean, _ = mean_max fst ratios in
    let wc_mean, _ = mean_max snd ratios in
    [ name; Render.float_cell cmax_mean; Render.float_cell wc_mean ]
  in
  Printf.sprintf "T-mix: rigid+moldable mix strategies of S5.1 (m=%d, n=%d, ratios vs LB)\n" m n
  ^ Render.table ~header:[ "strategy"; "Cmax ratio"; "sum wC ratio" ]
      ~rows:(List.map row Rigid_mix.all_strategies)



(* ------------------------------------------------------------ delay model *)

(* Disjoint union of task graphs, for a single global ETF run. *)
let dag_union dags =
  let sizes = List.map Psched_delay.Dag.size dags in
  let offsets =
    List.rev (snd (List.fold_left (fun (acc, out) s -> (acc + s, acc :: out)) (0, []) sizes))
  in
  let costs =
    Array.concat
      (List.map (fun d -> Array.init (Psched_delay.Dag.size d) (Psched_delay.Dag.cost d)) dags)
  in
  let edges =
    List.concat
      (List.map2
         (fun dag offset ->
           List.concat
             (List.init (Psched_delay.Dag.size dag) (fun u ->
                  List.map
                    (fun (v, volume) -> (u + offset, v + offset, volume))
                    (Psched_delay.Dag.successors dag u))))
         dags offsets)
  in
  Psched_delay.Dag.create ~costs ~edges

let delay_model () =
  let m = 16 in
  let rng = Rng.create 808 in
  let dags =
    List.init 6 (fun i ->
        if i mod 2 = 0 then
          Psched_delay.Dag.fork_join rng ~width:8 ~levels:3 ~mean_cost:10.0 ~volume:1.0
        else Psched_delay.Dag.layered rng ~width:6 ~depth:4 ~density:0.3 ~mean_cost:10.0 ~volume:1.0)
  in
  let union = dag_union dags in
  let row delay =
    (* Installable clock (see DESIGN.md section 16): Sys.time only as
       the overridable default of an optional argument. *)
    let time ?(clock = Sys.time) f =
      let t0 = clock () in
      let v = f () in
      (v, clock () -. t0)
    in
    let etf_result, etf_time =
      time (fun () -> (Psched_delay.Etf.schedule ~m ~delay_per_unit:delay union).Psched_delay.Etf.makespan)
    in
    let pt_result, pt_time =
      time (fun () ->
          let jobs =
            List.mapi
              (fun id dag ->
                Psched_delay.Etf.as_moldable_job ~id ~max_procs:m ~delay_per_unit:delay dag)
              dags
          in
          Schedule.makespan (Mrt.schedule ~m jobs))
    in
    [
      Printf.sprintf "%g" delay;
      Render.float_cell etf_result;
      Printf.sprintf "%.1f ms" (1000.0 *. etf_time);
      Render.float_cell pt_result;
      Printf.sprintf "%.1f ms" (1000.0 *. pt_time);
    ]
  in
  Printf.sprintf
    "T-delay: delay model (global ETF) vs PT abstraction (moldable profiles + MRT), m=%d,\n\
     6 applications (fork-join and layered DAGs); PT times include profile construction\n" m
  ^ Render.table
      ~header:[ "delay/unit"; "ETF Cmax"; "ETF time"; "PT Cmax"; "PT time" ]
      ~rows:(List.map row [ 0.0; 0.5; 2.0; 10.0; 50.0 ])

(* --------------------------------------------------------------- stretch *)

let stretch () =
  let m = 32 and n = 150 in
  let instances =
    List.map
      (fun seed ->
        let rng = Rng.create (seed * 2897) in
        let jobs =
          List.init n (fun id ->
              let procs = 1 + Rng.int rng 8 in
              let time = Rng.lognormal rng ~mu:(log 30.0) ~sigma:1.2 in
              Job.rigid ~weight:(Rng.uniform rng 1.0 10.0) ~id ~procs ~time ())
        in
        Workload_gen.with_poisson_arrivals rng ~rate:0.25 jobs
        |> List.map Packing.allocate_rigid)
      seeds
  in
  let row (name, policy) =
    let ms =
      List.map
        (fun allocated ->
          let jobs = List.map fst allocated in
          let sched = Queue_policies.schedule policy ~m allocated in
          Metrics.compute ~jobs sched)
        instances
    in
    [
      name;
      Render.float_cell (Stats.mean (List.map (fun x -> x.Metrics.mean_flow) ms));
      Render.float_cell (Stats.mean (List.map (fun x -> x.Metrics.mean_stretch) ms));
      Render.float_cell (Stats.mean (List.map (fun x -> x.Metrics.max_stretch) ms));
      Render.float_cell (Stats.mean (List.map (fun x -> x.Metrics.makespan) ms));
    ]
  in
  Printf.sprintf
    "T-stretch: queue disciplines on the response-time criteria of S3 (m=%d, n=%d)\n" m n
  ^ Render.table
      ~header:[ "policy"; "mean flow"; "mean stretch"; "max stretch"; "Cmax" ]
      ~rows:(List.map row Queue_policies.all)

(* ------------------------------------------------------------- tardiness *)

let tardiness () =
  let m = 32 and n = 120 in
  let instances =
    List.map
      (fun seed ->
        let rng = Rng.create (seed * 3571) in
        let jobs =
          List.init n (fun id ->
              let procs = 1 + Rng.int rng 8 in
              let time = Rng.uniform rng 5.0 60.0 in
              let release = Rng.float rng 200.0 in
              let slack = Rng.uniform rng 1.5 6.0 in
              Job.make ~release ~due:(release +. (slack *. time)) ~id
                (Job.Rigid { procs; time }))
        in
        List.map Packing.allocate_rigid jobs)
      seeds
  in
  let measure name sched_of =
    let ms =
      List.map
        (fun allocated ->
          let jobs, sched, rejected = sched_of allocated in
          let metrics = Metrics.compute ~jobs sched in
          ( float_of_int metrics.Metrics.tardy_count,
            metrics.Metrics.sum_tardiness,
            metrics.Metrics.max_tardiness,
            float_of_int rejected ))
        instances
    in
    [
      name;
      Render.float_cell (Stats.mean (List.map (fun (a, _, _, _) -> a) ms));
      Render.float_cell (Stats.mean (List.map (fun (_, b, _, _) -> b) ms));
      Render.float_cell (Stats.mean (List.map (fun (_, _, c, _) -> c) ms));
      Render.float_cell (Stats.mean (List.map (fun (_, _, _, d) -> d) ms));
    ]
  in
  let rows =
    [
      measure "FCFS" (fun allocated ->
          (List.map fst allocated, Packing.list_schedule ~m allocated, 0));
      measure "EDD" (fun allocated -> (List.map fst allocated, Due_date.edd ~m allocated, 0));
      measure "EDD + admission" (fun allocated ->
          let o = Due_date.with_admission ~m allocated in
          (o.Due_date.accepted, o.Due_date.schedule, List.length o.Due_date.rejected));
    ]
  in
  Printf.sprintf
    "T-tardiness: due-date criteria of S3 (m=%d, n=%d, slack 1.5-6x; admission rejects late jobs)\n"
    m n
  ^ Render.table
      ~header:[ "policy"; "tardy jobs"; "sum tardiness"; "max tardiness"; "rejected" ]
      ~rows

(* -------------------------------------------------------------- multires *)

(* App-class communities against the vector capacity: the cores-only
   EASY baseline vs the multi-resource policies, per community.  The
   table shows where the scalar engine oversubscribes a non-core
   resource (violations > 0) and what the vector policies pay for
   respecting it.  Cells carry four decimals so that a changed schedule
   shows in the text. *)
let multires () =
  let module R = Psched_platform.Resource in
  let m = 512 and corehours = 20000.0 in
  let cap = R.cap ~cores:m ~memory:(m * 2048) ~bandwidth:1024 () in
  let cell = Printf.sprintf "%.4f" in
  let rows (community, classes) =
    let rng = Rng.create 42 in
    let jobs = App_class.generate rng ~classes ~cap ~corehours in
    (* Poisson arrivals pitched at ~90% offered load on the community's
       bottleneck resource (memory-bound jobs saturate memory long
       before cores), so contention is real and the policies differ. *)
    let resource_seconds pick capacity =
      if R.is_unbounded capacity then 0.0
      else
        List.fold_left
          (fun acc (j : Job.t) -> acc +. (Job.seq_time j *. float_of_int (pick (Job.min_request j))))
          0.0 jobs
        /. float_of_int capacity
    in
    let busy =
      Float.max
        (corehours *. 3600.0 /. float_of_int m)
        (Float.max
           (resource_seconds (fun r -> r.R.memory) cap.R.memory)
           (resource_seconds (fun r -> r.R.bandwidth) cap.R.bandwidth))
    in
    let rate = float_of_int (List.length jobs) /. (busy /. 0.9) in
    let jobs = Workload_gen.with_poisson_arrivals rng ~rate jobs in
    let row policy =
      match Schedulers.run policy (Scheduler_intf.ctx ~cap ~m ()) jobs with
      | Error e -> [ community; policy; Scheduler_intf.error_to_string e ]
      | Ok outcome ->
        let sched = outcome.Scheduler_intf.schedule in
        let makespan = Schedule.makespan sched in
        (* Integral utilisation of a component over the makespan. *)
        let util demand capacity =
          if R.is_unbounded capacity || makespan <= 0.0 then 0.0
          else
            List.fold_left (fun acc e -> acc +. demand e) 0.0 sched.Schedule.entries
            /. (makespan *. float_of_int capacity)
        in
        let requested pick (e : Schedule.entry) =
          match List.find_opt (fun (j : Job.t) -> j.id = e.job_id) jobs with
          | Some job -> e.duration *. float_of_int (pick (Job.request job ~procs:e.procs))
          | None -> 0.0
        in
        let violations =
          Validate.check ~cap ~jobs sched
          |> List.filter (function
               | Validate.Over_resource _ | Validate.Over_capacity _ -> true
               | _ -> false)
          |> List.length
        in
        [
          community;
          policy;
          cell makespan;
          cell (util (fun (e : Schedule.entry) -> e.duration *. float_of_int e.procs) m);
          cell (util (requested (fun r -> r.R.memory)) cap.R.memory);
          cell (util (requested (fun r -> r.R.bandwidth)) cap.R.bandwidth);
          string_of_int violations;
        ]
    in
    List.map row [ "easy"; "list-mr"; "easy-mr" ]
  in
  Printf.sprintf
    "T-multires: app-class communities on %s, %.0f core-hours each, seed 42;\n\
     cores-only EASY vs the multi-resource list and EASY policies (violations: over-capacity\n\
     findings of Validate.check)\n"
    (R.to_string cap) corehours
  ^ Render.table
      ~header:[ "community"; "policy"; "makespan"; "u-cores"; "u-mem"; "u-bw"; "violations" ]
      ~rows:(List.concat_map rows (App_class.communities cap))

let all () =
  [
    ("T-ratio-mrt", mrt ());
    ("T-ratio-online", online ());
    ("T-ratio-smart", smart ());
    ("T-ratio-bicriteria", bicriteria ());
    ("T-dlt", dlt ());
    ("T-grid", grid ());
    ("T-grid-decentralized", multicluster ());
    ("T-mix", mix ());
    ("T-delay", delay_model ());
    ("T-stretch", stretch ());
    ("T-tardiness", tardiness ());
    ("T-multires", multires ());
  ]
