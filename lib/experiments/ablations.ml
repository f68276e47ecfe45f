open Psched_util
open Psched_core
open Psched_sim
open Psched_workload

let seeds = [ 1; 2; 3; 4; 5 ]

let moldable_instances ~n ~m =
  List.map
    (fun seed ->
      let rng = Rng.create ((seed * 6151) + n) in
      Workload_gen.moldable_uniform rng ~n ~m ~tmin:1.0 ~tmax:100.0)
    seeds

let mrt_epsilon () =
  let m = 64 and n = 100 in
  let instances = moldable_instances ~n ~m in
  let row epsilon =
    (* CPU-time attribution with the clock as an installable optional
       argument (the det-wallclock idiom): the table's timings are
       advisory, and the default stays overridable. *)
    let timed ?(clock = Sys.time) f =
      let t0 = clock () in
      let v = f () in
      (v, clock () -. t0)
    in
    let ratios =
      List.map
        (fun jobs ->
          let sched, dt = timed (fun () -> Mrt.schedule ~epsilon ~m jobs) in
          (Schedule.makespan sched /. Lower_bounds.cmax ~m jobs, dt))
        instances
    in
    [
      Printf.sprintf "%g" epsilon;
      Render.float_cell (Stats.mean (List.map fst ratios));
      Render.float_cell (Stats.max_l (List.map fst ratios));
      Printf.sprintf "%.2f ms" (1000.0 *. Stats.mean (List.map snd ratios));
    ]
  in
  Printf.sprintf "A-mrt-epsilon: dual-approximation precision (m=%d, n=%d)\n" m n
  ^ Render.table ~header:[ "epsilon"; "ratio mean"; "ratio max"; "time" ]
      ~rows:(List.map row [ 0.2; 0.1; 0.05; 0.01; 0.001 ])

let bicriteria_rho () =
  let m = 64 and n = 100 in
  let instances = moldable_instances ~n ~m in
  let row rho =
    let measures =
      List.map
        (fun jobs ->
          let sched = Bicriteria.schedule ~rho ~m jobs in
          let metrics = Metrics.compute ~jobs sched in
          ( Schedule.makespan sched /. Lower_bounds.cmax ~m jobs,
            metrics.Metrics.sum_weighted_completion
            /. Lower_bounds.sum_weighted_completion ~m jobs ))
        instances
    in
    [
      Printf.sprintf "%g" rho;
      Render.float_cell (Stats.mean (List.map fst measures));
      Render.float_cell (Stats.mean (List.map snd measures));
    ]
  in
  Printf.sprintf
    "A-bicriteria-rho: dual ratio budget (m=%d, n=%d; small rho = tight batches)\n" m n
  ^ Render.table ~header:[ "rho"; "Cmax ratio"; "sum wC ratio" ]
      ~rows:(List.map row [ 1.0; 1.25; 1.5; 2.0; 3.0 ])

let stealing_chunk () =
  let open Psched_dlt in
  let mk_latency latency =
    List.init 16 (fun i ->
        Worker.make ~latency ~id:i ~w:(0.5 +. (0.1 *. float_of_int (i mod 5))) ~z:0.02 ())
  in
  let units = 2000 in
  let row chunk =
    let cells =
      List.map
        (fun latency ->
          let workers = mk_latency latency in
          let o = Work_stealing.simulate ~units ~chunk workers in
          let lb = Work_stealing.lower_bound ~units workers in
          Render.float_cell (o.Work_stealing.makespan /. lb))
        [ 0.0; 0.1; 1.0 ]
    in
    Printf.sprintf "%d" chunk :: cells
  in
  "A-steal-chunk: work stealing chunk size vs per-transfer latency (makespan / perfect-sharing LB)\n"
  ^ Render.table
      ~header:[ "chunk"; "latency 0"; "latency 0.1"; "latency 1.0" ]
      ~rows:(List.map row [ 1; 5; 20; 100; 500 ])

let estimate_error () =
  let m = 32 and n = 80 in
  let instances =
    List.map
      (fun seed ->
        let rng = Rng.create (seed * 409) in
        Workload_gen.rigid_uniform rng ~n ~m ~tmin:1.0 ~tmax:50.0
        |> Workload_gen.with_poisson_arrivals rng ~rate:0.3
        |> List.map Packing.allocate_rigid)
      seeds
  in
  let measure estimator =
    let per_instance =
      List.map
        (fun allocated ->
          let jobs = List.map fst allocated in
          let sched = Nonclairvoyant.easy ~estimator ~m allocated in
          let metrics = Metrics.compute ~jobs sched in
          (metrics.Metrics.makespan /. Lower_bounds.cmax ~m jobs, metrics.Metrics.mean_flow))
        instances
    in
    (Stats.mean (List.map fst per_instance), Stats.mean (List.map snd per_instance))
  in
  let row (name, estimator) =
    let cmax, flow = measure estimator in
    [ name; Render.float_cell cmax; Render.float_cell flow ]
  in
  let cases =
    [
      ("exact (clairvoyant)", Nonclairvoyant.exact);
      ("x2 overestimate", Nonclairvoyant.overestimate ~factor:2.0);
      ("x5 overestimate", Nonclairvoyant.overestimate ~factor:5.0);
      ("noisy <= x10", Nonclairvoyant.noisy ~seed:7 ~max_factor:10.0);
    ]
  in
  Printf.sprintf
    "A-estimates: EASY backfilling under runtime over-estimation (m=%d, n=%d)\n" m n
  ^ Render.table ~header:[ "estimator"; "Cmax ratio"; "mean flow" ] ~rows:(List.map row cases)

let malleability_gain () =
  let m = 64 and n = 80 in
  let row seed =
    let rng = Rng.create (seed * 1223) in
    let jobs = Workload_gen.moldable_uniform rng ~n ~m ~tmin:1.0 ~tmax:100.0 in
    let moldable = Schedule.makespan (Mrt.schedule ~m jobs) in
    let tasks = List.map (Malleable.of_job ~m) jobs in
    let malleable = (Malleable.simulate ~m tasks).Malleable.makespan in
    let fluid_lb = Malleable.fluid_lower_bound ~m tasks in
    [
      string_of_int seed;
      Render.float_cell moldable;
      Render.float_cell malleable;
      Render.float_cell (moldable /. malleable);
      Render.float_cell fluid_lb;
    ]
  in
  Printf.sprintf
    "A-malleable: moldable (MRT) vs malleable (equipartition fluid) makespan (m=%d, n=%d)\n" m n
  ^ Render.table
      ~header:[ "seed"; "moldable Cmax"; "malleable Cmax"; "gain"; "fluid LB" ]
      ~rows:(List.map row seeds)

let hierarchical () =
  let grid = Psched_platform.Platform.ciment in
  let row seed =
    let rng = Rng.create (seed * 881) in
    let jobs = Workload_gen.moldable_uniform rng ~n:120 ~m:64 ~tmin:1.0 ~tmax:100.0 in
    let prop =
      Psched_grid.Hierarchical.schedule ~strategy:Psched_grid.Hierarchical.Proportional ~grid jobs
    in
    let fast =
      Psched_grid.Hierarchical.schedule ~strategy:Psched_grid.Hierarchical.Fastest_fit ~grid jobs
    in
    [
      string_of_int seed;
      Render.float_cell prop.Psched_grid.Hierarchical.makespan;
      Render.float_cell fast.Psched_grid.Hierarchical.makespan;
      Render.float_cell prop.Psched_grid.Hierarchical.lower_bound;
      Render.float_cell
        (prop.Psched_grid.Hierarchical.makespan /. prop.Psched_grid.Hierarchical.lower_bound);
    ]
  in
  "A-hierarchical: moldable jobs across the CIMENT clusters (partition + per-cluster MRT)\n"
  ^ Render.table
      ~header:[ "seed"; "proportional Cmax"; "fastest-fit Cmax"; "grid LB"; "prop ratio" ]
      ~rows:(List.map row seeds)

let reservations_cost () =
  let m = 32 in
  let mk_res share =
    if share = 0 then []
    else
      [
        Psched_platform.Reservation.make ~id:0 ~start:20.0 ~duration:40.0 ~procs:(m * share / 100);
        Psched_platform.Reservation.make ~id:1 ~start:80.0 ~duration:30.0 ~procs:(m * share / 100);
      ]
  in
  let row share =
    let reservations = mk_res share in
    let measures =
      List.map
        (fun seed ->
          let rng = Rng.create (seed * 4019) in
          let jobs = Workload_gen.moldable_uniform rng ~n:80 ~m ~tmin:1.0 ~tmax:50.0 in
          let batch = Reservation_batches.schedule ~m ~reservations jobs in
          let conservative =
            Backfilling.conservative ~reservations ~m
              (Moldable_alloc.allocate (Moldable_alloc.work_bounded ~m ~delta:0.25) jobs)
          in
          (Schedule.makespan batch, Schedule.makespan conservative))
        seeds
    in
    [
      Printf.sprintf "%d%%" share;
      Render.float_cell (Stats.mean (List.map fst measures));
      Render.float_cell (Stats.mean (List.map snd measures));
      Render.float_cell
        (Stats.mean (List.map (fun (b, c) -> b /. c) measures));
    ]
  in
  "A-reservations: batch boundaries aligned to reservations vs conservative backfilling\n\
   (S5.1 suspects the batch variant 'would likely be inefficient')\n"
  ^ Render.table
      ~header:[ "reserved share"; "aligned batches Cmax"; "conservative Cmax"; "ratio" ]
      ~rows:(List.map row [ 0; 25; 50 ])

let versatility () =
  let m = 32 in
  let row rate =
    let measures =
      List.map
        (fun seed ->
          let rng = Rng.create (seed * 5407) in
          let jobs =
            Workload_gen.rigid_uniform rng ~n:60 ~m ~tmin:5.0 ~tmax:50.0
            |> Workload_gen.with_poisson_arrivals rng ~rate:0.1
            |> List.map Packing.allocate_rigid
          in
          let outages =
            Psched_grid.Resilience.poisson_outages rng ~horizon:2000.0 ~rate ~mean_duration:60.0
              ~max_procs:(m / 2)
          in
          let o = Psched_grid.Resilience.simulate ~m ~outages jobs in
          ( o.Psched_grid.Resilience.makespan,
            float_of_int o.Psched_grid.Resilience.restarts,
            o.Psched_grid.Resilience.wasted_work ))
        seeds
    in
    [
      Printf.sprintf "%g" rate;
      Render.float_cell (Stats.mean (List.map (fun (a, _, _) -> a) measures));
      Render.float_cell (Stats.mean (List.map (fun (_, b, _) -> b) measures));
      Render.float_cell (Stats.mean (List.map (fun (_, _, c) -> c) measures));
    ]
  in
  "A-versatility: node outages (kill + restart from scratch) under greedy FCFS (S1.1)\n"
  ^ Render.table
      ~header:[ "outage rate (/s)"; "Cmax"; "restarts"; "wasted proc.s" ]
      ~rows:(List.map row [ 0.0; 0.002; 0.01; 0.05 ])

(* The whole registry on one mixed workload, selected by name through
   the unified API — the policy sweep `psched policies` advertises. *)
let policy_registry () =
  let m = 32 and n = 60 in
  let rng = Rng.create 9733 in
  let jobs =
    Workload_gen.moldable_uniform rng ~n ~m ~tmin:1.0 ~tmax:100.0
    |> Workload_gen.with_poisson_arrivals rng ~rate:0.2
  in
  let row name =
    let ctx releases = Scheduler_intf.ctx ~releases ~m () in
    let outcome =
      match Schedulers.run name (ctx Scheduler_intf.Honour) jobs with
      | Ok o -> Some (o, "honoured")
      | Error (Scheduler_intf.Needs_zero_releases _) -> (
        match Schedulers.run name (ctx Scheduler_intf.Zero) jobs with
        | Ok o -> Some (o, "zeroed")
        | Error _ -> None)
      | Error _ -> None
    in
    match outcome with
    | None -> [ name; "-"; "-"; "-"; "unsupported" ]
    | Some (o, releases) ->
      let s = o.Scheduler_intf.stats in
      [
        name;
        Render.float_cell s.Scheduler_intf.makespan;
        Render.float_cell s.Scheduler_intf.utilisation;
        string_of_int s.Scheduler_intf.scheduled;
        releases;
      ]
  in
  "A-registry: every registry policy on one moldable workload (n=60, m=32, Poisson releases),\n\
   selected by name through the unified Scheduler_intf API\n"
  ^ Render.table
      ~header:[ "policy"; "Cmax"; "util"; "scheduled"; "releases" ]
      ~rows:(List.map row Schedulers.names)

let studies =
  [
    ("A-mrt-epsilon", mrt_epsilon);
    ("A-bicriteria-rho", bicriteria_rho);
    ("A-steal-chunk", stealing_chunk);
    ("A-estimates", estimate_error);
    ("A-malleable", malleability_gain);
    ("A-hierarchical", hierarchical);
    ("A-reservations", reservations_cost);
    ("A-versatility", versatility);
    ("A-registry", policy_registry);
  ]

let all () = List.map (fun (id, study) -> (id, study ())) studies
