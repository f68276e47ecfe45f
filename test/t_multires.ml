(* The multi-resource engine's load-bearing properties:

   1. Degenerate bit-identity (DESIGN.md section 15): with an unbounded
      or a never-binding capacity vector, the list and EASY engines
      produce entry-for-entry identical schedules to their
      processors-only default — 1000 random instances each — and the
      vector view makes the scalar profile's placements.

   2. The vector view's joint earliest fit, against a brute-force
      oracle over the recorded windows, and its edge behaviour.

   3. Capacity soundness: whatever the demands, a schedule produced by
      "list-mr"/"easy-mr" through the registry never exceeds any
      component of the cluster capacity (multi-resource Validate). *)

open Psched_workload
open Psched_sim
open Psched_core
module R = Psched_platform.Resource
module Obs = Psched_obs.Obs

(* --- generators ------------------------------------------------------ *)

module G = QCheck.Gen

let ( let* ) = G.( >>= )

(* Rigid jobs with releases on a half-integer grid (boundary
   collisions) and durations that collide with each other. *)
let gen_scalar_instance =
  let* m = G.int_range 1 16 in
  let* n = G.int_range 1 25 in
  let* jobs =
    G.list_repeat n
      (let* procs = G.int_range 1 m in
       let* time = G.map (fun k -> 0.5 *. float_of_int k) (G.int_range 1 40) in
       let* release = G.map (fun k -> 0.5 *. float_of_int k) (G.int_range 0 30) in
       G.return (procs, time, release))
  in
  let jobs =
    List.mapi (fun id (procs, time, release) -> Job.rigid ~release ~id ~procs ~time ()) jobs
  in
  G.return (m, jobs)

let pp_instance (m, jobs) =
  Format.asprintf "m=%d@ %a" m (Format.pp_print_list Job.pp) jobs

let arb_scalar = QCheck.make ~print:pp_instance gen_scalar_instance

(* Jobs with full demand vectors, each fitting the (bounded) capacity. *)
let gen_vector_instance =
  let* m = G.int_range 2 16 in
  let* mem_cap = G.int_range 4 64 in
  let* bw_cap = G.int_range 4 64 in
  let* n = G.int_range 1 20 in
  let* jobs =
    G.list_repeat n
      (let* procs = G.int_range 1 m in
       let* time = G.map (fun k -> 0.5 *. float_of_int k) (G.int_range 1 30) in
       let* release = G.map (fun k -> 0.5 *. float_of_int k) (G.int_range 0 20) in
       let* memory = G.int_range 0 mem_cap in
       let* bandwidth = G.int_range 0 bw_cap in
       G.return (procs, time, release, memory, bandwidth))
  in
  let jobs =
    List.mapi
      (fun id (procs, time, release, memory, bandwidth) ->
        Job.rigid ~release ~res:(R.make ~memory ~bandwidth ()) ~id ~procs ~time ())
      jobs
  in
  G.return (R.cap ~cores:m ~memory:mem_cap ~bandwidth:bw_cap (), jobs)

let arb_vector =
  QCheck.make
    ~print:(fun (cap, jobs) ->
      Format.asprintf "cap=%a@ %a" R.pp cap (Format.pp_print_list Job.pp) jobs)
    gen_vector_instance

(* --- 1. degenerate bit-identity -------------------------------------- *)

let entries (s : Schedule.t) =
  List.map (fun (e : Schedule.entry) -> (e.job_id, e.start, e.procs, e.duration)) s.entries
  |> List.sort compare

let allocated jobs = List.map (fun (j : Job.t) -> (j, Job.min_procs j)) jobs

(* Capacities on which the processors-only schedule of [jobs] must not
   move: the unbounded one, and two bounded ones that never bind — zero
   demands on a capacity of 1, and unit demands on one unit per job.
   The bounded ones send every probe and every reserve/release of the
   engine through the tracked components, the last one with a real
   timeline call on each. *)
let never_binding m jobs =
  let n = List.length jobs in
  let unit = R.make ~memory:1 ~bandwidth:1 () in
  [
    (R.cap ~cores:m (), jobs);
    (R.cap ~cores:m ~memory:1 ~bandwidth:1 (), jobs);
    ( R.cap ~cores:m ~memory:n ~bandwidth:n (),
      List.map (fun (j : Job.t) -> { j with res = unit }) jobs );
  ]

let qcheck_easy_bit_identity =
  T_helpers.qtest ~count:1000 "easy-mr = easy with unbounded capacity (bit-identical)"
    arb_scalar
    (fun (m, jobs) ->
      let scalar = entries (Backfilling.easy ~m (allocated jobs)) in
      List.for_all
        (fun (cap, jobs) ->
          compare (entries (Backfilling.easy ~cap ~m (allocated jobs))) scalar = 0)
        (never_binding m jobs))

let qcheck_list_bit_identity =
  T_helpers.qtest ~count:1000 "list-mr = list with unbounded capacity (bit-identical)"
    arb_scalar
    (fun (m, jobs) ->
      let scalar = entries (Packing.list_schedule ~m (allocated jobs)) in
      List.for_all
        (fun (cap, jobs) ->
          compare (entries (Packing.list_schedule ~cap ~m (allocated jobs))) scalar = 0)
        (never_binding m jobs))

(* The view degenerates to Profile: same place dates under random
   core-only traffic, with and without tracked non-core components. *)
let qcheck_rprofile_degenerate =
  T_helpers.qtest ~count:500 "Rprofile = Profile on core-only traffic" arb_scalar
    (fun (m, jobs) ->
      let p = Profile.create m in
      let rp = Rprofile.create (R.cap ~cores:m ()) in
      let bounded = Rprofile.create (R.cap ~cores:m ~memory:1 ~bandwidth:1 ()) in
      List.for_all
        (fun (j : Job.t) ->
          let procs = Job.min_procs j in
          let duration = Job.seq_time j in
          let s = Profile.place p ~earliest:j.release ~duration ~procs in
          let s' = Rprofile.place rp ~earliest:j.release ~duration ~procs ~res:R.zero in
          let s'' = Rprofile.place bounded ~earliest:j.release ~duration ~procs ~res:R.zero in
          Float.equal s s' && Float.equal s s'')
        jobs)

(* --- 2. the vector view against a brute-force oracle ------------------ *)

type op =
  | Place of { earliest : float; duration : float; procs : int; memory : int; bandwidth : int }
  | Release of int  (* a recorded window, by index modulo their number *)

type window = { start : float; duration : float; w_procs : int; w_res : R.t }

(* The window's end as the profile computes it. *)
let stop w = w.start +. w.duration

(* Each non-core component unbounded, 0, or 1-64; demands mostly
   within capacity, sometimes just past it. *)
let gen_view_instance =
  let component =
    G.frequency [ (1, G.return R.unbounded_amount); (1, G.return 0); (3, G.int_range 1 64) ]
  in
  let* m = G.int_range 1 8 in
  let* memory = component in
  let* bandwidth = component in
  let demand cap =
    let bound = if R.is_unbounded cap then 64 else cap in
    G.frequency
      [ (1, G.return 0); (6, G.int_range 0 bound); (1, G.int_range (bound + 1) (bound + 8)) ]
  in
  let half lo hi = G.map (fun k -> 0.5 *. float_of_int k) (G.int_range lo hi) in
  let place =
    let* earliest = half 0 30 in
    let* duration = half 1 20 in
    let* procs = G.frequency [ (8, G.int_range 1 m); (1, G.return (m + 1)) ] in
    let* memory = demand memory in
    let* bandwidth = demand bandwidth in
    G.return (Place { earliest; duration; procs; memory; bandwidth })
  in
  let op = G.frequency [ (5, place); (1, G.map (fun i -> Release i) G.nat) ] in
  let* ops = G.list_size (G.int_range 1 30) op in
  G.return (R.cap ~cores:m ~memory ~bandwidth (), ops)

let pp_op ppf = function
  | Place { earliest; duration; procs; memory; bandwidth } ->
    Format.fprintf ppf "place @%g +%g x%d mem %d bw %d" earliest duration procs memory bandwidth
  | Release i -> Format.fprintf ppf "release #%d" i

let arb_view =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Format.asprintf "cap=%a@ %a" R.pp cap (Format.pp_print_list pp_op) ops)
    gen_view_instance

(* Whether the request fits every bounded component over
   [s, s + duration): the recorded windows' summed demand is checked at
   [s] and at every window edge inside the interval, the only dates
   where it can change. *)
let oracle_fits (cap : R.t) windows ~s ~duration ~procs ~(res : R.t) =
  let until = s +. duration in
  let dates =
    s
    :: List.concat_map
         (fun w -> List.filter (fun d -> d > s && d < until) [ w.start; stop w ])
         windows
  in
  let fits_at t =
    let running = List.filter (fun w -> w.start <= t && t < stop w) windows in
    let used f = List.fold_left (fun acc w -> acc + f w) 0 running in
    let component capacity demand f =
      R.is_unbounded capacity || used f + demand <= capacity
    in
    component cap.R.cores procs (fun w -> w.w_procs)
    && component cap.R.memory res.R.memory (fun w -> w.w_res.R.memory)
    && component cap.R.bandwidth res.R.bandwidth (fun w -> w.w_res.R.bandwidth)
  in
  List.for_all fits_at dates

let exceeds (cap : R.t) ~procs ~(res : R.t) =
  procs > cap.R.cores
  || ((not (R.is_unbounded cap.R.memory)) && res.R.memory > cap.R.memory)
  || ((not (R.is_unbounded cap.R.bandwidth)) && res.R.bandwidth > cap.R.bandwidth)

let qcheck_view_oracle =
  T_helpers.qtest ~count:1000 "Rprofile finds the joint earliest fit (brute-force oracle)"
    arb_view (fun (cap, ops) ->
      let view = Rprofile.create cap in
      let windows = ref [] in
      List.iter
        (function
          | Release i -> (
            match !windows with
            | [] -> ()
            | ws ->
              let w = List.nth ws (i mod List.length ws) in
              Rprofile.release view ~start:w.start ~duration:w.duration ~procs:w.w_procs
                ~res:w.w_res;
              windows := List.filter (fun w' -> w' != w) ws)
          | Place { earliest; duration; procs; memory; bandwidth } -> (
            let res = R.make ~memory ~bandwidth () in
            match Rprofile.find_start view ~earliest ~duration ~procs ~res with
            | exception Not_found ->
              if not (exceeds cap ~procs ~res) then
                QCheck.Test.fail_reportf "Not_found for a demand within capacity"
            | s ->
              if exceeds cap ~procs ~res then
                QCheck.Test.fail_reportf "start %g for a demand past capacity" s;
              if s < earliest then QCheck.Test.fail_reportf "start %g before %g" s earliest;
              if not (oracle_fits cap !windows ~s ~duration ~procs ~res) then
                QCheck.Test.fail_reportf "start %g does not fit" s;
              let candidates = earliest :: List.map stop !windows in
              List.iter
                (fun c ->
                  if c >= earliest && c < s && oracle_fits cap !windows ~s:c ~duration ~procs ~res
                  then QCheck.Test.fail_reportf "start %g, but %g fits earlier" s c)
                candidates;
              Rprofile.reserve view ~start:s ~duration ~procs ~res;
              windows := { start = s; duration; w_procs = procs; w_res = res } :: !windows))
        ops;
      true)

(* --- edge behaviour ----------------------------------------------------- *)

let find view ?(earliest = 0.0) ~duration ~procs res =
  Rprofile.find_start view ~earliest ~duration ~procs ~res

let test_view_not_found () =
  let view = Rprofile.create (R.cap ~cores:4 ~memory:10 ()) in
  let not_found what f =
    Alcotest.(check bool) what true (match f () with _ -> false | exception Not_found -> true)
  in
  not_found "cores past capacity" (fun () -> find view ~duration:1.0 ~procs:5 R.zero);
  not_found "memory past capacity" (fun () ->
      find view ~duration:1.0 ~procs:1 (R.make ~memory:11 ()));
  T_helpers.check_float "unbounded bandwidth takes any demand" 0.0
    (find view ~duration:1.0 ~procs:1 (R.make ~bandwidth:1_000_000 ()))

let test_view_over_reservation_unchanged () =
  let view = Rprofile.create (R.cap ~cores:4 ~memory:10 ~bandwidth:10 ()) in
  Rprofile.reserve view ~start:0.0 ~duration:10.0 ~procs:2 ~res:(R.make ~memory:8 ~bandwidth:8 ());
  (* Each probe moves if one component gains or loses a unit on [5, 10). *)
  let probes () =
    List.map
      (fun (procs, memory, bandwidth) ->
        find view ~duration:20.0 ~procs (R.make ~memory ~bandwidth ()))
      [ (2, 0, 0); (3, 0, 0); (1, 2, 0); (1, 3, 0); (1, 0, 2); (1, 0, 3) ]
  in
  let before = probes () in
  let refused what f =
    Alcotest.(check bool) what true
      (match f () with () -> false | exception Invalid_argument _ -> true);
    Alcotest.(check (list (float 0.0))) (what ^ ": profile unchanged") before (probes ())
  in
  (* Cores fit, memory does not: the cores reservation is undone. *)
  refused "memory over-reservation" (fun () ->
      Rprofile.reserve view ~start:5.0 ~duration:10.0 ~procs:1 ~res:(R.make ~memory:5 ()));
  (* Cores and memory fit, bandwidth does not: both are undone. *)
  refused "bandwidth over-reservation" (fun () ->
      Rprofile.reserve view ~start:5.0 ~duration:10.0 ~procs:1
        ~res:(R.make ~memory:1 ~bandwidth:5 ()));
  refused "cores over-reservation" (fun () ->
      Rprofile.reserve view ~start:5.0 ~duration:10.0 ~procs:3 ~res:(R.make ~memory:1 ()));
  (* Cores and memory fit back, bandwidth would pass its capacity. *)
  refused "release past capacity" (fun () ->
      Rprofile.release view ~start:0.0 ~duration:10.0 ~procs:2
        ~res:(R.make ~memory:5 ~bandwidth:9 ()))

let test_view_zero_capacity () =
  let view = Rprofile.create (R.cap ~cores:2 ~memory:0 ()) in
  Alcotest.(check bool) "a zero capacity is bounded" false (Rprofile.cores_only view);
  T_helpers.check_float "zero demand fits" 3.0 (find view ~earliest:3.0 ~duration:1.0 ~procs:1 R.zero);
  Alcotest.(check bool) "positive demand never fits" true
    (match find view ~duration:1.0 ~procs:1 (R.make ~memory:1 ()) with
    | _ -> false
    | exception Not_found -> true);
  Alcotest.(check bool) "positive demand cannot be reserved" true
    (match Rprofile.reserve view ~start:0.0 ~duration:1.0 ~procs:1 ~res:(R.make ~memory:1 ()) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Rprofile.reserve view ~start:0.0 ~duration:1.0 ~procs:2 ~res:R.zero;
  T_helpers.check_float "zero-demand reservation taken" 1.0 (find view ~duration:1.0 ~procs:1 R.zero)

(* --- 3. capacity soundness ------------------------------------------- *)

let no_capacity_violation policy (cap, jobs) =
  let ctx = Scheduler_intf.ctx ~cap ~m:cap.R.cores () in
  match Schedulers.run policy ctx jobs with
  | Error e -> QCheck.Test.fail_reportf "%s" (Scheduler_intf.error_to_string e)
  | Ok outcome ->
    let violations = Validate.check ~cap ~jobs outcome.Scheduler_intf.schedule in
    List.for_all
      (function
        | Validate.Over_capacity _ | Validate.Over_resource _ -> false
        | _ -> true)
      violations

let qcheck_list_mr_sound =
  T_helpers.qtest ~count:500 "list-mr never exceeds any resource capacity" arb_vector
    (no_capacity_violation "list-mr")

let qcheck_easy_mr_sound =
  T_helpers.qtest ~count:500 "easy-mr never exceeds any resource capacity" arb_vector
    (no_capacity_violation "easy-mr")

(* --- registry plumbing ------------------------------------------------ *)

let test_registry_exposes_mr () =
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " registered") true
        (List.mem name Schedulers.names))
    [ "list-mr"; "easy-mr" ]

let test_over_resource_error () =
  let cap = R.cap ~cores:8 ~memory:100 () in
  let jobs = [ Job.rigid ~res:(R.make ~memory:200 ()) ~id:0 ~procs:2 ~time:10.0 () ] in
  let ctx = Scheduler_intf.ctx ~cap ~m:8 () in
  match Schedulers.run "easy-mr" ctx jobs with
  | Error (Scheduler_intf.Over_resource { job = 0; resource = "memory"; need = 200; capacity = 100; _ })
    -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Scheduler_intf.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Over_resource"

let test_easy_mr_respects_memory () =
  (* Two jobs that fit together on cores but not in memory: the vector
     engine must serialise them where the scalar engine would overlap. *)
  let cap = R.cap ~cores:8 ~memory:100 () in
  let job id = Job.rigid ~res:(R.make ~memory:60 ()) ~id ~procs:2 ~time:10.0 () in
  let jobs = [ job 0; job 1 ] in
  let ctx = Scheduler_intf.ctx ~cap ~m:8 () in
  match Schedulers.run "easy-mr" ctx jobs with
  | Error e -> Alcotest.failf "%s" (Scheduler_intf.error_to_string e)
  | Ok outcome ->
    let sched = outcome.Scheduler_intf.schedule in
    Alcotest.(check int) "both scheduled" 2 (List.length sched.Schedule.entries);
    T_helpers.check_float "serialised" 20.0 (Schedule.makespan sched);
    Alcotest.(check (list Alcotest.reject)) "no violations" []
      (Validate.check ~cap ~jobs sched)

let test_validate_flags_scalar_oversubscription () =
  (* The scalar engine ignores memory; multi-resource Validate must
     flag the overlap it produces. *)
  let cap = R.cap ~cores:8 ~memory:100 () in
  let job id = Job.rigid ~res:(R.make ~memory:60 ()) ~id ~procs:2 ~time:10.0 () in
  let jobs = [ job 0; job 1 ] in
  let sched = Backfilling.easy ~m:8 (allocated jobs) in
  let over =
    Validate.check ~cap ~jobs sched
    |> List.filter (function Validate.Over_resource _ -> true | _ -> false)
  in
  Alcotest.(check bool) "memory oversubscription flagged" true (over <> [])

(* Traced list placement records a start for every job, so "psched
   explain --all" accounts for each of them. *)
let test_list_traces_explained () =
  let cap = R.cap ~cores:4 ~memory:100 () in
  let jobs =
    List.init 12 (fun id ->
        Job.rigid ~release:(float_of_int (id / 3)) ~res:(R.make ~memory:(20 * (id mod 4)) ())
          ~id ~procs:(1 + (id mod 4)) ~time:(1.0 +. float_of_int (id mod 5)) ())
  in
  List.iter
    (fun policy ->
      let obs = Obs.create () in
      match Schedulers.run policy (Scheduler_intf.ctx ~obs ~cap ~m:4 ()) jobs with
      | Error e -> Alcotest.failf "%s: %s" policy (Scheduler_intf.error_to_string e)
      | Ok _ ->
        let module P = Psched_obs.Provenance in
        let timelines = P.of_events (Obs.events obs) in
        Alcotest.(check int) (policy ^ ": every job traced") 12 (List.length timelines);
        Alcotest.(check int) (policy ^ ": none unexplained") 0
          (List.length (P.unexplained ~terminal_placed:true timelines)))
    [ "conservative"; "list-mr" ]

(* Span labels follow the capacity, so perfbench's span.easy.* and
   span.easy-mr.* rows keep measuring the scalar and the vector
   instance of the one engine. *)
let test_span_labels_follow_capacity () =
  let jobs = List.init 3 (fun id -> Job.rigid ~id ~procs:(4 - id) ~time:10.0 ()) in
  let spans cap =
    let obs = Obs.create () in
    ignore (Backfilling.easy ~obs ?cap ~m:4 (allocated jobs));
    List.map fst (Obs.span_stats obs)
  in
  Alcotest.(check (list string)) "cores only" [ "easy"; "easy;easy.backfill" ]
    (List.filter (fun p -> not (String.ends_with ~suffix:"query" p)) (spans None));
  Alcotest.(check (list string)) "memory bounded" [ "easy-mr"; "easy-mr;easy-mr.backfill" ]
    (List.filter
       (fun p -> not (String.ends_with ~suffix:"query" p))
       (spans (Some (R.cap ~cores:4 ~memory:100 ()))))

let suite =
  [
    qcheck_easy_bit_identity;
    qcheck_list_bit_identity;
    qcheck_rprofile_degenerate;
    qcheck_view_oracle;
    Alcotest.test_case "view: demand past capacity is Not_found" `Quick test_view_not_found;
    Alcotest.test_case "view: refused reservation leaves it unchanged" `Quick
      test_view_over_reservation_unchanged;
    Alcotest.test_case "view: zero capacity takes zero demand only" `Quick test_view_zero_capacity;
    qcheck_list_mr_sound;
    qcheck_easy_mr_sound;
    Alcotest.test_case "registry exposes list-mr and easy-mr" `Quick test_registry_exposes_mr;
    Alcotest.test_case "over-resource jobs get a typed error" `Quick test_over_resource_error;
    Alcotest.test_case "easy-mr serialises on memory" `Quick test_easy_mr_respects_memory;
    Alcotest.test_case "validate flags scalar oversubscription" `Quick
      test_validate_flags_scalar_oversubscription;
    Alcotest.test_case "traced list placement explains every job" `Quick
      test_list_traces_explained;
    Alcotest.test_case "span labels follow the capacity" `Quick test_span_labels_follow_capacity;
  ]
