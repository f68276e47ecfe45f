(* Shared generators and checkers for the test suites. *)

open Psched_workload

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let check_float = Alcotest.(check (float 1e-6))

(* Naive substring search, for asserting on rendered output. *)
let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  k = 0 || at 0

(* --- generators ------------------------------------------------------ *)

module G = QCheck.Gen

let ( let* ) = G.( >>= )

let gen_weight = G.float_range 1.0 10.0

let gen_rigid ~m id =
  let* procs = G.int_range 1 m in
  let* time = G.float_range 0.5 50.0 in
  let* weight = gen_weight in
  G.return (Job.rigid ~weight ~id ~procs ~time ())

let gen_model =
  G.frequency
    [
      (1, G.return Speedup.Linear);
      (3, G.map (fun f -> Speedup.Amdahl { seq_fraction = f }) (G.float_range 0.0 0.6));
      (2, G.map (fun a -> Speedup.Power { alpha = a }) (G.float_range 0.4 1.0));
      (1, G.map (fun o -> Speedup.Comm_penalty { overhead = o }) (G.float_range 0.0 2.0));
      ( 2,
        G.map2
          (fun a sigma -> Speedup.Downey { avg_parallelism = a; sigma })
          (G.float_range 1.0 32.0) (G.float_range 0.0 3.0) );
    ]

let gen_moldable ~m id =
  let* t1 = G.float_range 0.5 50.0 in
  let* max_procs = G.int_range 1 m in
  let* model = gen_model in
  let* weight = gen_weight in
  G.return (Job.of_model ~weight ~id ~model ~t1 ~max_procs ())

let gen_job ~m id = G.frequency [ (1, gen_rigid ~m id); (2, gen_moldable ~m id) ]

let with_releases gen =
  let* jobs = gen in
  let* use_releases = G.bool in
  if not use_releases then G.return jobs
  else
    let* gaps = G.list_repeat (List.length jobs) (G.float_range 0.0 20.0) in
    let _, stamped =
      List.fold_left2
        (fun (clock, acc) job gap ->
          let clock = clock +. gap in
          (clock, { job with Job.release = clock } :: acc))
        (0.0, []) jobs gaps
    in
    G.return (List.rev stamped)

(* (m, jobs) instances. *)
let gen_instance ?(max_m = 16) ?(max_n = 12) ?(releases = false) ~kind () =
  let* m = G.int_range 2 max_m in
  let* n = G.int_range 1 max_n in
  let gen_one =
    match kind with `Rigid -> gen_rigid ~m | `Moldable -> gen_moldable ~m | `Mixed -> gen_job ~m
  in
  let base =
    let rec build acc i =
      if i >= n then G.return (List.rev acc)
      else
        let* j = gen_one i in
        build (j :: acc) (i + 1)
    in
    build [] 0
  in
  let* jobs = if releases then with_releases base else base in
  G.return (m, jobs)

let print_instance (m, jobs) =
  Format.asprintf "m=%d@ %a" m (Format.pp_print_list Job.pp) jobs

let arb_instance ?max_m ?max_n ?releases kind =
  QCheck.make ~print:print_instance (gen_instance ?max_m ?max_n ?releases ~kind ())

(* --- on-line engine instances ------------------------------------------ *)

(* Instances whose event dates are equal or at least 1/4 apart: times
   and releases are multiples of 1/4 (exact in binary, so every sum is
   too), drawn from small ranges so that many dates tie exactly.  The
   oracles merge events within 1e-9, so they are only trusted on such
   instances. *)
let gen_spaced =
  let open G in
  let quarter lo hi = map (fun k -> float_of_int k /. 4.0) (int_range lo hi) in
  let* m = int_range 1 16 in
  let* n = int_range 1 25 in
  let* tmax = oneofl [ 4; 40; 200 ] in
  let* rmax = oneofl [ 0; 8; 100 ] in
  let job id =
    let* procs = int_range 1 m in
    let* time = quarter 1 tmax in
    let* release = quarter 0 rmax in
    let* weight = float_range 1.0 10.0 in
    return (Job.rigid ~weight ~release ~id ~procs ~time ())
  in
  let* jobs = flatten_l (List.init n job) in
  (* Up to three reservations, one after another so they stay within
     capacity. *)
  let* k = int_range 0 3 in
  let* spans = list_repeat k (triple (quarter 0 40) (quarter 1 40) (int_range 1 m)) in
  let _, reservations =
    List.fold_left
      (fun (clock, acc) (gap, duration, procs) ->
        let start = clock +. gap in
        ( start +. duration,
          Psched_platform.Reservation.make ~id:(List.length acc) ~start ~duration ~procs :: acc ))
      (0.0, []) spans
  in
  return (m, jobs, List.rev reservations)

let arb_spaced =
  QCheck.make
    ~print:(fun (m, jobs, rs) ->
      Format.asprintf "%s@ reservations %a" (print_instance (m, jobs))
        (Format.pp_print_list Psched_platform.Reservation.pp)
        rs)
    gen_spaced

(* Differential check against an {!Online_oracle} loop. *)
let same_schedule label a b =
  a = b
  || QCheck.Test.fail_reportf "%s:@ engine %a@ oracle %a" label Psched_sim.Schedule.pp a
       Psched_sim.Schedule.pp b

let estimators =
  [
    ("exact", Psched_core.Nonclairvoyant.exact);
    ("x2", Psched_core.Nonclairvoyant.overestimate ~factor:2.0);
    ("noisy", Psched_core.Nonclairvoyant.noisy ~seed:3 ~max_factor:5.0);
  ]

(* --- checkers -------------------------------------------------------- *)

let assert_valid ?reservations ~jobs sched =
  match Psched_sim.Validate.check ?reservations ~jobs sched with
  | [] -> true
  | vs ->
    QCheck.Test.fail_reportf "invalid schedule:@ %a@ %a"
      (Format.pp_print_list Psched_sim.Validate.pp_violation)
      vs Psched_sim.Schedule.pp sched

(* Reference makespan: best list schedule over all permutations and all
   feasible allocation vectors; an upper bound on the optimum that is
   usually tight on tiny instances. *)
let best_permutation_makespan ~m jobs =
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y != x) xs in
          List.map (fun p -> x :: p) (perms rest))
        xs
  in
  let choices (j : Job.t) =
    let lo = Job.min_procs j and hi = min m (Job.max_procs j) in
    List.init (hi - lo + 1) (fun i -> (j, lo + i))
  in
  let rec alloc_vectors = function
    | [] -> [ [] ]
    | j :: rest ->
      let tails = alloc_vectors rest in
      List.concat_map (fun c -> List.map (fun t -> c :: t) tails) (choices j)
  in
  List.fold_left
    (fun best vec ->
      List.fold_left
        (fun best order ->
          let sched = Psched_core.Packing.list_schedule ~m order in
          Float.min best (Psched_sim.Schedule.makespan sched))
        best (perms vec))
    infinity (alloc_vectors jobs)
