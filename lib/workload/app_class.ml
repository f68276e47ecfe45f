open Psched_util
module R = Psched_platform.Resource

(* Stochastic application-class workload generator, after the APEX-style
   community model of Perotin et al.'s stochastic-I/O simulator: a
   workload is a mix of named classes, each contributing a target share
   of the total core-hours, with nominal geometry (cores, walltime,
   memory per core), I/O behaviour (input/output volumes relative to
   the memory footprint, periodic checkpoints) and an ensemble factor
   (instances submitted together).  Sampled jobs perturb the nominal
   cores and walltime with gaussian noise (stdev 10% of the value)
   pushed through a high-pass filter that rejects draws below 95% of
   the nominal — the noise widens the distribution upwards, it never
   shrinks a job to a sliver. *)

let stdev = 0.1
let maxlow = 0.95

type t = {
  name : string;
  corehour_ratio : float;
  walltime : float;
  cores : int;
  mem_per_core : int;
  input_ratio : float;
  output_ratio : float;
  ckpt_ratio : float;
  iterations : int;
  ensemble : int;
  ckpt_period : float;
}

let make ?(mem_per_core = 0) ?(input_ratio = 0.0) ?(output_ratio = 0.0) ?(ckpt_ratio = 0.0)
    ?(iterations = 1) ?(ensemble = 1) ?(ckpt_period = 3600.0) ~name ~corehour_ratio ~walltime
    ~cores () =
  if corehour_ratio <= 0.0 then invalid_arg "App_class: corehour_ratio must be positive";
  if walltime <= 0.0 then invalid_arg "App_class: walltime must be positive";
  if cores < 1 then invalid_arg "App_class: cores must be >= 1";
  if mem_per_core < 0 then invalid_arg "App_class: negative mem_per_core";
  if input_ratio < 0.0 || output_ratio < 0.0 || ckpt_ratio < 0.0 then
    invalid_arg "App_class: I/O ratios must be non-negative";
  if iterations < 1 then invalid_arg "App_class: iterations must be >= 1";
  if ensemble < 1 then invalid_arg "App_class: ensemble must be >= 1";
  if ckpt_period <= 0.0 then invalid_arg "App_class: ckpt_period must be positive";
  {
    name;
    corehour_ratio;
    walltime;
    cores;
    mem_per_core;
    input_ratio;
    output_ratio;
    ckpt_ratio;
    iterations;
    ensemble;
    ckpt_period;
  }

(* Multiplicative noise: 1 + stdev * N(0,1), redrawn (bounded) until it
   clears the high-pass filter so the expected factor stays near 1
   without sub-[maxlow] slivers. *)
let noise rng =
  let rec draw tries =
    let f = 1.0 +. (stdev *. Rng.gaussian rng) in
    if f >= maxlow || tries >= 64 then Float.max maxlow f else draw (tries + 1)
  in
  draw 0

let footprint c ~cores = cores * c.mem_per_core

let bandwidth_demand c ~cores ~walltime =
  let mem = float_of_int (footprint c ~cores) in
  (* Input and output volumes are read/written once per iteration and
     amortised over the walltime; checkpoints write [ckpt_ratio] of the
     footprint every [ckpt_period]. *)
  let io = (c.input_ratio +. c.output_ratio) *. mem *. float_of_int c.iterations /. walltime in
  let ckpt = c.ckpt_ratio *. mem /. c.ckpt_period in
  int_of_float (Float.round (io +. ckpt))

(* One sampled instance (the ensemble is expanded by [generate]). *)
let sample rng c ~max_cores ~id =
  let cores = max 1 (min max_cores (int_of_float (Float.round (float_of_int c.cores *. noise rng)))) in
  let walltime = c.walltime *. noise rng in
  let res =
    R.make ~memory:(footprint c ~cores) ~bandwidth:(bandwidth_demand c ~cores ~walltime) ()
  in
  Job.rigid ~res ~id ~procs:cores ~time:walltime ()

let pick rng classes =
  let total = List.fold_left (fun acc c -> acc +. c.corehour_ratio) 0.0 classes in
  let x = Rng.float rng total in
  let rec go acc = function
    | [ c ] -> c
    | c :: rest -> if x < acc +. c.corehour_ratio then c else go (acc +. c.corehour_ratio) rest
    | [] -> invalid_arg "App_class: empty class list"
  in
  go 0.0 classes

let generate rng ~classes ~cap ~corehours =
  if classes = [] then invalid_arg "App_class.generate: empty class list";
  if corehours <= 0.0 then invalid_arg "App_class.generate: corehours must be positive";
  let max_cores = cap.R.cores in
  let jobs = ref [] and spent = ref 0.0 and id = ref 0 in
  while !spent < corehours do
    let c = pick rng classes in
    (* The whole ensemble is submitted together (same release; arrival
       processes restamp afterwards, cf. Workload_gen). *)
    for _ = 1 to c.ensemble do
      let job = sample rng c ~max_cores ~id:!id in
      incr id;
      spent := !spent +. (Job.min_work job /. 3600.0);
      jobs := job :: !jobs
    done
  done;
  List.rev !jobs

(* Predefined communities for the T-multires table, scaled to the platform:
   nominal widths are fractions of the core capacity, memory per core
   a fraction of the per-core memory capacity.  Ratios loosely follow
   the APEX workflow survey shapes (hero runs, ensembles of mid-size
   jobs, checkpoint-heavy I/O applications). *)

let scaled_classes ?ckpt_period cap specs =
  let max_cores = cap.R.cores in
  let mem_per_core_cap =
    if R.is_unbounded cap.R.memory then 2048 else max 1 (cap.R.memory / max_cores)
  in
  List.map
    (fun (name, ratio, walltime, core_frac, mem_frac, input_r, output_r, ckpt_r, iters, ens) ->
      make ~name ~corehour_ratio:ratio ~walltime
        ~cores:(max 1 (int_of_float (core_frac *. float_of_int max_cores)))
        ~mem_per_core:(int_of_float (mem_frac *. float_of_int mem_per_core_cap))
        ~input_ratio:input_r ~output_ratio:output_r ~ckpt_ratio:ckpt_r ~iterations:iters
        ~ensemble:ens ?ckpt_period ())
    specs

let cpu_bound cap =
  scaled_classes cap
    [
      ("hero-sim", 0.5, 14400.0, 0.30, 0.10, 0.01, 0.02, 0.0, 1, 1);
      ("md-sweep", 0.3, 3600.0, 0.05, 0.15, 0.01, 0.01, 0.0, 1, 4);
      ("qcd-lattice", 0.2, 7200.0, 0.15, 0.20, 0.02, 0.02, 0.0, 2, 1);
    ]

let mem_bound cap =
  (* Memory per core above the platform's per-core share (fractions
     > 1): few cores, huge footprints, so memory binds before cores. *)
  scaled_classes cap
    [
      ("graph-analytics", 0.4, 5400.0, 0.10, 2.5, 0.10, 0.05, 0.0, 1, 1);
      ("in-memory-db", 0.35, 10800.0, 0.08, 3.0, 0.05, 0.05, 0.0, 1, 1);
      ("assembly", 0.25, 7200.0, 0.04, 2.0, 0.15, 0.10, 0.0, 1, 2);
    ]

let io_bound cap =
  (* Tight checkpoint periods plus restart-file dumps larger than the
     footprint: the sustained I/O stream, not the cores, is what these
     applications queue on. *)
  scaled_classes ~ckpt_period:450.0 cap
    [
      ("climate-ckpt", 0.45, 10800.0, 0.15, 0.80, 0.10, 2.00, 0.60, 4, 1);
      ("seismic-imaging", 0.30, 5400.0, 0.10, 0.70, 1.50, 1.50, 0.40, 2, 1);
      ("cosmology-dump", 0.25, 7200.0, 0.20, 0.60, 0.05, 3.00, 0.50, 3, 1);
    ]

let communities cap =
  [ ("cpu-bound", cpu_bound cap); ("mem-bound", mem_bound cap); ("io-bound", io_bound cap) ]

let pp ppf c =
  Format.fprintf ppf
    "%s: %.0f%% core-hours, %d cores x %gs, %d MB/core, io %g/%g, ckpt %g every %gs, x%d"
    c.name (100.0 *. c.corehour_ratio) c.cores c.walltime c.mem_per_core c.input_ratio
    c.output_ratio c.ckpt_ratio c.ckpt_period c.ensemble
