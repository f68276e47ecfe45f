(** The per-claim tables of DESIGN.md §4: each function regenerates one
    table (empirical check of a ratio the paper states, or a
    comparison the paper argues qualitatively).  All results are
    deterministic given the built-in seeds. *)

val mrt : unit -> string
(** T-ratio-mrt — §4.1: the MRT dual approximation stays within
    3/2 + eps; baselines: list scheduling with thrifty / fastest
    a-priori allocations. *)

val online : unit -> string
(** T-ratio-online — §4.2: batch on-line scheduling of moldable jobs
    with release dates stays within 2x the off-line ratio (3 + eps
    total), across arrival intensities. *)

val smart : unit -> string
(** T-ratio-smart — §4.3: SMART shelf scheduling for sum w_i C_i versus
    WSPT-ordered and FCFS-ordered list scheduling. *)

val bicriteria : unit -> string
(** T-ratio-bicriteria — §4.4: the doubling-batches algorithm is
    simultaneously good on both criteria, where single-criterion
    algorithms degrade on the other one. *)

val dlt : unit -> string
(** T-dlt — §2.1: single-round vs multi-round vs dynamic (work
    stealing) divisible-load distribution on bus, heterogeneous star
    and CIMENT-derived platforms, against the steady-state bound. *)

val grid : unit -> string
(** T-grid — §5.2 centralized CiGri model: best-effort grid jobs fill
    the holes of a loaded cluster without delaying local jobs; kill
    overhead versus bag size. *)

val multicluster : unit -> string
(** T-grid (decentralized part) — §5.2: independent vs centralized vs
    exchange placement across the CIMENT clusters under imbalanced
    community loads. *)

val mix : unit -> string
(** T-mix — §5.1: the three strategies for scheduling a rigid+moldable
    mix. *)

val delay_model : unit -> string
(** T-delay — §1.3: the delay-model treatment (global ETF over the
    task graphs) against the PT treatment (each application folded
    into a moldable profile, scheduled by MRT), as communication
    delays grow — the paper's argument for abandoning explicit
    communications. *)

val stretch : unit -> string
(** T-stretch — §3's response-time criteria: queue disciplines
    compared on mean flow, mean stretch and maximum stretch. *)

val tardiness : unit -> string
(** T-tardiness — §3's tardiness and rejection criteria: FCFS vs EDD
    vs EDD with admission control on due-dated workloads. *)

val multires : unit -> string
(** T-multires — the resource-vector extension (DESIGN.md section 15):
    CPU-, memory- and I/O-bound app-class communities on m=512 cores,
    2048 MB per core and 1024 MB/s of I/O bandwidth, each arriving at
    about 90% load on its bottleneck resource.  The cores-only ["easy"]
    baseline against ["list-mr"] and ["easy-mr"]: makespan, per-component
    utilisation and the capacity violations {!Psched_sim.Validate}
    finds. *)

val all : unit -> (string * string) list
(** Every table with its DESIGN.md identifier. *)
