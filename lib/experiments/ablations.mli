(** Ablation studies on the design choices of the algorithms (beyond
    the paper's tables): what each knob buys.

    - MRT's binary-search precision epsilon (§4.1): quality vs cost;
    - the bi-criteria dual ratio budget rho (§4.4);
    - work-stealing chunk size (§2.1, dynamic distribution);
    - runtime over-estimation factors under EASY backfilling
      (clairvoyance assumption of §2.2);
    - malleable vs moldable scheduling of the same workload (the
      malleability gain §2.2 argues for but does not quantify). *)

val mrt_epsilon : unit -> string
val bicriteria_rho : unit -> string
val stealing_chunk : unit -> string
val estimate_error : unit -> string
val malleability_gain : unit -> string

val hierarchical : unit -> string
(** Partition strategies for moldable jobs across the CIMENT light
    grid (hierarchical PT scheduling, §2.2). *)

val reservations_cost : unit -> string
(** Reservation-aligned batches vs conservative backfilling (§5.1). *)

val versatility : unit -> string
(** Outage (node-loss) injection: kill-and-restart cost vs outage
    rate (§1.1 versatility). *)

val policy_registry : unit -> string
(** Every {!Psched_core.Schedulers} registry policy on one moldable
    workload, selected by name through the unified API. *)

val studies : (string * (unit -> string)) list
(** Every study by id (["A-estimates"], ...), in report order;
    [psched ablations ID] runs one. *)

val all : unit -> (string * string) list
