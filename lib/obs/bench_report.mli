(** The benchmark regression gate: compares two sets of perfbench
    results.

    perfbench (perfbench/README.md) runs one workload per invocation
    and prints its result as one JSON object on its last line.  The
    gate's input holds one line per (workload, trace) run, wrapping
    that object:
    [{"workload": "batch-easy", "trace": 0, "result": {...}}].
    [psched bench diff OLD NEW] compares a committed baseline with a
    fresh set, workload by workload, taking each metric's direction
    ([better]) and layer from [BENCHMARK.json]:

    - a run that failed its own checks ([correct] false or [failed] > 0)
      or is missing fails;
    - an exact metric fails on any change, better or worse.  The exact
      set is measured: the metrics that repeated to the bit under one
      seed across processes at the gate's size, per workload;
    - any other end-to-end metric fails only when it is worse than the
      baseline by more than a fixed factor of 3.  Runs of one workload
      at the gate's size spread up to about 2x between processes on a
      shared host, so the factor sits above that spread;
    - per-layer metrics never fail.  A failing workload's report names
      the per-layer timing that grew most, the layer to look at. *)

(** {2 Minimal JSON} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val json_of_string : string -> (json, string) result
(** Strict-enough recursive parser for the JSON this repo writes (no
    dependency added; mirrors the hand-rolled encoders). *)

(** {2 Inputs} *)

type error =
  | Unreadable of string  (** the file could not be read *)
  | Bad_line of { line : int; reason : string }  (** 1-based line that is not a run *)
  | Bad_spec of string  (** [BENCHMARK.json] lacks a well-formed metric list *)

val error_to_string : error -> string

type metric_spec = {
  name : string;
  unit_ : string;
  higher_better : bool;
  end_to_end : bool;  (** listed under [end_to_end], else under [per_layer] *)
}

val spec_of_json : json -> (metric_spec list, error) result
(** The [end_to_end] and [per_layer] lists of [BENCHMARK.json]. *)

val load_spec : string -> (metric_spec list, error) result

type run = {
  workload : string;
  traced : bool;
  correct : bool;
  failed : int;
  metrics : (string * float) list;
}

val runs_of_string : string -> (run list, error) result
(** One run per non-blank line.  Any malformed line, or a second run of
    the same workload and trace, is an [Error]; nothing raises. *)

val load : string -> (run list, error) result

(** {2 Diff} *)

type rule =
  | Exact  (** fails on any change *)
  | Factor  (** fails when worse than the baseline by more than x3 *)
  | Report  (** per-layer, or not in [BENCHMARK.json]: never fails *)

type row = {
  metric : string;
  old_value : float;
  new_value : float;
  worse_by : float;  (** new over old in the bad direction: 1 equal, < 1 better *)
  rule : rule;
  failing : bool;
}

type workload = {
  name : string;
  problems : string list;  (** failed or missing runs *)
  rows : row list;  (** metrics present on both sides, baseline order *)
  only_old : string list;
  only_new : string list;
  moved_most : row option;
      (** the per-layer timing whose value grew most, whole-call totals
          ([run.rep_s], [core.schedule_s] and its per-policy rows,
          [serve.run_s]) excepted; [None] when no timing grew *)
}

type diff = { workloads : workload list; failures : int }
(** [failures] counts failing rows and failed or missing runs. *)

val failing : workload -> bool

val diff : metric_spec list -> run list -> run list -> diff
(** [diff spec baseline fresh], workloads sorted by name. *)

val render : diff -> string
(** One section per workload: every compared metric with its verdict,
    added and removed metrics, and for a failing workload the
    per-layer timing that moved most. *)
