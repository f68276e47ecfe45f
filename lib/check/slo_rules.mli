(** SLO burn-rate rules over a recorded [psched-series/1] time series.

    SRE-style multiwindow alerting: an {!objective} classifies each
    sample good/bad against a target (p99 wait, goodput floor, queue
    depth) and grants an error budget; an [Error] finding fires only
    when both a fast and a slow trailing window burn the budget above
    their thresholds, so one transient spike does not page but a
    sustained breach is caught within [fast_window] samples.  A budget
    exhausted without ever tripping both windows yields a [Warn].
    Wired into [psched serve verify --series]. *)

module Series = Psched_obs.Series

type objective = private {
  id : string;
  doc : string;
  good : Series.sample -> bool;
  budget : float;
  fast_window : int;
  slow_window : int;
  fast_burn : float;
  slow_burn : float;
}

val objective :
  id:string ->
  doc:string ->
  ?budget:float ->
  ?fast_window:int ->
  ?slow_window:int ->
  ?fast_burn:float ->
  ?slow_burn:float ->
  (Series.sample -> bool) ->
  objective
(** Defaults follow the SRE workbook page alert: 5% budget, 5/30
    sample windows, 14.4x / 6x burn thresholds. *)

val wait_bound : ?p99:float -> unit -> objective
(** p99 decision latency stays under [p99] seconds (default 1.0). *)

val goodput_floor : ?floor:float -> unit -> objective
(** Useful-work share stays above [floor] (default 0.5). *)

val queue_bound : ?depth:int -> unit -> objective
(** Queue depth stays under [depth] (default 64). *)

val defaults : objective list

val check :
  ?objectives:objective list -> interval:float -> Series.sample list -> Finding.t list
(** Evaluate every objective over the series; raise-free.  An empty
    series yields one [Info] per objective. *)

val rule_docs : (string * string) list
