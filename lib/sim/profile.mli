(** Availability profile: free processors of a cluster as a step
    function of time.

    This is the planning structure behind every list/backfilling
    scheduler in the library: it answers "when is the earliest date at
    which [k] processors are simultaneously free for [d] seconds?" and
    records placements.  The function is piecewise constant with
    finitely many breakpoints and extends with its last value to
    +infinity.

    Implementation: an indexed step timeline (growable sorted arrays
    with binary-searched lookup, in-place window deltas, sweep-line
    search).  {!Profile_reference} keeps the original assoc-list
    implementation as the oracle of the property tests. *)

type t

val create : int -> t
(** [create m]: [m] processors free from time 0 on. *)

val capacity : t -> int

val origin : t -> float
(** Left edge of the live timeline: 0 at creation, advanced by
    {!compact}.  Queries and windows before the origin clamp to it. *)

val free_at : t -> float -> int
(** Free processors at instant [t] (intervals are half-open [\[s, e)]). *)

val find_start : t -> earliest:float -> duration:float -> procs:int -> float
(** Earliest start [s >= earliest] such that at least [procs]
    processors are free during the whole of [\[s, s + duration)].
    Always exists since the profile is eventually constant with at
    least the final free count; @raise Not_found if even the final
    plateau has fewer than [procs] free. *)

val reserve : t -> start:float -> duration:float -> procs:int -> unit
(** Subtract [procs] from the window.
    @raise Invalid_argument if it would drive availability negative. *)

val release : t -> start:float -> duration:float -> procs:int -> unit
(** Add [procs] back on the window (used to undo placements and to
    model reservation expiry).  Availability may not exceed capacity.
    @raise Invalid_argument on overflow. *)

val release_window : t -> start:float -> stop:float -> procs:int -> unit
(** Like {!release} but with an exact right endpoint: use this to give
    back the tail of an earlier reservation, where recomputing the
    endpoint as [start + duration] could overshoot it by one ulp. *)

val place : t -> earliest:float -> duration:float -> procs:int -> float
(** [find_start] then [reserve]; returns the start date. *)

val breakpoints : t -> (float * int) list
(** The step function as (date, free-from-that-date) pairs, strictly
    increasing dates, first at the {!origin}. *)

val compact : t -> before:float -> int
(** [compact t ~before] folds the timeline left of [before] into the
    aggregate {!stats} scalars ([folded_busy] proc-seconds,
    [folded_span], [folded_segments]) and drops those segments,
    advancing the {!origin} to [before].  Returns the number of
    segments dropped; a no-op returning 0 when [before <= origin t].

    Sound once a simulation clock has passed [before]: every later
    window and query clamps to the origin, so all observable behaviour
    at dates [>= before] is identical to the uncompacted profile (the
    property tests assert this against {!Profile_reference}).  Live
    memory becomes O(live horizon) instead of O(total jobs placed).
    @raise Invalid_argument if [before] is not finite. *)

val holes : t -> until:float -> (float * float * int) list
(** Maximal constant segments [(start, stop, free)] with [free > 0]
    before [until] — the Gantt-chart holes the best-effort layer fills. *)

val copy : t -> t
(** Independent deep copy: mutating the copy never affects the
    original (the backing arrays are duplicated, not shared). *)

val events : t -> (float * int) list
(** The step function as signed jumps: [(date, delta_free)] per
    breakpoint, the first relative to the implicit full-capacity level
    before time 0.  Summing prefixes of [events] recovers
    {!breakpoints}; the encoding suits observability exports. *)

type stats = {
  segments : int;  (** current number of breakpoints *)
  peak_segments : int;  (** high-water mark since creation *)
  reserves : int;  (** {!reserve} calls *)
  releases : int;  (** {!release} / {!release_window} calls *)
  searches : int;  (** {!find_start} calls (incl. via {!place}) *)
  compactions : int;  (** effective {!compact} calls *)
  folded_segments : int;  (** segments dropped by compaction *)
  folded_busy : float;  (** proc-seconds folded away (busy time) *)
  folded_span : float;  (** seconds of timeline folded away *)
}

val stats : t -> stats
(** Observability counters for scheduler instrumentation. *)

val usage_timeline : (float * float * int) list -> (float * int) list
(** [usage_timeline demands]: the total demand of [(start, stop,
    procs)] intervals as a step function [(date, used)], computed by
    one sort of the interval endpoints and one sweep: O(n log n) in any
    input order.  Starts before 0 clamp to 0, an infinite [stop] never
    ends, and demands with [procs <= 0], [stop <= start] or
    [stop <= 0] count for nothing.  The list is canonical: first entry
    at 0, strictly increasing dates, adjacent levels distinct.  Used by
    {!Validate} for capacity checking. *)

val pp : Format.formatter -> t -> unit
