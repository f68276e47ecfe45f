(** Multi-resource availability profile.

    A vector view over scalar availability profiles: one {!Profile}
    timeline for cores plus one for each non-core component (memory,
    bandwidth) that the capacity bounds.  A window fits only when
    {e every} component fits over the whole window.

    Components the capacity leaves unbounded
    ({!Psched_platform.Resource.unbounded_amount}) are not modelled:
    they carry no timeline and accept any demand.  On the
    processors-only platform ({!Psched_platform.Resource.cap}
    [~cores:m ()]) every operation is therefore exactly one call of the
    scalar engine, which is how [Backfilling] and [Packing] run the
    paper's scalar policies and their multi-resource variants on one
    engine (DESIGN.md section 15).

    Requests come in two parts: the allocation [procs] and the job's
    stored non-core demand [res] ([Job.res]), whose cores component
    is ignored. *)

type t

val create : ?reservations:Psched_platform.Reservation.t list -> Psched_platform.Resource.t -> t
(** A profile with the whole capacity free from time 0 on, minus the
    advance [reservations] (which hold cores only).
    @raise Invalid_argument when the capacity has no cores. *)

val cores_only : t -> bool
(** Every non-core component of the capacity is unbounded. *)

val find_start :
  t -> earliest:float -> duration:float -> procs:int -> res:Psched_platform.Resource.t -> float
(** Earliest date [>= earliest] at which [procs] cores and the
    non-core demand [res] fit for [duration].
    @raise Not_found when a demand exceeds its component's capacity. *)

val reserve :
  t -> start:float -> duration:float -> procs:int -> res:Psched_platform.Resource.t -> unit
(** Subtract the request from the window, on every component or on
    none.  @raise Invalid_argument on non-positive durations or when
    any component would go negative; the profile is then unchanged. *)

val release :
  t -> start:float -> duration:float -> procs:int -> res:Psched_platform.Resource.t -> unit
(** Inverse of {!reserve}.  @raise Invalid_argument, leaving the
    profile unchanged, when any component would exceed its
    capacity. *)

val release_window :
  t -> start:float -> stop:float -> procs:int -> res:Psched_platform.Resource.t -> unit
(** {!Profile.release_window} on every tracked component: give back
    [\[start, stop)], the tail of an earlier {!reserve} of the same
    request whose window ends exactly at [stop].  @raise
    Invalid_argument when a component would exceed its capacity; the
    components before it stay changed. *)

val place :
  t -> earliest:float -> duration:float -> procs:int -> res:Psched_platform.Resource.t -> float
(** [find_start] then [reserve]; returns the chosen start. *)
