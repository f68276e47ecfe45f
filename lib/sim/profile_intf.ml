(** The contract every availability-profile engine implements.

    {!Profile} (indexed step timeline) is the production engine;
    {!Profile_reference} (sorted assoc list, the original
    implementation) is kept as the oracle of the property tests, which
    drive both engines through this signature. *)

module type S = sig
  type t

  val create : int -> t
  val capacity : t -> int
  val free_at : t -> float -> int
  val find_start : t -> earliest:float -> duration:float -> procs:int -> float
  val reserve : t -> start:float -> duration:float -> procs:int -> unit
  val release : t -> start:float -> duration:float -> procs:int -> unit
  val release_window : t -> start:float -> stop:float -> procs:int -> unit
  val place : t -> earliest:float -> duration:float -> procs:int -> float
  val breakpoints : t -> (float * int) list
  val holes : t -> until:float -> (float * float * int) list
  val copy : t -> t
  val pp : Format.formatter -> t -> unit
end
