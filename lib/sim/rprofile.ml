(* A vector view over scalar profiles.  An unbounded component is not
   modelled, so on the processors-only platform every operation makes
   exactly one call of the scalar engine: the other components answer
   without a timeline.  A component of capacity 0 needs no timeline
   either: nothing can be reserved on it, and the fit test of the
   non-core demand refuses any positive amount.

   [find_start] searches round-robin: each component in turn moves the
   candidate to its own earliest fit at or after it, until every
   component accepts the candidate unchanged.  A component's answer is
   the least date >= the candidate at which that component fits, and
   the joint earliest fit is such a date for every component, so the
   candidate never passes it; it only moves forward, onto breakpoints
   of finite timelines, so the search stops, and it stops at the joint
   earliest fit.

   [reserve]/[release] change every tracked component or none: when a
   component refuses, the components already changed are restored
   before the exception propagates. *)

module R = Psched_platform.Resource

type component = Untracked | Tracked of Profile.t

type t = {
  cores : Profile.t;
  memory : component;
  bandwidth : component;
  noncore : R.t;  (* the capacity with cores unconstrained: the fit test of [res] *)
}

let component amount =
  if R.is_unbounded amount || amount = 0 then Untracked else Tracked (Profile.create amount)

let create ?(reservations = []) (cap : R.t) =
  let t =
    {
      cores = Profile.create cap.R.cores;
      memory = component cap.R.memory;
      bandwidth = component cap.R.bandwidth;
      noncore = R.with_cores cap R.unbounded_amount;
    }
  in
  List.iter
    (fun (r : Psched_platform.Reservation.t) ->
      Profile.reserve t.cores ~start:r.start ~duration:r.duration ~procs:r.procs)
    reservations;
  t

let cores_only t = R.is_unbounded t.noncore.R.memory && R.is_unbounded t.noncore.R.bandwidth

(* Earliest fit of one non-core component at or after [c]; a zero
   amount fits everywhere. *)
let component_start comp ~duration ~amount c =
  match comp with
  | Tracked p when amount > 0 -> Profile.find_start p ~earliest:c ~duration ~procs:amount
  | Tracked _ | Untracked -> c

(* Component [i] (0 cores, 1 memory, 2 bandwidth) answers for
   candidate [c]; [settled] components in a row have accepted [c]. *)
let rec settle t ~duration ~procs ~memory ~bandwidth c i settled =
  if settled = 3 then c
  else
    let c' =
      match i with
      | 0 -> Profile.find_start t.cores ~earliest:c ~duration ~procs
      | 1 -> component_start t.memory ~duration ~amount:memory c
      | _ -> component_start t.bandwidth ~duration ~amount:bandwidth c
    in
    let settled = if c' > c then 1 else settled + 1 in
    settle t ~duration ~procs ~memory ~bandwidth c' ((i + 1) mod 3) settled

let find_start t ~earliest ~duration ~procs ~(res : R.t) =
  if not (R.fits res ~within:t.noncore) then raise Not_found;
  let c = Profile.find_start t.cores ~earliest ~duration ~procs in
  settle t ~duration ~procs ~memory:res.R.memory ~bandwidth:res.R.bandwidth c 1 1

let change p ~release ~start ~duration ~procs =
  if release then Profile.release p ~start ~duration ~procs
  else Profile.reserve p ~start ~duration ~procs

(* A non-core component's share of a change; a zero amount changes
   nothing. *)
let change_component comp ~release ~start ~duration amount =
  match comp with
  | Tracked p when amount > 0 -> change p ~release ~start ~duration ~procs:amount
  | Tracked _ | Untracked -> ()

let apply t ~release ~start ~duration ~procs ~(res : R.t) =
  if not (R.fits res ~within:t.noncore) then invalid_arg "Rprofile: demand exceeds the capacity";
  let undo = not release in
  change t.cores ~release ~start ~duration ~procs;
  (try change_component t.memory ~release ~start ~duration res.R.memory
   with Invalid_argument _ as e ->
     change t.cores ~release:undo ~start ~duration ~procs;
     raise e);
  try change_component t.bandwidth ~release ~start ~duration res.R.bandwidth
  with Invalid_argument _ as e ->
    change_component t.memory ~release:undo ~start ~duration res.R.memory;
    change t.cores ~release:undo ~start ~duration ~procs;
    raise e

let reserve t ~start ~duration ~procs ~res = apply t ~release:false ~start ~duration ~procs ~res
let release t ~start ~duration ~procs ~res = apply t ~release:true ~start ~duration ~procs ~res

let release_window t ~start ~stop ~procs ~(res : R.t) =
  let component comp amount =
    match comp with
    | Tracked p when amount > 0 -> Profile.release_window p ~start ~stop ~procs:amount
    | Tracked _ | Untracked -> ()
  in
  Profile.release_window t.cores ~start ~stop ~procs;
  component t.memory res.R.memory;
  component t.bandwidth res.R.bandwidth

let place t ~earliest ~duration ~procs ~res =
  let start = find_start t ~earliest ~duration ~procs ~res in
  if duration > 0.0 then reserve t ~start ~duration ~procs ~res;
  start
