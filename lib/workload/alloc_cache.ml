(* Allocation queries for one job on an m-processor cluster.

   The MRT dual binary search evaluates gamma(j, lambda) — the smallest
   feasible allocation meeting a deadline — at every guess of lambda,
   and each evaluation used to re-scan Job.time_on from min_procs up.
   One pass over the feasible range at construction records whether
   the time profile is non-increasing (every monotone speedup model)
   and the minimum work; the canonical allocation is then a binary
   search.  Nothing is copied: a moldable job's queries read its own
   [times] array, and the other shapes answer through Job.time_on, so
   construction allocates the same few words whatever the width. *)

type t = {
  job : Job.t;
  lo : int;  (* min_procs *)
  hi : int;  (* min m max_procs; hi < lo means infeasible on m procs *)
  monotone : bool;  (* times non-increasing on lo..hi *)
  min_work : float;  (* min over lo..hi of k * time, for area lower bounds *)
}

(* Time on [k] processors, for lo <= k <= hi.  The moldable table is
   read in place; going through Job.time_on would re-check feasibility
   on every query.  Inlined so the float stays unboxed in [of_job]'s
   scan and [canonical]'s search: a call would box every result. *)
let[@inline] time_in job k =
  match job.Job.shape with
  | Job.Moldable { times; _ } -> times.(k - 1)
  | _ -> Job.time_on job k

let of_job ~m (job : Job.t) =
  let lo = Job.min_procs job in
  let hi = min m (Job.max_procs job) in
  let monotone = ref true and min_work = ref infinity and prev = ref infinity in
  for k = lo to hi do
    let time = time_in job k in
    let w = float_of_int k *. time in
    if w < !min_work then min_work := w;
    if time > !prev then monotone := false;
    prev := time
  done;
  { job; lo; hi; monotone = !monotone; min_work = !min_work }

let job t = t.job
let min_procs t = t.lo
let max_procs t = t.hi
let feasible t = t.lo <= t.hi
let min_work t = t.min_work
let time_on t k = if k < t.lo || k > t.hi then infinity else time_in t.job k
let work_on t k = if k < t.lo || k > t.hi then infinity else float_of_int k *. time_in t.job k

let canonical t ~deadline =
  if t.hi < t.lo then None
  else if t.monotone then
    if time_in t.job t.hi > deadline then None
    else begin
      (* Smallest k whose time meets the deadline; monotonicity makes
         the predicate one-crossing, so binary search applies. *)
      let lo = ref t.lo and hi = ref t.hi in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if time_in t.job mid <= deadline then hi := mid else lo := mid + 1
      done;
      Some !lo
    end
  else begin
    let rec find k =
      if k > t.hi then None else if time_in t.job k <= deadline then Some k else find (k + 1)
    in
    find t.lo
  end
