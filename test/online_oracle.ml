(* Differential oracles for the on-line engine ([Backfilling]): the two
   event loops the engine replaced, kept verbatim.  [queue] is the old
   greedy queue discipline with its own free-processor counter;
   [easy] is the old non-clairvoyant EASY, which with exact estimates
   was also clairvoyant EASY.  Both start every job at the event date
   and merge events within 1e-9 of each other, so they are trustworthy
   only when event dates are equal or far apart: the tests generate
   such instances. *)

open Psched_core
open Psched_workload
open Psched_sim

let priority policy ~now ((job : Job.t), procs) =
  let p = Job.time_on job procs in
  match (policy : Queue_policies.policy) with
  | Fcfs -> (job.release, float_of_int job.id)
  | Sjf -> (p, float_of_int job.id)
  | Wsjf -> (p /. job.weight, float_of_int job.id)
  | Max_stretch_first ->
    (* Highest (wait + run) / run first: negate for the sort. *)
    (-.((now -. job.release +. p) /. p), float_of_int job.id)

let queue policy ~m allocated =
  let module H = Psched_util.Heap in
  let events = H.create ~cmp:compare in
  List.iter (fun ((j : Job.t), _) -> H.add events j.release) allocated;
  let pending = ref allocated in
  let queue = ref [] in
  let free = ref m in
  let entries = ref [] in
  let eps = 1e-9 in
  let step now =
    let arrived, still =
      List.partition (fun ((j : Job.t), _) -> j.release <= now +. eps) !pending
    in
    pending := still;
    queue := !queue @ arrived;
    let ordered = List.sort (fun a b -> compare (priority policy ~now a) (priority policy ~now b)) !queue in
    let kept =
      List.filter
        (fun ((job : Job.t), procs) ->
          if procs <= !free then begin
            free := !free - procs;
            let e = Schedule.entry ~job ~start:now ~procs () in
            entries := e :: !entries;
            H.add events (Schedule.completion e);
            false
          end
          else true)
        ordered
    in
    queue := kept
  in
  let last = ref neg_infinity in
  let completions_at now =
    (* Processors freed by entries finishing at [now]. *)
    List.iter
      (fun (e : Schedule.entry) ->
        if Float.abs (Schedule.completion e -. now) <= eps then free := !free + e.Schedule.procs)
      !entries
  in
  let rec loop () =
    match H.pop events with
    | None -> ()
    | Some t ->
      if t > !last +. eps then begin
        last := t;
        completions_at t;
        step t
      end;
      loop ()
  in
  loop ();
  assert (!queue = [] && !pending = []);
  Schedule.make ~m !entries

let easy ?(reservations = []) ~estimator ~m allocated =
  List.iter
    (fun ((j : Job.t), k) ->
      if k > m then
        invalid_arg (Printf.sprintf "Nonclairvoyant.easy: job %d wider than %d" j.id m);
      if estimator j k < Job.time_on j k -. 1e-9 then
        invalid_arg (Printf.sprintf "Nonclairvoyant.easy: job %d under-estimated" j.id))
    allocated;
  (* The profile is the scheduler's *belief*: running jobs occupy their
     estimated window; when a job actually completes earlier, the
     leftover belief is released. *)
  let profile = Profile.create m in
  List.iter
    (fun (r : Psched_platform.Reservation.t) ->
      Profile.reserve profile ~start:r.start ~duration:r.duration ~procs:r.procs)
    reservations;
  let entries = ref [] in
  let by_fcfs ((a : Job.t), _) ((b : Job.t), _) = compare (a.release, a.id) (b.release, b.id) in
  let pending = ref (List.sort by_fcfs allocated) in
  let queue = ref [] in
  let module H = Psched_util.Heap in
  (* Events carry an optional belief-release action. *)
  let events = H.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  let seq = ref 0 in
  let push t = incr seq; H.add events (t, !seq) in
  List.iter (fun ((j : Job.t), _) -> push j.release) !pending;
  List.iter
    (fun (r : Psched_platform.Reservation.t) ->
      push r.start;
      push (Psched_platform.Reservation.finish r))
    reservations;
  let eps = 1e-9 in
  let releases = ref [] (* (actual completion, start, est_duration, procs) *) in
  let start_job now ((job : Job.t), procs) =
    let actual = Job.time_on job procs in
    let believed = estimator job procs in
    if believed > 0.0 then Profile.reserve profile ~start:now ~duration:believed ~procs;
    entries := Schedule.entry ~job ~start:now ~procs () :: !entries;
    releases := (now +. actual, now, believed, procs) :: !releases;
    push (now +. actual)
  in
  let flush_releases now =
    let due, keep = List.partition (fun (t, _, _, _) -> t <= now +. eps) !releases in
    releases := keep;
    List.iter
      (fun (actual_finish, start, believed, procs) ->
        (* Give back the belief tail [actual finish, start + believed);
           the endpoint must match the reservation's breakpoint
           exactly, hence release_window. *)
        let belief_end = start +. believed in
        if belief_end > actual_finish +. eps then
          Profile.release_window profile ~start:actual_finish ~stop:belief_end ~procs)
      due
  in
  let starts_now now ((job : Job.t), procs) =
    let believed = estimator job procs in
    match Profile.find_start profile ~earliest:now ~duration:believed ~procs with
    | s -> s <= now +. eps
    | exception Not_found -> false
  in
  let rec drain_head now =
    match !queue with
    | head :: rest when starts_now now head ->
      start_job now head;
      queue := rest;
      drain_head now
    | _ -> ()
  in
  let backfill now =
    match !queue with
    | [] | [ _ ] -> ()
    | ((hjob : Job.t), hprocs) :: rest ->
      let hdur = estimator hjob hprocs in
      let hstart = Profile.find_start profile ~earliest:now ~duration:hdur ~procs:hprocs in
      if hdur > 0.0 then Profile.reserve profile ~start:hstart ~duration:hdur ~procs:hprocs;
      let kept =
        List.filter
          (fun job ->
            if starts_now now job then begin
              start_job now job;
              false
            end
            else true)
          rest
      in
      if hdur > 0.0 then Profile.release profile ~start:hstart ~duration:hdur ~procs:hprocs;
      queue := (hjob, hprocs) :: kept
  in
  let step now =
    flush_releases now;
    let arrived, still = List.partition (fun ((j : Job.t), _) -> j.release <= now +. eps) !pending in
    pending := still;
    queue := !queue @ arrived;
    drain_head now;
    backfill now
  in
  let last = ref neg_infinity in
  let rec loop () =
    match H.pop events with
    | None -> ()
    | Some (t, _) ->
      if t > !last +. eps then begin
        last := t;
        step t
      end;
      loop ()
  in
  loop ();
  assert (!queue = [] && !pending = []);
  Schedule.make ~m !entries
