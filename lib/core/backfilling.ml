open Psched_workload
open Psched_sim
module Obs = Psched_obs.Obs
module R = Psched_platform.Resource
module Heap = Psched_util.Heap

let conservative ?obs ?(reservations = []) ~m allocated =
  Packing.list_schedule ?obs ~reservations ~m allocated

(* The start rule of the on-line engine: EASY's head reservation, or
   first fit over the queue as reordered at each step. *)
type rule =
  | Head_reservation
  | First_fit of (now:float -> Packing.allocated list -> Packing.allocated list)

let eps = 1e-9

(* The on-line engine (see the interface).  Precondition: every
   allocation is at most [m] processors wide and every non-core demand
   fits [cap]; the {!Schedulers} adapters reject other jobs with a
   typed [Too_wide]/[Over_resource] error, and a job that never fits
   trips the final assertion. *)
let run ~obs ~reservations ?cap ?estimate ~rule ~m allocated =
  let profile = Rprofile.create ~reservations (R.platform ?cap m) in
  (* Separate labels keep the scalar and the multi-resource EASY apart
     in span profiles (perfbench's span.easy.* and span.easy-mr.*
     rows). *)
  let span =
    match rule with
    | First_fit _ -> "first-fit"
    | Head_reservation -> if Rprofile.cores_only profile then "easy" else "easy-mr"
  in
  let backfill_span = span ^ ".backfill" and query_span = span ^ ".query" in
  let believed ((job : Job.t), procs) =
    match estimate with Some f -> f job procs | None -> Job.time_on job procs
  in
  let by_fcfs ((a : Job.t), _) ((b : Job.t), _) = compare (a.release, a.id) (b.release, b.id) in
  let arrivals = Array.of_list (List.sort by_fcfs allocated) in
  let release i = (fst arrivals.(i)).Job.release in
  let next = ref 0 (* first job not yet arrived *) in
  let queue = ref [] (* arrived, not started *) in
  let entries = ref [] in
  let events = Heap.create ~cmp:Float.compare in
  (* Reservation boundaries are wake-up points too: a job blocked by a
     reservation becomes startable when it expires. *)
  List.iter
    (fun (r : Psched_platform.Reservation.t) ->
      Heap.add events r.start;
      Heap.add events (Psched_platform.Reservation.finish r))
    reservations;
  (* Belief tails still held: (real completion, belief end, job). *)
  let tails = Heap.create ~cmp:(fun (a, _, _) (b, _, _) -> Float.compare a b) in
  let sim_now = ref 0.0 in
  if Obs.enabled obs then Obs.set_clock obs (fun () -> !sim_now);
  let start_job at (((job : Job.t), procs) as a) =
    let believed = believed a and finish = at +. Job.time_on job procs in
    if believed > 0.0 then Rprofile.reserve profile ~start:at ~duration:believed ~procs ~res:job.res;
    entries := Schedule.entry ~job ~start:at ~procs () :: !entries;
    if Obs.enabled obs then begin
      Obs.job_start obs ~job:job.id ~start:at ~procs;
      Obs.queue_wait obs ~job:job.id ~wait:(at -. job.release);
      Obs.Counter.incr obs "backfill/started"
    end;
    let belief_end = at +. believed in
    if belief_end > finish +. eps then Heap.add tails (finish, belief_end, a);
    Heap.add events finish
  in
  let rec give_back_tails now =
    match Heap.min tails with
    | Some (finish, belief_end, ((job : Job.t), procs)) when finish <= now +. eps ->
      ignore (Heap.pop tails);
      (* The endpoint must match the reservation's breakpoint exactly,
         hence release_window. *)
      Rprofile.release_window profile ~start:finish ~stop:belief_end ~procs ~res:job.res;
      give_back_tails now
    | _ -> ()
  in
  (* The date [a] starts at if it fits within [eps] of [now]. *)
  let start_date now (((job : Job.t), procs) as a) =
    match Rprofile.find_start profile ~earliest:now ~duration:(believed a) ~procs ~res:job.res with
    | s when s <= now +. eps -> Some s
    | _ | (exception Not_found) -> None
  in
  (* Start [a] if it fits now, as a backfill behind EASY's head or in
     a first-fit scan.  A failed probe is traced with the date the job
     could start instead (pure profile query, trace-only work). *)
  let try_start now ~backfill (((job : Job.t), procs) as a) =
    match start_date now a with
    | Some at ->
      if Obs.enabled obs then
        if backfill then begin
          Obs.prov_choice obs ~job:job.id ~chosen:"backfill";
          Obs.backfill_fill obs ~job:job.id ~start:at ~procs;
          Obs.Counter.incr obs "backfill/filled"
        end
        else Obs.prov_choice obs ~job:job.id ~chosen:"first_fit";
      start_job at a;
      true
    | None ->
      if Obs.enabled obs then begin
        let at =
          Obs.span obs query_span @@ fun () ->
          match
            Rprofile.find_start profile ~earliest:now ~duration:(believed a) ~procs ~res:job.res
          with
          | s -> s
          | exception Not_found -> infinity
        in
        Obs.backfill_hole obs ~job:job.id ~start:at ~procs;
        Obs.prov_reject obs ~job:job.id
          ~reason:(if backfill then "would_delay_head" else "no_fit");
        Obs.Counter.incr obs "backfill/hole_probes"
      end;
      false
  in
  let rec drain_head now =
    match !queue with
    | (((hjob : Job.t), _) as head) :: rest -> (
      match start_date now head with
      | Some at ->
        if Obs.enabled obs then Obs.prov_choice obs ~job:hjob.id ~chosen:"head";
        start_job at head;
        queue := rest;
        drain_head now
      | None -> ())
    | [] -> ()
  in
  let backfill now =
    match !queue with
    | [] | [ _ ] -> ()
    | (((hjob : Job.t), hprocs) as head) :: rest ->
      Obs.span obs backfill_span @@ fun () ->
      (* Hold the head's earliest reservation while backfilling — on
         every component, so a backfilled job can steal neither the
         head's cores nor its memory or bandwidth. *)
      let hdur = believed head and hres = hjob.res in
      let hstart =
        Rprofile.find_start profile ~earliest:now ~duration:hdur ~procs:hprocs ~res:hres
      in
      if hdur > 0.0 then
        Rprofile.reserve profile ~start:hstart ~duration:hdur ~procs:hprocs ~res:hres;
      if Obs.enabled obs then Obs.prov_reserve obs ~job:hjob.id ~start:hstart ~procs:hprocs;
      let kept = List.filter (fun a -> not (try_start now ~backfill:true a)) rest in
      if hdur > 0.0 then
        Rprofile.release profile ~start:hstart ~duration:hdur ~procs:hprocs ~res:hres;
      queue := head :: kept
  in
  let admit now =
    let rec arrived acc =
      if !next < Array.length arrivals && release !next <= now +. eps then begin
        let a = arrivals.(!next) in
        incr next;
        arrived (a :: acc)
      end
      else acc
    in
    match arrived [] with [] -> () | rev -> queue := !queue @ List.rev rev
  in
  let step now =
    sim_now := now;
    give_back_tails now;
    admit now;
    match rule with
    | Head_reservation ->
      drain_head now;
      backfill now
    | First_fit reorder ->
      queue := List.filter (fun a -> not (try_start now ~backfill:false a)) (reorder ~now !queue)
  in
  let next_event () =
    match Heap.min events with
    | Some t when !next >= Array.length arrivals || t <= release !next -> Heap.pop events
    | _ -> if !next < Array.length arrivals then Some (release !next) else None
  in
  let last = ref neg_infinity and latest = ref neg_infinity in
  let rec loop () =
    match next_event () with
    | Some t ->
      latest := t;
      if t > !last +. eps then begin
        last := t;
        step t
      end;
      loop ()
    | None ->
      (* A job shorter than [eps] completes inside the step that
         started it, so no later step need come to give its belief
         tail back: one more step does. *)
      if !queue <> [] && not (Heap.is_empty tails) then begin
        last := !latest;
        step !latest;
        loop ()
      end
  in
  Obs.span obs span loop;
  assert (!queue = [] && !next = Array.length arrivals);
  Schedule.make ~m !entries

let easy ?(obs = Obs.null) ?(reservations = []) ?cap ?estimate ~m allocated =
  run ~obs ~reservations ?cap ?estimate ~rule:Head_reservation ~m allocated

let first_fit ?(obs = Obs.null) ?(reservations = []) ~key ~m allocated =
  let reorder ~now queue =
    List.map (fun a -> (key ~now a, a)) queue
    |> List.stable_sort (fun (ka, _) (kb, _) -> compare ka kb)
    |> List.map snd
  in
  run ~obs ~reservations ~rule:(First_fit reorder) ~m allocated
