open Psched_workload
open Psched_sim
module Obs = Psched_obs.Obs
module R = Psched_platform.Resource

let conservative ?obs ?(reservations = []) ~m allocated =
  Packing.list_schedule ?obs ~reservations ~m allocated

(* Precondition: every allocation is at most [m] processors wide and
   every job's non-core demand fits [cap].  The {!Schedulers}
   adapters — the only sanctioned entry point — reject other jobs
   with a typed [Too_wide]/[Over_resource] error before calling; an
   unchecked job that never fits would loop on the event heap, so
   callers bypassing the registry must filter. *)
let easy ?(obs = Obs.null) ?(reservations = []) ?cap ~m allocated =
  let profile = Rprofile.create ~reservations (R.platform ?cap m) in
  (* Separate labels keep the scalar and the multi-resource instance
     apart in span profiles (perfbench's span.easy.* and
     span.easy-mr.* rows). *)
  let span, backfill_span, query_span =
    if Rprofile.cores_only profile then ("easy", "easy.backfill", "easy.query")
    else ("easy-mr", "easy-mr.backfill", "easy-mr.query")
  in
  let entries = ref [] in
  (* Queue in FCFS (release, id) order; jobs enter at their release. *)
  let by_fcfs ((a : Job.t), _) ((b : Job.t), _) = compare (a.release, a.id) (b.release, b.id) in
  let pending = ref (List.sort by_fcfs allocated) in
  let queue = ref [] (* arrived, not started, FCFS order *) in
  let events = Psched_util.Heap.create ~cmp:compare in
  List.iter (fun ((j : Job.t), _) -> Psched_util.Heap.add events j.release) !pending;
  (* Reservation boundaries are wake-up points too: a job blocked by a
     reservation becomes startable when it expires. *)
  List.iter
    (fun (r : Psched_platform.Reservation.t) ->
      Psched_util.Heap.add events r.start;
      Psched_util.Heap.add events (Psched_platform.Reservation.finish r))
    reservations;
  let eps = 1e-9 in
  let sim_now = ref 0.0 in
  if Obs.enabled obs then Obs.set_clock obs (fun () -> !sim_now);
  let start_job now ((job : Job.t), procs) =
    let duration = Job.time_on job procs in
    if duration > 0.0 then Rprofile.reserve profile ~start:now ~duration ~procs ~res:job.Job.res;
    entries := Schedule.entry ~job ~start:now ~procs () :: !entries;
    if Obs.enabled obs then begin
      Obs.job_start obs ~job:job.Job.id ~start:now ~procs;
      Obs.queue_wait obs ~job:job.Job.id ~wait:(now -. job.Job.release);
      Obs.Counter.incr obs "backfill/started"
    end;
    Psched_util.Heap.add events (now +. duration)
  in
  let starts_now now ((job : Job.t), procs) =
    let duration = Job.time_on job procs in
    match Rprofile.find_start profile ~earliest:now ~duration ~procs ~res:job.Job.res with
    | s -> s <= now +. eps
    | exception Not_found -> false
  in
  let rec drain_head now =
    match !queue with
    | (((hjob : Job.t), _) as head) :: rest when starts_now now head ->
      if Obs.enabled obs then Obs.prov_choice obs ~job:hjob.Job.id ~chosen:"head";
      start_job now head;
      queue := rest;
      drain_head now
    | _ -> ()
  in
  let backfill now =
    match !queue with
    | [] | [ _ ] -> ()
    | ((hjob : Job.t), hprocs) :: rest ->
      Obs.span obs backfill_span @@ fun () ->
      (* Hold the head's earliest reservation while backfilling — on
         every component, so a backfilled job can steal neither the
         head's cores nor its memory or bandwidth. *)
      let hdur = Job.time_on hjob hprocs and hres = hjob.Job.res in
      let hstart =
        Rprofile.find_start profile ~earliest:now ~duration:hdur ~procs:hprocs ~res:hres
      in
      if hdur > 0.0 then
        Rprofile.reserve profile ~start:hstart ~duration:hdur ~procs:hprocs ~res:hres;
      if Obs.enabled obs then
        Obs.prov_reserve obs ~job:hjob.Job.id ~start:hstart ~procs:hprocs;
      let kept =
        List.filter
          (fun ((job : Job.t), procs) ->
            if starts_now now (job, procs) then begin
              if Obs.enabled obs then begin
                Obs.prov_choice obs ~job:job.Job.id ~chosen:"backfill";
                Obs.backfill_fill obs ~job:job.Job.id ~start:now ~procs;
                Obs.Counter.incr obs "backfill/filled"
              end;
              start_job now (job, procs);
              false
            end
            else begin
              (* The probe failed: record where the job could start
                 instead (pure profile query, trace-only work). *)
              if Obs.enabled obs then begin
                let duration = Job.time_on job procs in
                let at =
                  Obs.span obs query_span @@ fun () ->
                  match
                    Rprofile.find_start profile ~earliest:now ~duration ~procs ~res:job.Job.res
                  with
                  | s -> s
                  | exception Not_found -> infinity
                in
                Obs.backfill_hole obs ~job:job.Job.id ~start:at ~procs;
                Obs.prov_reject obs ~job:job.Job.id ~reason:"would_delay_head";
                Obs.Counter.incr obs "backfill/hole_probes"
              end;
              true
            end)
          rest
      in
      if hdur > 0.0 then
        Rprofile.release profile ~start:hstart ~duration:hdur ~procs:hprocs ~res:hres;
      queue := ((hjob, hprocs)) :: kept
  in
  let step now =
    let arrived, still = List.partition (fun ((j : Job.t), _) -> j.release <= now +. eps) !pending in
    pending := still;
    queue := !queue @ arrived;
    drain_head now;
    backfill now
  in
  let last = ref neg_infinity in
  let rec loop () =
    match Psched_util.Heap.pop events with
    | None -> ()
    | Some t ->
      if t > !last +. eps then begin
        last := t;
        sim_now := t;
        step t
      end;
      loop ()
  in
  Obs.span obs span loop;
  assert (!queue = [] && !pending = []);
  Schedule.make ~m !entries
