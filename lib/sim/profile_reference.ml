(* The original assoc-list availability profile, kept as an executable
   specification: the property tests drive it in lockstep with the
   indexed {!Profile} engine and require identical observations.  The
   list is rebuilt wholesale on every update and re-scanned per
   candidate start, which is exactly the O(k^2) behaviour the indexed
   engine replaces. *)

type t = { capacity : int; mutable steps : (float * int) list }
(* [steps] is sorted by strictly increasing date; the first date is 0;
   each pair (s, f) means f processors are free on [s, next date). *)

let create m =
  if m < 1 then invalid_arg "Profile.create: capacity must be >= 1";
  { capacity = m; steps = [ (0.0, m) ] }

let capacity t = t.capacity
let copy t = { t with steps = t.steps }

let free_at t date =
  let rec loop last = function
    | (s, f) :: rest when s <= date -> loop f rest
    | _ -> last
  in
  match t.steps with
  | (_, f0) :: rest -> loop f0 rest
  | [] -> assert false

let breakpoints t = t.steps

(* Rewrite the step list applying [delta] on [start, stop). *)
let update t ~start ~stop ~delta =
  assert (start < stop);
  let out = ref [] in
  let emit s f = out := (s, f) :: !out in
  let rec loop = function
    | [] -> ()
    | (s, f) :: rest ->
      let next = match rest with (s', _) :: _ -> s' | [] -> infinity in
      (* Segment [s, next) at level f; intersect with [start, stop). *)
      let a = Float.max s start and b = Float.min next stop in
      if a < b then begin
        if s < a then emit s f;
        emit a (f + delta);
        if b < next then emit b f
      end
      else emit s f;
      loop rest
  in
  loop t.steps;
  let steps = List.rev !out in
  List.iter
    (fun (_, f) ->
      if f < 0 then invalid_arg "Profile: availability would become negative";
      if f > t.capacity then invalid_arg "Profile: availability would exceed capacity")
    steps;
  (* Merge equal neighbours to keep the list small. *)
  let rec merge = function
    | (s1, f1) :: (_, f2) :: rest when f1 = f2 -> merge ((s1, f1) :: rest)
    | p :: rest -> p :: merge rest
    | [] -> []
  in
  t.steps <- merge steps

let reserve t ~start ~duration ~procs =
  if duration <= 0.0 then invalid_arg "Profile.reserve: duration must be positive";
  if procs < 0 then invalid_arg "Profile.reserve: negative procs";
  if procs > 0 then update t ~start ~stop:(start +. duration) ~delta:(-procs)

let release t ~start ~duration ~procs =
  if duration <= 0.0 then invalid_arg "Profile.release: duration must be positive";
  if procs < 0 then invalid_arg "Profile.release: negative procs";
  if procs > 0 then update t ~start ~stop:(start +. duration) ~delta:procs

let release_window t ~start ~stop ~procs =
  if stop <= start then invalid_arg "Profile.release_window: empty window";
  if procs < 0 then invalid_arg "Profile.release_window: negative procs";
  if procs > 0 then update t ~start ~stop ~delta:procs

(* Does the window [s, s + duration) have >= procs free everywhere? *)
let window_ok t ~s ~duration ~procs =
  let stop = s +. duration in
  let rec loop = function
    | [] -> true
    | (seg_s, f) :: rest ->
      let next = match rest with (s', _) :: _ -> s' | [] -> infinity in
      let overlaps =
        if duration <= 0.0 then seg_s <= s && s < next else seg_s < stop && next > s
      in
      if overlaps && f < procs then false else loop rest
  in
  loop t.steps

let find_start t ~earliest ~duration ~procs =
  if procs > t.capacity then raise Not_found;
  let earliest = Float.max earliest 0.0 in
  (* The earliest feasible start is [earliest] itself or the end of an
     insufficient segment, i.e. a breakpoint: checking those suffices. *)
  let candidates =
    earliest :: List.filter_map (fun (s, _) -> if s > earliest then Some s else None) t.steps
  in
  match List.find_opt (fun s -> window_ok t ~s ~duration ~procs) candidates with
  | Some s -> s
  | None -> raise Not_found

let place t ~earliest ~duration ~procs =
  let start = find_start t ~earliest ~duration ~procs in
  if duration > 0.0 then reserve t ~start ~duration ~procs;
  start

let holes t ~until =
  let rec loop acc = function
    | [] -> List.rev acc
    | (s, f) :: rest ->
      let next = match rest with (s', _) :: _ -> s' | [] -> infinity in
      let stop = Float.min next until in
      let acc = if f > 0 && s < stop then (s, stop, f) :: acc else acc in
      if next >= until then List.rev acc else loop acc rest
  in
  loop [] t.steps

let pp ppf t =
  let pp_step ppf (s, f) = Format.fprintf ppf "%g->%d" s f in
  Format.fprintf ppf "@[<h>[%a]@]" (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_step)
    t.steps
