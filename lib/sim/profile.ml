(* Availability profile as an indexed step timeline.

   The step function is stored in two parallel growable arrays
   [dates]/[free]: segment [i] spans [dates.(i), dates.(i+1)) (the last
   segment extends to +infinity) with [free.(i)] processors free.
   Invariants:
   - dates are strictly increasing and dates.(0) = the origin (0 at
     creation, advanced monotonically by {!compact});
   - 0 <= free.(i) <= capacity;
   - adjacent segments have different levels (always merged).

   Compaction: once a simulation clock has passed a date, the history
   before it can never influence a future query (all windows are
   clamped to the origin), so [compact t ~before] folds the segments
   left of [before] into three scalars — folded proc-seconds of busy
   time, folded span, folded segment count — and drops them.  Live
   memory is then O(live horizon) rather than O(total jobs placed);
   the scalars keep utilisation computable over the whole run.

   Complexity, with k breakpoints: [free_at] is O(log k);
   [reserve]/[release] binary-search the window, add the delta to the s
   overlapping segments, and make at most two insertions and two
   merges, each of which shifts the tail of both arrays: O(log k + s)
   plus O(k) element moves, the level moves done by a loop typed at
   [int] (see [blit_levels]); [find_start] is a single sweep from
   [earliest] that anchors candidate starts at the ends of insufficient
   segments, so every breakpoint is visited at most once.  The previous implementation
   (kept verbatim as {!Profile_reference}, the oracle of the property
   tests) rebuilt the whole assoc list per update and re-scanned it per
   candidate start: O(k) allocation per update, O(k^2) per search. *)

type t = {
  capacity : int;
  mutable dates : float array;
  mutable free : int array;
  mutable len : int;
  mutable peak : int;
  mutable n_reserve : int;
  mutable n_release : int;
  mutable n_search : int;
  mutable n_compact : int;
  mutable folded_segments : int;
  mutable folded_busy : float;
  mutable folded_span : float;
}

type stats = {
  segments : int;
  peak_segments : int;
  reserves : int;
  releases : int;
  searches : int;
  compactions : int;
  folded_segments : int;
  folded_busy : float;
  folded_span : float;
}

let create m =
  if m < 1 then invalid_arg "Profile.create: capacity must be >= 1";
  {
    capacity = m;
    dates = Array.make 8 0.0;
    free = Array.make 8 m;
    len = 1;
    peak = 1;
    n_reserve = 0;
    n_release = 0;
    n_search = 0;
    n_compact = 0;
    folded_segments = 0;
    folded_busy = 0.0;
    folded_span = 0.0;
  }

let capacity t = t.capacity
let origin t = t.dates.(0)

let copy t = { t with dates = Array.copy t.dates; free = Array.copy t.free }

let stats t =
  {
    segments = t.len;
    peak_segments = t.peak;
    reserves = t.n_reserve;
    releases = t.n_release;
    searches = t.n_search;
    compactions = t.n_compact;
    folded_segments = t.folded_segments;
    folded_busy = t.folded_busy;
    folded_span = t.folded_span;
  }

(* Index of the segment containing [date]: greatest i with
   dates.(i) <= date (clamped to 0 for dates before the origin). *)
let seg_index t date =
  if date <= t.dates.(0) then 0
  else begin
    let lo = ref 0 and hi = ref (t.len - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.dates.(mid) <= date then lo := mid else hi := mid - 1
    done;
    !lo
  end

let free_at t date = t.free.(seg_index t date)

let breakpoints t = List.init t.len (fun i -> (t.dates.(i), t.free.(i)))

let events t =
  List.init t.len (fun i ->
      if i = 0 then (t.dates.(0), t.free.(0) - t.capacity)
      else (t.dates.(i), t.free.(i) - t.free.(i - 1)))

(* Shift levels with a loop typed at [int], not [Array.blit]: the blit
   cannot know the elements are immediate, so on an array in the major
   heap it runs the write barrier ([caml_modify]) per element, while
   the typed loop compiles to plain stores.  Every insert and merge
   shifts the whole tail, so the barrier would dominate an update.  The
   [dates] arrays hold flat floats; their blit is a memmove. *)
let blit_levels (src : int array) src_pos (dst : int array) dst_pos len =
  if src == dst && dst_pos > src_pos then
    for k = len - 1 downto 0 do
      dst.(dst_pos + k) <- src.(src_pos + k)
    done
  else
    for k = 0 to len - 1 do
      dst.(dst_pos + k) <- src.(src_pos + k)
    done

let grow t extra =
  let need = t.len + extra in
  let cap = Array.length t.dates in
  if need > cap then begin
    let cap' = max need (2 * cap) in
    let dates = Array.make cap' 0.0 and free = Array.make cap' 0 in
    Array.blit t.dates 0 dates 0 t.len;
    blit_levels t.free 0 free 0 t.len;
    t.dates <- dates;
    t.free <- free
  end

let insert t i date level =
  grow t 1;
  Array.blit t.dates i t.dates (i + 1) (t.len - i);
  blit_levels t.free i t.free (i + 1) (t.len - i);
  t.dates.(i) <- date;
  t.free.(i) <- level;
  t.len <- t.len + 1

(* Merge segment [i] into [i-1] when their levels became equal. *)
let merge_at t i =
  if i > 0 && i < t.len && t.free.(i) = t.free.(i - 1) then begin
    Array.blit t.dates (i + 1) t.dates i (t.len - i - 1);
    blit_levels t.free (i + 1) t.free i (t.len - i - 1);
    t.len <- t.len - 1
  end

(* Apply [delta] on [start, stop), touching only overlapping segments.
   Bounds are validated on the overlap before any mutation, so a failed
   call leaves the profile unchanged. *)
let update t ~start ~stop ~delta =
  assert (start < stop);
  let start = Float.max start t.dates.(0) in
  if delta <> 0 && start < stop then begin
    let i0 = seg_index t start in
    let j = ref i0 in
    while !j < t.len && t.dates.(!j) < stop do
      let f = t.free.(!j) + delta in
      if f < 0 then invalid_arg "Profile: availability would become negative";
      if f > t.capacity then invalid_arg "Profile: availability would exceed capacity";
      incr j
    done;
    (* Split so breakpoints exist exactly at [start] and [stop]. *)
    let i0 =
      if t.dates.(i0) < start then begin
        insert t (i0 + 1) start t.free.(i0);
        i0 + 1
      end
      else i0
    in
    let jl = ref i0 in
    while !jl + 1 < t.len && t.dates.(!jl + 1) < stop do incr jl done;
    if Float.is_finite stop && (!jl = t.len - 1 || t.dates.(!jl + 1) > stop) then
      insert t (!jl + 1) stop t.free.(!jl);
    for k = i0 to !jl do
      t.free.(k) <- t.free.(k) + delta
    done;
    (* Only the two seams can need re-merging: interior neighbours moved
       by the same delta, so they still differ. *)
    merge_at t (!jl + 1);
    merge_at t i0;
    t.peak <- max t.peak t.len
  end

let reserve t ~start ~duration ~procs =
  if duration <= 0.0 then invalid_arg "Profile.reserve: duration must be positive";
  if procs < 0 then invalid_arg "Profile.reserve: negative procs";
  t.n_reserve <- t.n_reserve + 1;
  if procs > 0 then update t ~start ~stop:(start +. duration) ~delta:(-procs)

let release t ~start ~duration ~procs =
  if duration <= 0.0 then invalid_arg "Profile.release: duration must be positive";
  if procs < 0 then invalid_arg "Profile.release: negative procs";
  t.n_release <- t.n_release + 1;
  if procs > 0 then update t ~start ~stop:(start +. duration) ~delta:procs

let release_window t ~start ~stop ~procs =
  if stop <= start then invalid_arg "Profile.release_window: empty window";
  if procs < 0 then invalid_arg "Profile.release_window: negative procs";
  t.n_release <- t.n_release + 1;
  if procs > 0 then update t ~start ~stop ~delta:procs

let find_start t ~earliest ~duration ~procs =
  t.n_search <- t.n_search + 1;
  if procs > t.capacity then raise Not_found;
  let earliest = Float.max earliest t.dates.(0) in
  (* Sweep once: a candidate start is [earliest] or the end of an
     insufficient segment; while a candidate holds, extend the covered
     window segment by segment instead of re-testing from scratch. *)
  let rec sweep j anchor =
    if t.free.(j) >= procs then begin
      let seg_end = if j + 1 < t.len then t.dates.(j + 1) else infinity in
      if duration <= 0.0 || seg_end >= anchor +. duration then anchor
      else sweep (j + 1) anchor
    end
    else if j + 1 >= t.len then raise Not_found
    else sweep (j + 1) t.dates.(j + 1)
  in
  sweep (seg_index t earliest) earliest

let place t ~earliest ~duration ~procs =
  let start = find_start t ~earliest ~duration ~procs in
  if duration > 0.0 then reserve t ~start ~duration ~procs;
  start

(* Fold everything strictly before [before] into the scalar aggregates
   and drop it.  The first remaining segment keeps its level but now
   starts at [before]; queries before the origin clamp to it, exactly
   as pre-compaction queries before 0 clamped to 0. *)
let compact t ~before =
  if not (Float.is_finite before) then
    invalid_arg "Profile.compact: non-finite date";
  if before <= t.dates.(0) then 0
  else begin
    let i = seg_index t before in
    let busy = ref 0.0 in
    for k = 0 to i - 1 do
      busy :=
        !busy +. (float_of_int (t.capacity - t.free.(k)) *. (t.dates.(k + 1) -. t.dates.(k)))
    done;
    busy := !busy +. (float_of_int (t.capacity - t.free.(i)) *. (before -. t.dates.(i)));
    t.folded_busy <- t.folded_busy +. !busy;
    t.folded_span <- t.folded_span +. (before -. t.dates.(0));
    t.folded_segments <- t.folded_segments + i;
    t.n_compact <- t.n_compact + 1;
    if i > 0 then begin
      Array.blit t.dates i t.dates 0 (t.len - i);
      blit_levels t.free i t.free 0 (t.len - i);
      t.len <- t.len - i
    end;
    t.dates.(0) <- before;
    i
  end

let holes t ~until =
  let acc = ref [] in
  let continue = ref true in
  let i = ref 0 in
  while !continue && !i < t.len do
    let s = t.dates.(!i) in
    let next = if !i + 1 < t.len then t.dates.(!i + 1) else infinity in
    let stop = Float.min next until in
    if t.free.(!i) > 0 && s < stop then acc := (s, stop, t.free.(!i)) :: !acc;
    if next >= until then continue := false else incr i
  done;
  List.rev !acc

(* Each demand with [procs > 0] that ends after 0 becomes a [+procs]
   event at its start clamped to 0 and, when [stop] is finite, a
   [-procs] event at [stop].  One sort by date and one sweep that sums
   each date's deltas and keeps only the dates where the total changes
   give the canonical step function: first entry at 0, strictly
   increasing dates, adjacent levels distinct. *)
let usage_timeline demands =
  let events =
    List.fold_left
      (fun acc (start, stop, procs) ->
        if procs > 0 && stop > start && stop > 0.0 then
          let acc = (Float.max start 0.0, procs) :: acc in
          if Float.is_finite stop then (stop, -procs) :: acc else acc
        else acc)
      [] demands
    |> Array.of_list
  in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) events;
  let n = Array.length events in
  let rec sweep i used acc =
    if i = n then List.rev acc
    else begin
      let date = fst events.(i) in
      let j = ref i and used = ref used in
      while !j < n && fst events.(!j) = date do
        used := !used + snd events.(!j);
        incr j
      done;
      let acc =
        match acc with
        | (_, u) :: _ when u = !used -> acc
        | (d, _) :: rest when d = date -> (date, !used) :: rest
        | _ -> (date, !used) :: acc
      in
      sweep !j !used acc
    end
  in
  sweep 0 0 [ (0.0, 0) ]

let pp ppf t =
  let pp_step ppf (s, f) = Format.fprintf ppf "%g->%d" s f in
  Format.fprintf ppf "@[<h>[%a]@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_step)
    (breakpoints t)
