(* Equivalence of the indexed Profile engine and the assoc-list
   Profile_reference oracle: random operation sequences must produce
   identical observations (results, exceptions, breakpoints, holes,
   point queries), plus regressions for zero-duration windows and
   back-to-back segment merging. *)

open Psched_sim

type op =
  | Reserve of float * float * int
  | Release of float * float * int
  | Release_window of float * float * int
  | Find of float * float * int
  | Place of float * float * int
  | Free_at of float
  | Holes of float

let pp_op ppf = function
  | Reserve (s, d, p) -> Format.fprintf ppf "reserve %g +%g x%d" s d p
  | Release (s, d, p) -> Format.fprintf ppf "release %g +%g x%d" s d p
  | Release_window (s, e, p) -> Format.fprintf ppf "release_window %g..%g x%d" s e p
  | Find (e, d, p) -> Format.fprintf ppf "find %g +%g x%d" e d p
  | Place (e, d, p) -> Format.fprintf ppf "place %g +%g x%d" e d p
  | Free_at d -> Format.fprintf ppf "free_at %g" d
  | Holes u -> Format.fprintf ppf "holes %g" u

(* One observation per op, rich enough that divergence shows up
   immediately: the op's own result plus the full breakpoint list. *)
type obs =
  | Start of float
  | Count of int
  | Segs of (float * float * int) list
  | Unit
  | Error of string

let observe (module P : Profile_intf.S) m ops =
  let p = P.create m in
  let step op =
    let r =
      match op with
      | Reserve (start, duration, procs) -> (
        match P.reserve p ~start ~duration ~procs with
        | () -> Unit
        | exception Invalid_argument msg -> Error msg)
      | Release (start, duration, procs) -> (
        match P.release p ~start ~duration ~procs with
        | () -> Unit
        | exception Invalid_argument msg -> Error msg)
      | Release_window (start, stop, procs) -> (
        match P.release_window p ~start ~stop ~procs with
        | () -> Unit
        | exception Invalid_argument msg -> Error msg)
      | Find (earliest, duration, procs) -> (
        match P.find_start p ~earliest ~duration ~procs with
        | s -> Start s
        | exception Not_found -> Error "not found")
      | Place (earliest, duration, procs) -> (
        match P.place p ~earliest ~duration ~procs with
        | s -> Start s
        | exception Not_found -> Error "not found")
      | Free_at date -> Count (P.free_at p date)
      | Holes until -> Segs (P.holes p ~until)
    in
    (r, P.breakpoints p)
  in
  List.map step ops

(* Dates on a half-integer grid provoke exact boundary collisions
   (back-to-back reservations, find at segment ends); procs beyond the
   capacity exercise the Not_found / Invalid_argument paths. *)
let gen_ops =
  let open QCheck.Gen in
  let date = map (fun k -> 0.5 *. float_of_int k) (int_range 0 40) in
  let duration = map (fun k -> 0.5 *. float_of_int k) (int_range 1 16) in
  let gen_op m =
    frequency
      [
        (4, map3 (fun s d p -> Reserve (s, d, p)) date duration (int_range 0 (m + 2)));
        (2, map3 (fun s d p -> Release (s, d, p)) date duration (int_range 0 (m + 2)));
        (1, map3 (fun s d p -> Release_window (s, s +. d, p)) date duration (int_range 0 (m + 2)));
        (3, map3 (fun e d p -> Find (e, d, p)) date (map (fun d -> d -. 0.5) duration) (int_range 0 (m + 2)));
        (3, map3 (fun e d p -> Place (e, d, p)) date duration (int_range 0 (m + 2)));
        (1, map (fun d -> Free_at d) date);
        (1, map (fun u -> Holes u) date);
      ]
  in
  let* m = int_range 1 16 in
  let* ops = list_size (int_range 1 30) (gen_op m) in
  return (m, ops)

let arb_ops =
  QCheck.make
    ~print:(fun (m, ops) ->
      Format.asprintf "m=%d@ %a" m (Format.pp_print_list pp_op) ops)
    gen_ops

let qcheck_engines_agree =
  T_helpers.qtest ~count:1000 "profile engines: indexed = reference on random op sequences"
    arb_ops
    (fun (m, ops) ->
      observe (module Profile) m ops = observe (module Profile_reference) m ops)

(* --- compaction ------------------------------------------------------- *)

(* Compaction soundness: a Profile compacted at a monotone watermark
   must answer every query over windows at or beyond the watermark
   exactly like the uncompacted Profile_reference oracle.  Steps either
   advance the watermark (triggering a compact) or run an op whose
   dates are offsets from the current watermark, so no op ever looks
   into folded history — the regime Stream.run guarantees. *)
type cstep =
  | Advance of float
  | Op of op

let pp_cstep ppf = function
  | Advance w -> Format.fprintf ppf "advance +%g" w
  | Op o -> pp_op ppf o

(* Like [observe] but without the breakpoint list: compaction is
   allowed to change segmentation, never answers.  The closure keeps
   the engine's own state so the first-class module type never
   escapes. *)
let stepper (module P : Profile_intf.S) m =
  let q = P.create m in
  fun op ->
    match op with
    | Reserve (start, duration, procs) -> (
      match P.reserve q ~start ~duration ~procs with
      | () -> Unit
      | exception Invalid_argument msg -> Error msg)
    | Release (start, duration, procs) -> (
      match P.release q ~start ~duration ~procs with
      | () -> Unit
      | exception Invalid_argument msg -> Error msg)
    | Release_window (start, stop, procs) -> (
      match P.release_window q ~start ~stop ~procs with
      | () -> Unit
      | exception Invalid_argument msg -> Error msg)
    | Find (earliest, duration, procs) -> (
      match P.find_start q ~earliest ~duration ~procs with
      | s -> Start s
      | exception Not_found -> Error "not found")
    | Place (earliest, duration, procs) -> (
      match P.place q ~earliest ~duration ~procs with
      | s -> Start s
      | exception Not_found -> Error "not found")
    | Free_at date -> Count (P.free_at q date)
    | Holes _ -> Unit

let run_compacted m steps =
  let p = Profile.create m in
  (* The subject must be the same instance we compact, so drive it
     directly; the oracle goes through the shared stepper. *)
  let subject op =
    match op with
    | Reserve (start, duration, procs) -> (
      match Profile.reserve p ~start ~duration ~procs with
      | () -> Unit
      | exception Invalid_argument msg -> Error msg)
    | Release (start, duration, procs) -> (
      match Profile.release p ~start ~duration ~procs with
      | () -> Unit
      | exception Invalid_argument msg -> Error msg)
    | Release_window (start, stop, procs) -> (
      match Profile.release_window p ~start ~stop ~procs with
      | () -> Unit
      | exception Invalid_argument msg -> Error msg)
    | Find (earliest, duration, procs) -> (
      match Profile.find_start p ~earliest ~duration ~procs with
      | s -> Start s
      | exception Not_found -> Error "not found")
    | Place (earliest, duration, procs) -> (
      match Profile.place p ~earliest ~duration ~procs with
      | s -> Start s
      | exception Not_found -> Error "not found")
    | Free_at date -> Count (Profile.free_at p date)
    | Holes _ -> Unit
  in
  let oracle = stepper (module Profile_reference) m in
  let watermark = ref 0.0 in
  let shift = function
    | Reserve (s, d, pr) -> Reserve (!watermark +. s, d, pr)
    | Release (s, d, pr) -> Release (!watermark +. s, d, pr)
    | Release_window (s, e, pr) -> Release_window (!watermark +. s, !watermark +. e, pr)
    | Find (e, d, pr) -> Find (!watermark +. e, d, pr)
    | Place (e, d, pr) -> Place (!watermark +. e, d, pr)
    | Free_at d -> Free_at (!watermark +. d)
    | Holes u -> Holes (!watermark +. u)
  in
  let observations =
    List.filter_map
      (fun s ->
        match s with
        | Advance w ->
          watermark := !watermark +. w;
          ignore (Profile.compact p ~before:!watermark);
          None
        | Op op ->
          let op = shift op in
          Some (subject op, oracle op))
      steps
  in
  (observations, Profile.stats p, !watermark)

let gen_csteps =
  let open QCheck.Gen in
  let date = map (fun k -> 0.5 *. float_of_int k) (int_range 0 20) in
  let duration = map (fun k -> 0.5 *. float_of_int k) (int_range 1 12) in
  let gen_step m =
    frequency
      [
        (2, map (fun w -> Advance (0.5 *. float_of_int w)) (int_range 0 8));
        (4, map3 (fun s d p -> Op (Reserve (s, d, p))) date duration (int_range 0 (m + 2)));
        (1, map3 (fun s d p -> Op (Release (s, d, p))) date duration (int_range 0 (m + 2)));
        (3, map3 (fun e d p -> Op (Find (e, d, p))) date duration (int_range 0 (m + 2)));
        (3, map3 (fun e d p -> Op (Place (e, d, p))) date duration (int_range 0 (m + 2)));
        (1, map (fun d -> Op (Free_at d)) date);
      ]
  in
  let* m = int_range 1 16 in
  let* steps = list_size (int_range 1 40) (gen_step m) in
  return (m, steps)

let arb_csteps =
  QCheck.make
    ~print:(fun (m, steps) ->
      Format.asprintf "m=%d@ %a" m (Format.pp_print_list pp_cstep) steps)
    gen_csteps

let qcheck_compaction_transparent =
  T_helpers.qtest ~count:1000
    "profile compaction: compacted = reference beyond the watermark" arb_csteps
    (fun (m, steps) ->
      let observations, stats, watermark = run_compacted m steps in
      List.for_all (fun (a, b) -> a = b) observations
      (* Conservation: folded spans add up to the origin shift. *)
      && Float.abs (stats.Profile.folded_span -. watermark) <= 1e-9 *. (1.0 +. watermark))

let test_compact_basics () =
  let p = Profile.create 4 in
  Profile.reserve p ~start:0.0 ~duration:2.0 ~procs:3;
  Profile.reserve p ~start:2.0 ~duration:2.0 ~procs:1;
  (* Folding half of the busy history: 3 procs over [0,2) and 1 proc
     over [2,3) were in use before the watermark. *)
  let dropped = Profile.compact p ~before:3.0 in
  Alcotest.(check int) "segments dropped" 1 dropped;
  Alcotest.(check (float 1e-9)) "origin advanced" 3.0 (Profile.origin p);
  let s = Profile.stats p in
  Alcotest.(check int) "compactions" 1 s.Profile.compactions;
  Alcotest.(check int) "folded segments" 1 s.Profile.folded_segments;
  Alcotest.(check (float 1e-9)) "folded busy" 7.0 s.Profile.folded_busy;
  Alcotest.(check (float 1e-9)) "folded span" 3.0 s.Profile.folded_span;
  (* Queries at or beyond the watermark still see the live tail. *)
  Alcotest.(check int) "free in live tail" 3 (Profile.free_at p 3.5);
  Alcotest.(check (float 1e-9)) "find clamps to origin" 4.0
    (Profile.find_start p ~earliest:0.0 ~duration:1.0 ~procs:4);
  (* Compacting behind the origin is a no-op. *)
  Alcotest.(check int) "no-op compact" 0 (Profile.compact p ~before:1.0)

(* --- regressions ------------------------------------------------------ *)

let test_zero_duration_window () =
  let p = Profile.create 4 and r = Profile_reference.create 4 in
  Profile.reserve p ~start:0.0 ~duration:2.0 ~procs:4;
  Profile_reference.reserve r ~start:0.0 ~duration:2.0 ~procs:4;
  (* A zero-duration window needs only the instant itself: blocked while
     the profile is saturated, available at the segment boundary. *)
  T_helpers.check_float "zero-duration waits" 2.0
    (Profile.find_start p ~earliest:0.0 ~duration:0.0 ~procs:1);
  T_helpers.check_float "oracle agrees" 2.0
    (Profile_reference.find_start r ~earliest:0.0 ~duration:0.0 ~procs:1);
  T_helpers.check_float "zero-duration inside a feasible segment" 1.0
    (Profile.find_start p ~earliest:1.0 ~duration:0.0 ~procs:0);
  Alcotest.check_raises "zero-duration too wide" Not_found (fun () ->
      ignore (Profile.find_start p ~earliest:0.0 ~duration:0.0 ~procs:5))

let test_back_to_back_merge () =
  let p = Profile.create 8 in
  Profile.reserve p ~start:0.0 ~duration:5.0 ~procs:4;
  Profile.reserve p ~start:5.0 ~duration:5.0 ~procs:4;
  (* Adjacent equal-level segments must fuse: one plateau, no
     breakpoint at the shared boundary. *)
  Alcotest.(check (list (pair (float 1e-9) int)))
    "merged plateau"
    [ (0.0, 4); (10.0, 8) ]
    (Profile.breakpoints p);
  Profile.release p ~start:0.0 ~duration:10.0 ~procs:4;
  Alcotest.(check (list (pair (float 1e-9) int)))
    "flat after release" [ (0.0, 8) ] (Profile.breakpoints p)

let test_copy_deep () =
  let p = Profile.create 8 in
  Profile.reserve p ~start:1.0 ~duration:4.0 ~procs:3;
  let q = Profile.copy p in
  Profile.reserve q ~start:2.0 ~duration:1.0 ~procs:5;
  Profile.release q ~start:1.0 ~duration:4.0 ~procs:3;
  Alcotest.(check (list (pair (float 1e-9) int)))
    "original unchanged by copy mutations"
    [ (0.0, 8); (1.0, 5); (5.0, 8) ]
    (Profile.breakpoints p)

let test_stats_and_events () =
  let p = Profile.create 8 in
  Profile.reserve p ~start:1.0 ~duration:4.0 ~procs:3;
  ignore (Profile.find_start p ~earliest:0.0 ~duration:1.0 ~procs:8);
  let s = Profile.stats p in
  Alcotest.(check int) "segments" 3 s.Profile.segments;
  Alcotest.(check int) "reserves" 1 s.Profile.reserves;
  Alcotest.(check int) "searches" 1 s.Profile.searches;
  Alcotest.(check bool) "peak >= segments" true (s.Profile.peak_segments >= s.Profile.segments);
  (* events are the signed jumps; prefix sums recover the levels. *)
  Alcotest.(check (list (pair (float 1e-9) int)))
    "events"
    [ (0.0, 0); (1.0, -3); (5.0, 3) ]
    (Profile.events p)

let test_usage_timeline () =
  Alcotest.(check (list (pair (float 1e-9) int)))
    "stacked demands"
    [ (0.0, 2); (1.0, 5); (2.0, 3); (4.0, 0) ]
    (Profile.usage_timeline [ (0.0, 2.0, 2); (1.0, 4.0, 3) ]);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "empty demand list" [ (0.0, 0) ] (Profile.usage_timeline [])

(* Brute-force oracle for [usage_timeline]: at every distinct endpoint
   date clamped to 0, the used level is the sum of [procs] over the
   demands with [start <= d < stop]; equal neighbours merge and the
   first entry sits at 0.  Demands with [procs <= 0] count for nothing. *)
let usage_oracle demands =
  let dates =
    List.concat_map
      (fun (start, stop, _) ->
        List.filter_map
          (fun d -> if Float.is_finite d then Some (Float.max d 0.0) else None)
          [ start; stop ])
      demands
    |> List.cons 0.0 |> List.sort_uniq Float.compare
  in
  let used d =
    List.fold_left
      (fun acc (start, stop, procs) ->
        if procs > 0 && start <= d && d < stop then acc + procs else acc)
      0 demands
  in
  List.fold_left
    (fun acc d ->
      let u = used d in
      match acc with (_, u') :: _ when u' = u -> acc | _ -> (d, u) :: acc)
    [] dates
  |> List.rev

(* Unordered demands on a half-unit grid, so endpoints coincide; starts
   go negative, stops fall at or before their start or at or before 0,
   some stops are infinite, and some widths are zero or negative. *)
let gen_demands =
  let open QCheck.Gen in
  let demand =
    let* start = map (fun k -> 0.5 *. float_of_int k) (int_range (-6) 20) in
    let* stop =
      frequency
        [
          (8, map (fun k -> start +. (0.5 *. float_of_int k)) (int_range (-3) 12));
          (1, map (fun k -> -0.5 *. float_of_int k) (int_range 0 4));
          (1, return infinity);
        ]
    in
    let* procs = int_range (-2) 8 in
    return (start, stop, procs)
  in
  list_size (int_range 0 25) demand

let qcheck_usage_timeline_oracle =
  T_helpers.qtest ~count:1000 "usage timeline: one sweep = brute-force oracle"
    (QCheck.make
       ~print:(fun ds ->
         String.concat "; " (List.map (fun (s, e, p) -> Printf.sprintf "(%g, %g, %d)" s e p) ds))
       gen_demands)
    (fun demands -> Profile.usage_timeline demands = usage_oracle demands)

let suite =
  [
    qcheck_engines_agree;
    qcheck_usage_timeline_oracle;
    qcheck_compaction_transparent;
    Alcotest.test_case "compaction basics" `Quick test_compact_basics;
    Alcotest.test_case "zero-duration windows" `Quick test_zero_duration_window;
    Alcotest.test_case "back-to-back merge" `Quick test_back_to_back_merge;
    Alcotest.test_case "copy is deep" `Quick test_copy_deep;
    Alcotest.test_case "stats and events" `Quick test_stats_and_events;
    Alcotest.test_case "usage timeline" `Quick test_usage_timeline;
  ]
