open Psched_workload
open Psched_sim
module Obs = Psched_obs.Obs

let canonical_alloc ~m ~deadline (job : Job.t) =
  Alloc_cache.canonical (Alloc_cache.of_job ~m job) ~deadline

(* Same bound as [Lower_bounds.cmax], read off the allocation caches
   instead of re-querying [Job.time_on] for every width. *)
let cmax_cached ~m caches =
  let critical = ref 0.0 and area = ref 0.0 in
  Array.iter
    (fun c ->
      let j = Alloc_cache.job c in
      let fastest =
        if Alloc_cache.feasible c then Alloc_cache.time_on c (Alloc_cache.max_procs c)
        else infinity
      in
      critical := Float.max !critical (j.Job.release +. fastest);
      let best = Alloc_cache.min_work c in
      let best =
        if Float.is_finite best then best
        else match j.Job.shape with Job.Divisible { work } -> work | _ -> infinity
      in
      area := !area +. best)
    caches;
  Float.max !critical (!area /. float_of_int m)

type verdict = Rejected | Accepted of Schedule.t

(* Knapsack: each task goes to shelf 1 (width gamma1, work w1,
   bounded total width m) or shelf 2 (no width constraint, work w2);
   minimise total work.  Returns the assignment minimising work, or
   None if the tasks forced into shelf 1 already overflow it.

   Most tasks never reach the DP.  A task without a shelf-2
   allocation is forced into shelf 1; a task whose short allocation
   costs no extra work can always be exchanged into shelf 2 (it frees
   width and work only drops); a task wider than the leftover shelf
   can never fit.  What remains is a plain 0/1 knapsack — pick the
   subset of savings w2 - w1 > 0 whose widths fit the residual
   capacity — solved with a single in-place float row plus one choice
   bit per (item, width) state for recovering the assignment, instead
   of the former n+1 full-width float layers over every task. *)
let knapsack ~m tasks =
  let n = Array.length tasks in
  let in_shelf1 = Array.make n false in
  let base = ref 0.0 in
  (* Work of the forced choices accumulates in [base]. *)
  let q0 = ref 0 in
  let pool = ref [] in
  Array.iteri
    (fun i (_, g1, w1, short) ->
      match short with
      | None ->
        in_shelf1.(i) <- true;
        q0 := !q0 + g1;
        base := !base +. w1
      | Some (_, w2) ->
        if w2 <= w1 then base := !base +. w2
        else pool := (i, g1, w1, w2) :: !pool)
    tasks;
  if !q0 > m then None
  else begin
    let cap = m - !q0 in
    let wide, small = List.partition (fun (_, g1, _, _) -> g1 > cap) !pool in
    List.iter (fun (_, _, _, w2) -> base := !base +. w2) wide;
    let items = Array.of_list small in
    let k = Array.length items in
    let sum_g = Array.fold_left (fun acc (_, g, _, _) -> acc + g) 0 items in
    if sum_g <= cap then begin
      (* Everything fits side by side: all savings are collected. *)
      Array.iter
        (fun (i, _, w1, _) ->
          in_shelf1.(i) <- true;
          base := !base +. w1)
        items;
      Some (!base, in_shelf1)
    end
    else begin
      (* dp.(q) = best saving within width q; bit (i, q) records that
         item i improved cell q, which is exactly the information the
         walk-back needs. *)
      let dp = Array.make (cap + 1) 0.0 in
      let row = cap + 1 in
      let choice = Bytes.make (((k * row) + 7) / 8) '\000' in
      let set_bit i q =
        let b = (i * row) + q in
        Bytes.unsafe_set choice (b lsr 3)
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get choice (b lsr 3)) lor (1 lsl (b land 7))))
      in
      let get_bit i q =
        let b = (i * row) + q in
        Char.code (Bytes.unsafe_get choice (b lsr 3)) land (1 lsl (b land 7)) <> 0
      in
      for i = 0 to k - 1 do
        let _, g, w1, w2 = items.(i) in
        let v = w2 -. w1 in
        for q = cap downto g do
          let cand = Array.unsafe_get dp (q - g) +. v in
          if cand > Array.unsafe_get dp q then begin
            Array.unsafe_set dp q cand;
            set_bit i q
          end
        done
      done;
      let q = ref cap in
      for i = k - 1 downto 0 do
        let idx, g, w1, w2 = items.(i) in
        if get_bit i !q then begin
          in_shelf1.(idx) <- true;
          base := !base +. w1;
          q := !q - g
        end
        else base := !base +. w2
      done;
      Some (!base, in_shelf1)
    end
  end

(* A lambda guess is summarised by the canonical allocations it
   induces: (g1_i, g2_i) for every job.  Adjacent guesses of the dual
   binary search usually induce the *same* vector — the allocations
   only move when lambda crosses one of the jobs' execution times —
   so the knapsack optimum and the packed schedule are cached per
   distinct vector and shared across guesses.  The stored schedule is
   lambda-free (it depends only on the allocations and assignment);
   only the budget test [work <= lambda*m] is re-evaluated. *)
type memo_entry = {
  key : int array;  (* g1_0, g2_0 (or -1), g1_1, g2_1, ... *)
  floor_w : float;  (* sum of min(w1, w2): no assignment works less *)
  mutable solved : bool;
  mutable solution : (float * bool array) option;  (* knapsack optimum *)
  mutable packed : Schedule.t option;  (* built on first acceptance *)
}

(* Decide a guess without building its schedule; [Some entry] means
   accepted.  The packing is deferred to [pack_entry] so the binary
   search only ever packs the guess it finally settles on. *)
let eval_guess ?(obs = Obs.null) ~m ~lambda caches memo =
  let n = Array.length caches in
  let exception Reject in
  try
    let key = Array.make (2 * n) (-1) in
    let tasks =
      Array.mapi
        (fun i cache ->
          match Alloc_cache.canonical cache ~deadline:lambda with
          | None -> raise Reject
          | Some g1 ->
            key.(2 * i) <- g1;
            let w1 = Alloc_cache.work_on cache g1 in
            let short =
              match Alloc_cache.canonical cache ~deadline:(lambda /. 2.0) with
              | Some g2 ->
                key.((2 * i) + 1) <- g2;
                Some (g2, Alloc_cache.work_on cache g2)
              | None -> None
            in
            (cache, g1, w1, short))
        caches
    in
    let entry =
      match List.find_opt (fun e -> e.key = key) !memo with
      | Some e -> e
      | None ->
        let floor_w = ref 0.0 in
        Array.iter
          (fun (_, _, w1, short) ->
            match short with
            | Some (_, w2) -> floor_w := !floor_w +. Float.min w1 w2
            | None -> floor_w := !floor_w +. w1)
          tasks;
        let e = { key; floor_w = !floor_w; solved = false; solution = None; packed = None } in
        memo := e :: !memo;
        e
    in
    let budget = (lambda *. float_of_int m) +. 1e-9 in
    (* The floor already decides most rejections without touching the
       DP; the knapsack runs at most once per distinct vector, and
       only for guesses whose budget the floor cannot exclude. *)
    if entry.floor_w > budget then begin
      if Obs.enabled obs then begin
        Obs.knapsack_prune obs ~lambda ~reason:"floor";
        Obs.Counter.incr obs "mrt/knapsack/floor_pruned";
        Obs.lambda_guess obs ~lambda ~accepted:false;
        Obs.Counter.incr obs "mrt/guess/rejected"
      end;
      None
    end
    else begin
      if not entry.solved then begin
        if Obs.enabled obs then begin
          Obs.knapsack_run obs ~items:n ~cap:m;
          Obs.Counter.incr obs "mrt/knapsack/dp"
        end;
        entry.solution <- Obs.span obs "mrt.knapsack" (fun () -> knapsack ~m tasks);
        entry.solved <- true
      end
      else if Obs.enabled obs then Obs.Counter.incr obs "mrt/knapsack/memo_hit";
      let verdict =
        match entry.solution with
        | None -> None
        | Some (work, _) -> if work > budget then None else Some entry
      in
      if Obs.enabled obs then begin
        let accepted = Option.is_some verdict in
        Obs.lambda_guess obs ~lambda ~accepted;
        Obs.Counter.incr obs (if accepted then "mrt/guess/accepted" else "mrt/guess/rejected")
      end;
      verdict
    end
  with Reject ->
    if Obs.enabled obs then begin
      Obs.knapsack_prune obs ~lambda ~reason:"infeasible";
      Obs.lambda_guess obs ~lambda ~accepted:false;
      Obs.Counter.incr obs "mrt/guess/rejected"
    end;
    None

(* Build the two-shelf schedule for an accepted entry: shelf-1 tasks
   start at 0; shelf-2 tasks are packed greedily (longest first) in
   the leftover capacity.  The allocations are read back from the
   entry's key, so no lambda is needed. *)
let pack_entry ?(obs = Obs.null) ~m caches entry =
  match entry.packed with
  | Some s ->
    if Obs.enabled obs then Obs.Counter.incr obs "mrt/pack/memo_hit";
    s
  | None ->
    Obs.span obs "mrt.pack" @@ fun () ->
    let in_shelf1 =
      match entry.solution with
      | Some (_, a) -> a
      | None -> assert false  (* only accepted entries are packed *)
    in
    let profile = Profile.create m in
    let entries = ref [] in
    let shelf2 = ref [] in
    Array.iteri
      (fun i cache ->
        if in_shelf1.(i) then begin
          let g1 = entry.key.(2 * i) in
          let duration = Alloc_cache.time_on cache g1 in
          Profile.reserve profile ~start:0.0 ~duration ~procs:g1;
          if Obs.enabled obs then
            Obs.prov_choice obs ~job:(Alloc_cache.job cache).Job.id ~chosen:"shelf1";
          entries := Schedule.entry ~job:(Alloc_cache.job cache) ~start:0.0 ~procs:g1 () :: !entries
        end
        else begin
          (* Not in shelf 1, so the short allocation existed. *)
          if Obs.enabled obs then
            Obs.prov_choice obs ~job:(Alloc_cache.job cache).Job.id ~chosen:"shelf2";
          shelf2 := (cache, entry.key.((2 * i) + 1)) :: !shelf2
        end)
      caches;
    let by_longest (a, ka) (b, kb) =
      compare
        (Alloc_cache.time_on b kb, (Alloc_cache.job a).Job.id)
        (Alloc_cache.time_on a ka, (Alloc_cache.job b).Job.id)
    in
    let sorted2 = List.sort by_longest !shelf2 in
    List.iter
      (fun (cache, procs) ->
        let duration = Alloc_cache.time_on cache procs in
        let start = Profile.place profile ~earliest:0.0 ~duration ~procs in
        if Obs.enabled obs then
          Obs.prov_consider obs ~job:(Alloc_cache.job cache).Job.id ~start ~procs;
        entries := Schedule.entry ~job:(Alloc_cache.job cache) ~start ~procs () :: !entries)
      sorted2;
    let s = Schedule.make ~m !entries in
    if Obs.enabled obs then begin
      let n1 = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 in_shelf1 in
      Obs.mrt_pack obs ~shelf1:n1 ~shelf2:(Array.length caches - n1)
    end;
    entry.packed <- Some s;
    s

let try_guess_memo ?obs ~m ~lambda caches memo =
  match eval_guess ?obs ~m ~lambda caches memo with
  | None -> Rejected
  | Some entry -> Accepted (pack_entry ?obs ~m caches entry)

let try_guess_cached ?obs ~m ~lambda caches = try_guess_memo ?obs ~m ~lambda caches (ref [])

let try_guess ?obs ~m ~lambda jobs =
  try_guess_cached ?obs ~m ~lambda (Array.of_list (List.map (Alloc_cache.of_job ~m) jobs))

let schedule ?(obs = Obs.null) ?(epsilon = 0.01) ~m jobs =
  match jobs with
  | [] -> Schedule.make ~m []
  | _ ->
    (* Precondition: [Job.min_procs j <= m] for all jobs; the
       {!Schedulers} adapter rejects wider ones with a typed
       [Too_wide] error before calling. *)
    Obs.span obs "mrt" @@ fun () ->
    (* The allocation caches survive the whole dual search: every
       lambda guess re-queries them instead of re-scanning time_on. *)
    let caches =
      Obs.span obs "mrt.alloc" @@ fun () ->
      Array.of_list (List.map (Alloc_cache.of_job ~m) jobs)
    in
    let memo = ref [] in
    let lb = cmax_cached ~m caches in
    let lb = if lb > 0.0 then lb else 1e-9 in
    (* Find an accepted upper guess by doubling. *)
    let rec find_hi lambda =
      match eval_guess ~obs ~m ~lambda caches memo with
      | Some e -> (lambda, e)
      | None -> find_hi (2.0 *. lambda)
    in
    let best =
      Obs.span obs "mrt.search" @@ fun () ->
      let hi, first = find_hi lb in
      (* Bisect down to the smallest accepted guess; only that one is
         ever packed into a schedule. *)
      let best = ref first in
      let rec search lo hi =
        if hi -. lo <= epsilon *. lo then ()
        else begin
          let mid = (lo +. hi) /. 2.0 in
          match eval_guess ~obs ~m ~lambda:mid caches memo with
          | Some e ->
            best := e;
            search lo mid
          | None -> search mid hi
        end
      in
      search lb hi;
      !best
    in
    pack_entry ~obs ~m caches best
