type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* ------------------------------------------------------- JSON parsing *)

exception Bad of string

let json_of_string s =
  let n = String.length s in
  let i = ref 0 in
  let fail msg = raise (Bad msg) in
  let skip_ws () =
    while !i < n && (match s.[!i] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false) do
      incr i
    done
  in
  let expect c =
    skip_ws ();
    if !i >= n || s.[!i] <> c then fail (Printf.sprintf "expected '%c' at offset %d" c !i);
    incr i
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string"
      else
        match s.[!i] with
        | '"' ->
          incr i;
          Buffer.contents b
        | '\\' ->
          if !i + 1 >= n then fail "bad escape";
          (match s.[!i + 1] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            if !i + 6 > n then fail "bad \\u escape";
            let code =
              match int_of_string_opt ("0x" ^ String.sub s (!i + 2) 4) with
              | Some c -> c
              | None -> fail "bad \\u escape"
            in
            (* The repo's encoders only escape ASCII control chars. *)
            Buffer.add_char b (Char.chr (code land 0x7f));
            i := !i + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          i := !i + 2;
          go ()
        | c ->
          Buffer.add_char b c;
          incr i;
          go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    if !i >= n then fail "truncated value"
    else
      match s.[!i] with
      | '{' ->
        incr i;
        skip_ws ();
        if !i < n && s.[!i] = '}' then begin
          incr i;
          Obj []
        end
        else begin
          let rec members acc =
            let k = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            if !i < n && s.[!i] = ',' then begin
              incr i;
              skip_ws ();
              members ((k, v) :: acc)
            end
            else begin
              expect '}';
              List.rev ((k, v) :: acc)
            end
          in
          Obj (members [])
        end
      | '[' ->
        incr i;
        skip_ws ();
        if !i < n && s.[!i] = ']' then begin
          incr i;
          Arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            if !i < n && s.[!i] = ',' then begin
              incr i;
              elems (v :: acc)
            end
            else begin
              expect ']';
              List.rev (v :: acc)
            end
          in
          Arr (elems [])
        end
      | '"' -> Str (parse_string ())
      | 't' when !i + 4 <= n && String.sub s !i 4 = "true" ->
        i := !i + 4;
        Bool true
      | 'f' when !i + 5 <= n && String.sub s !i 5 = "false" ->
        i := !i + 5;
        Bool false
      | 'n' when !i + 4 <= n && String.sub s !i 4 = "null" ->
        i := !i + 4;
        Null
      | '-' | '0' .. '9' ->
        let start = !i in
        while
          !i < n
          && (match s.[!i] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false)
        do
          incr i
        done;
        (match float_of_string_opt (String.sub s start (!i - start)) with
        | Some f -> Num f
        | None -> fail "malformed number")
      | c -> fail (Printf.sprintf "unsupported value start '%c'" c)
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !i <> n then fail "trailing content after document";
    Ok v
  with Bad msg -> Error msg

(* ------------------------------------------------------------ inputs *)

type error =
  | Unreadable of string
  | Bad_line of { line : int; reason : string }
  | Bad_spec of string

let error_to_string = function
  | Unreadable msg -> msg
  | Bad_line { line; reason } -> Printf.sprintf "line %d: %s" line reason
  | Bad_spec reason -> Printf.sprintf "benchmark spec: %s" reason

type metric_spec = { name : string; unit_ : string; higher_better : bool; end_to_end : bool }

type run = {
  workload : string;
  traced : bool;
  correct : bool;
  failed : int;
  metrics : (string * float) list;
}

let field key = function Obj fields -> List.assoc_opt key fields | _ -> None

let ( let* ) = Result.bind

let spec_of_json j =
  let section key ~end_to_end =
    match field key j with
    | Some (Arr items) ->
      List.fold_right
        (fun item acc ->
          let* acc = acc in
          match (field "name" item, field "unit" item, field "better" item) with
          | Some (Str name), Some (Str unit_), Some (Str ("higher" | "lower" as better)) ->
            Ok ({ name; unit_; higher_better = better = "higher"; end_to_end } :: acc)
          | _ -> Error (Bad_spec (Printf.sprintf "a %S entry lacks name, unit or better" key)))
        items (Ok [])
    | _ -> Error (Bad_spec (Printf.sprintf "no %S list" key))
  in
  let* e2e = section "end_to_end" ~end_to_end:true in
  let* layers = section "per_layer" ~end_to_end:false in
  Ok (e2e @ layers)

(* One line: {"workload": W, "trace": 0|1, "result": <perfbench's last line>}. *)
let run_of_json j =
  let result = field "result" j in
  let metrics =
    match Option.bind result (field "metrics") with
    | Some (Obj fields) ->
      List.fold_right
        (fun (name, m) acc ->
          match (acc, field "value" m) with
          | Some acc, Some (Num v) -> Some ((name, v) :: acc)
          | _ -> None)
        fields (Some [])
    | _ -> None
  in
  let traced =
    match field "trace" j with Some (Num 0.0) -> Some false | Some (Num 1.0) -> Some true | _ -> None
  in
  match
    ( field "workload" j,
      traced,
      Option.bind result (field "correct"),
      Option.bind result (field "failed"),
      metrics )
  with
  | Some (Str workload), Some traced, Some (Bool correct), Some (Num failed), Some metrics
    when Float.is_integer failed ->
    Ok { workload; traced; correct; failed = int_of_float failed; metrics }
  | _ -> Error "not a run record: workload, trace 0|1 and perfbench's result object expected"

let runs_of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest when String.trim l = "" -> go (i + 1) acc rest
    | l :: rest -> (
      let bad reason = Error (Bad_line { line = i; reason }) in
      match Result.bind (json_of_string l) run_of_json with
      | Error reason -> bad reason
      | Ok r when List.exists (fun o -> o.workload = r.workload && o.traced = r.traced) acc ->
        bad (Printf.sprintf "a second %s run of %s" (if r.traced then "traced" else "untraced")
               r.workload)
      | Ok r -> go (i + 1) (r :: acc) rest)
  in
  go 1 [] lines

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error (Unreadable msg)
  | content -> Ok content

let load path = Result.bind (read path) runs_of_string

let load_spec path =
  let* content = read path in
  match json_of_string content with
  | Error reason -> Error (Bad_spec reason)
  | Ok j -> spec_of_json j

(* --------------------------------------------------------------- diff *)

(* Metrics that repeated to the bit across processes at --scale 0.1
   --seed 1 (perfbench/README.md lists how each is measured).
   serve.alloc_bytes_per_arrival and gc.major_collections did not: the
   first took one of two values a few hundredths of a byte apart, the
   second moved with the number of repetitions. *)
let exact =
  [
    "cmax_ratio";
    "mean_flow_s";
    "served_frac";
    "core.alloc_bytes_per_job";
    "backfill.probes_per_job";
    "backfill.fill_ratio";
    "mrt.guess_accept_ratio";
    "serve.rounds";
    "serve.admitted";
    "serve.shed";
    "serve.max_queue_depth";
    "serve.wal_bytes_per_arrival";
    "sim.profile.peak_segments";
    "sim.profile.compactions";
    "sim.profile.searches_per_arrival";
  ]

(* ...except where one workload's reading did not repeat: batch-vector
   allocates large profile arrays straight into the major heap, which
   Gc.allocated_bytes counts only at the next major slice, and one
   process in 29 read 22215 B per job against 22540. *)
let inexact = [ ("batch-vector", "core.alloc_bytes_per_job") ]

let is_exact ~workload metric = List.mem metric exact && not (List.mem (workload, metric) inexact)

let factor = 3.0

(* Per-layer timings of a whole call: they move with every layer inside
   them, so they never name the layer that moved. *)
let totals =
  [ "run.rep_s"; "core.schedule_s"; "core.schedule_s.easy-mr"; "core.schedule_s.list-mr"; "serve.run_s" ]

type rule = Exact | Factor | Report

type row = {
  metric : string;
  old_value : float;
  new_value : float;
  worse_by : float;
  rule : rule;
  failing : bool;
}

type workload = {
  name : string;
  problems : string list;
  rows : row list;
  only_old : string list;
  only_new : string list;
  moved_most : row option;
}

type diff = { workloads : workload list; failures : int }

(* How many times worse [nw] is than [old] in the metric's bad
   direction: 1 when equal, below 1 when better. *)
let worse_by ~higher_better old nw =
  let ratio a b = if Float.equal a b then 1.0 else if b > 0.0 then a /. b else infinity in
  if higher_better then ratio old nw else ratio nw old

let compare_metric spec ~workload (name, old_value) new_value =
  let ms = List.find_opt (fun (m : metric_spec) -> m.name = name) spec in
  let higher_better = match ms with Some m -> m.higher_better | None -> false in
  let rule =
    if is_exact ~workload name then Exact
    else match ms with Some m when m.end_to_end -> Factor | _ -> Report
  in
  let worse_by = worse_by ~higher_better old_value new_value in
  {
    metric = name;
    old_value;
    new_value;
    worse_by;
    rule;
    failing =
      (match rule with
      | Exact -> not (Float.equal old_value new_value)
      | Factor -> worse_by > factor
      | Report -> false);
  }

let layer_timing spec name =
  (not (List.mem name totals))
  && List.exists (fun (m : metric_spec) -> m.name = name && (not m.end_to_end) && m.unit_ = "s") spec

let compare_workload spec name old_runs new_runs =
  let metrics runs = List.concat_map (fun r -> r.metrics) runs in
  let old_metrics = metrics old_runs and new_metrics = metrics new_runs in
  let label r = if r.traced then "traced" else "untraced" in
  let problems =
    List.filter_map
      (fun o ->
        if List.exists (fun n -> n.traced = o.traced) new_runs then None
        else Some (Printf.sprintf "the %s run is missing" (label o)))
      old_runs
    @ List.filter_map
        (fun n ->
          if n.correct && n.failed = 0 then None
          else
            Some
              (Printf.sprintf "the %s run failed its checks (correct %b, failed %d)" (label n)
                 n.correct n.failed))
        new_runs
  in
  let rows =
    List.filter_map
      (fun ((metric, _) as old) ->
        Option.map (compare_metric spec ~workload:name old) (List.assoc_opt metric new_metrics))
      old_metrics
  in
  let absent from = List.filter_map (fun (m, _) -> if List.mem_assoc m from then None else Some m) in
  (* Only a timing that grew can explain a failure: one that stayed at
     0 or shrank belongs to a layer the change did not slow down. *)
  let moved_most =
    List.fold_left
      (fun best r ->
        let growth = r.new_value -. r.old_value in
        if not (layer_timing spec r.metric && growth > 0.0) then best
        else
          match best with
          | Some b when b.new_value -. b.old_value >= growth -> best
          | _ -> Some r)
      None rows
  in
  {
    name;
    problems;
    rows;
    only_old = absent new_metrics old_metrics;
    only_new = absent old_metrics new_metrics;
    moved_most;
  }

let failing w = w.problems <> [] || List.exists (fun r -> r.failing) w.rows

let diff spec old_runs new_runs =
  let names runs = List.map (fun r -> r.workload) runs in
  let workloads =
    List.sort_uniq compare (names old_runs @ names new_runs)
    |> List.map (fun name ->
           let of_ runs = List.filter (fun r -> r.workload = name) runs in
           compare_workload spec name (of_ old_runs) (of_ new_runs))
  in
  let failures w = List.length w.problems + List.length (List.filter (fun r -> r.failing) w.rows) in
  { workloads; failures = List.fold_left (fun acc w -> acc + failures w) 0 workloads }

let render d =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  List.iter
    (fun w ->
      line "== %s: %s" w.name (if failing w then "FAIL" else "ok");
      List.iter (line "  %s") w.problems;
      List.iter
        (fun r ->
          let verdict =
            match (r.failing, r.rule) with
            | true, Exact -> "  FAIL (exact metric changed)"
            | true, _ -> Printf.sprintf "  FAIL (worse than x%g)" factor
            | false, _ -> ""
          in
          let ratio =
            if r.old_value > 0.0 && r.new_value >= 0.0 then Printf.sprintf "x%.3g" r.worse_by
            else ""
          in
          line "  %-34s %18.10g %18.10g  %-8s%s" r.metric r.old_value r.new_value ratio verdict)
        (* A layer the workload does not exercise reads 0 on both sides. *)
        (List.filter
           (fun r -> r.failing || not (Float.equal r.old_value 0.0 && Float.equal r.new_value 0.0))
           w.rows);
      List.iter (line "  removed: %s") w.only_old;
      List.iter (line "  added: %s") w.only_new;
      if failing w then
        match w.moved_most with
        | Some r ->
          line "  per-layer timing that moved most: %s (%.4g s -> %.4g s)" r.metric r.old_value
            r.new_value
        | None -> line "  no per-layer timing grew")
    d.workloads;
  line "%d workload(s), %d failure(s)" (List.length d.workloads) d.failures;
  Buffer.contents b
