(* The analysis driver: walks the scan set, parses each .ml file with
   the compiler's own front end, applies the rule registry and the
   invalid_arg ratchet, and renders the findings as text or JSON.

   A file that does not parse is itself an Error finding ("parse") at
   the failure location — the analyzer never crashes on bad input,
   mirroring the exception barrier in lib/check. *)

let parse_rule_id = "parse"

(* ---------------------------------------------------------- parsing *)

let parse_string ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception Syntaxerr.Error err ->
    let loc = Syntaxerr.location_of_error err in
    let p = loc.Location.loc_start in
    Error
      (Finding.make ~rule:parse_rule_id ~severity:Finding.Error ~file
         ~line:p.Lexing.pos_lnum
         ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
         "syntax error: the file does not parse")
  | exception exn ->
    let line, col, detail =
      match Location.error_of_exn exn with
      | Some (`Ok report) ->
        let p = report.Location.main.Location.loc.Location.loc_start in
        (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol, "lexing/parsing error")
      | _ -> (1, 0, Printexc.to_string exn)
    in
    Error
      (Finding.make ~rule:parse_rule_id ~severity:Finding.Error ~file ~line ~col
         (Printf.sprintf "cannot parse: %s" detail))

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

(* ----------------------------------------------------- single files *)

let lint_string ?rules ~file source =
  match parse_string ~file source with
  | Error f -> [ f ]
  | Ok ast -> List.sort Finding.compare (Rules.apply_all ?rules { Rules.file } ast)

let count_string ~file source =
  match parse_string ~file source with
  | Error _ -> None
  | Ok ast -> Some (Rules.count_invalid_arg ast)

(* -------------------------------------------------------- the walk *)

(* Directories that hold sources the analyzer must not lint: build
   artifacts, VCS state and the deliberately-violating lint fixtures. *)
let skipped_dirs = [ "_build"; ".git"; "fixtures"; "_opam" ]

let rec walk ~root rel acc =
  let abs = Filename.concat root rel in
  if Sys.is_directory abs then
    Array.fold_left
      (fun acc entry ->
        if List.mem entry skipped_dirs then acc
        else walk ~root (if rel = "" then entry else rel ^ "/" ^ entry) acc)
      acc
      (let entries = Sys.readdir abs in
       Array.sort compare entries;
       entries)
  else if Filename.check_suffix rel ".ml" then rel :: acc
  else acc

(* ---------------------------------------------------------- reports *)

type report = {
  findings : Finding.t list;
  files_scanned : int;
  counts : Baseline.t;  (** per-file ratchet counts for lib/core files seen *)
}

let errors r = Finding.count Finding.Error r.findings
let warnings r = Finding.count Finding.Warn r.findings
let exit_code r = if errors r > 0 then 1 else 0

type config = {
  root : string;
  paths : string list;
  rules : Rules.t list;
  baseline : Baseline.t option;
}

let config ?(root = ".") ?(paths = [ "lib"; "bin"; "examples"; "test"; "perfbench" ])
    ?(rules = Rules.all) ?baseline () =
  { root; paths; rules; baseline }

let run cfg =
  let files, missing =
    List.fold_left
      (fun (files, missing) path ->
        if Sys.file_exists (Filename.concat cfg.root path) then
          (walk ~root:cfg.root path files, missing)
        else (files, path :: missing))
      ([], []) cfg.paths
  in
  let files = List.sort_uniq compare files in
  let findings = ref [] in
  let counts = ref [] in
  List.iter
    (fun file ->
      let source = read_file (Filename.concat cfg.root file) in
      match parse_string ~file source with
      | Error f -> findings := f :: !findings
      | Ok ast ->
        findings := Rules.apply_all ~rules:cfg.rules { Rules.file } ast @ !findings;
        if String.length file >= String.length Rules.ratchet_scope
           && String.sub file 0 (String.length Rules.ratchet_scope) = Rules.ratchet_scope
        then counts := (file, Rules.count_invalid_arg ast) :: !counts)
    files;
  List.iter
    (fun path ->
      findings :=
        Finding.make ~rule:"scan" ~severity:Finding.Warn ~file:path ~line:1 ~col:0
          "scan path does not exist"
        :: !findings)
    missing;
  (* The ratchet only engages when the scan actually visited lib/core:
     linting a single file elsewhere must not report the whole
     baseline as dropped to zero. *)
  (match cfg.baseline with
  | Some baseline when !counts <> [] ->
    findings := Baseline.diff ~baseline ~counts:!counts @ !findings
  | _ -> ());
  {
    findings = List.sort Finding.compare !findings;
    files_scanned = List.length files;
    counts = List.sort compare !counts;
  }

(* ------------------------------------------------------- rendering *)

let to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"psched-lint/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"files_scanned\": %d,\n" r.files_scanned);
  Buffer.add_string b
    (Printf.sprintf "  \"errors\": %d,\n  \"warnings\": %d,\n  \"infos\": %d,\n" (errors r)
       (warnings r)
       (Finding.count Finding.Info r.findings));
  Buffer.add_string b "  \"findings\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      Buffer.add_string b (Finding.to_json f))
    r.findings;
  if r.findings <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n";
  Buffer.contents b

let pp ?(verbose = false) ppf r =
  List.iter
    (fun (f : Finding.t) ->
      if verbose || f.Finding.severity <> Finding.Info then
        Format.fprintf ppf "%a@." Finding.pp f)
    r.findings;
  Format.fprintf ppf "lint: %d file(s), %d error(s), %d warning(s)@." r.files_scanned
    (errors r) (warnings r)
