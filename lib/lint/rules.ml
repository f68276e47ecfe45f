(* The AST rule registry: every gate the old tools/lint.sh grep script
   enforced, re-grounded in the parsetree so that string literals and
   comments cannot trip a gate and literal-shape blind spots (`= 0.`
   vs the old `[0-9]+\.[0-9]` regex) cannot dodge one, plus the
   determinism-audit and Domain-race rules that greps cannot express.

   Rules see the unparsed [Parsetree.structure] of one file at a time:
   everything here is syntactic.  Where a contract is fundamentally
   semantic (Hashtbl iteration order feeding ordered output, mutable
   capture under Domain parallelism) the rule is an explicit heuristic
   and reports at Warn severity; Error is reserved for shapes that are
   violations by construction. *)

open Parsetree

type ctx = { file : string }

type t = {
  id : string;
  doc : string;
  severity : Finding.severity;
  in_scope : string -> bool;
  check : ctx -> structure -> Finding.t list;
}

(* ------------------------------------------------------------ helpers *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Longident.flatten raises on functor applications; those are never
   the idents we ban, so fold them to the empty path. *)
let flatten lid = try Longident.flatten lid with _ -> []

let ends_with ~suffix path =
  let lp = List.length path and ls = List.length suffix in
  lp >= ls
  &&
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  drop (lp - ls) path = suffix

let last_of path = match List.rev path with [] -> "" | x :: _ -> x

let finding ctx ~rule ~severity (loc : Location.t) message =
  let p = loc.Location.loc_start in
  Finding.make ~rule ~severity ~file:ctx.file ~line:p.Lexing.pos_lnum
    ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
    message

(* Visit every expression of the structure. *)
let iter_exprs f str =
  let super = Ast_iterator.default_iterator in
  let it = { super with expr = (fun it e -> f e; super.expr it e) } in
  it.structure it str

(* Visit every expression and pattern. *)
let iter_exprs_pats fe fp str =
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      expr = (fun it e -> fe e; super.expr it e);
      pat = (fun it p -> fp p; super.pat it p);
    }
  in
  it.structure it str

let ident_path e = match e.pexp_desc with Pexp_ident { txt; _ } -> flatten txt | _ -> []

(* [f] applied with at least one argument, returning the operator path
   and the unlabelled argument expressions. *)
let as_apply e =
  match e.pexp_desc with
  | Pexp_apply (f, args) ->
    let plain = List.filter_map (function Asttypes.Nolabel, a -> Some a | _ -> None) args in
    Some (ident_path f, plain)
  | _ -> None

let is_float_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident ("~-." | "~-" | "~+." | "~+"); _ }; _ },
        [ (Asttypes.Nolabel, { pexp_desc = Pexp_constant (Pconst_float _); _ }) ] ) ->
    true
  | _ -> false

(* An unqualified (or [Stdlib.]-qualified) reference to [name]. *)
let is_pervasive path name = path = [ name ] || path = [ "Stdlib"; name ]

(* ------------------------------------------------- gate 1: Export aliases *)

let export_banned =
  [ "schedule_csv"; "schedule_json"; "metrics_csv"; "series_csv"; "table_json" ]

let export_alias =
  {
    id = "export-alias";
    doc =
      "deleted Export aliases must not come back: migrate to Export.to_csv / Export.to_json";
    severity = Finding.Error;
    in_scope = (fun _ -> true);
    check =
      (fun ctx str ->
        let acc = ref [] in
        iter_exprs
          (fun e ->
            match e.pexp_desc with
            | Pexp_ident { txt; _ } ->
              let path = flatten txt in
              let name = last_of path in
              if List.mem name export_banned && ends_with ~suffix:[ "Export"; name ] path
              then
                acc :=
                  finding ctx ~rule:"export-alias" ~severity:Finding.Error e.pexp_loc
                    (Printf.sprintf
                       "deprecated Export.%s was deleted; use Export.to_csv / Export.to_json"
                       name)
                  :: !acc
            | _ -> ())
          str;
        !acc);
  }

(* ------------------------------------------- gate 2: float literal =/<> *)

let float_cmp =
  {
    id = "float-cmp";
    doc =
      "float =/<> against a literal in lib/ compares exact bit patterns on computed times; \
       use an epsilon or a sign test (DESIGN.md section 11)";
    severity = Finding.Error;
    in_scope = (fun file -> has_prefix ~prefix:"lib/" file);
    check =
      (fun ctx str ->
        let acc = ref [] in
        iter_exprs
          (fun e ->
            match as_apply e with
            | Some (op, args) when List.length args >= 2 ->
              let name = last_of op in
              if (name = "=" || name = "<>") && List.exists is_float_literal args then
                acc :=
                  finding ctx ~rule:"float-cmp" ~severity:Finding.Error e.pexp_loc
                    (Printf.sprintf
                       "float %s against a literal (use an epsilon comparison or a sign test)"
                       name)
                  :: !acc
            | _ -> ())
          str;
        !acc);
  }

(* --------------------------------------------- gate 4: Domain.spawn cage *)

let domain_spawn =
  {
    id = "domain-spawn";
    doc =
      "Domain.spawn belongs to lib/util/pool.ml only; route parallel work through Pool.map \
       so determinism stays enforced in one place";
    severity = Finding.Error;
    in_scope = (fun file -> file <> "lib/util/pool.ml");
    check =
      (fun ctx str ->
        let acc = ref [] in
        iter_exprs
          (fun e ->
            match e.pexp_desc with
            | Pexp_ident { txt; _ } when ends_with ~suffix:[ "Domain"; "spawn" ] (flatten txt)
              ->
              acc :=
                finding ctx ~rule:"domain-spawn" ~severity:Finding.Error e.pexp_loc
                  "Domain.spawn outside lib/util/pool.ml (route parallel work through \
                   Pool.map / map_stats / map_seeded)"
                :: !acc
            | _ -> ())
          str;
        !acc);
  }

(* ------------------------------------------------ gate 5: raise-free check *)

let check_raise =
  {
    id = "check-raise";
    doc =
      "lib/check rules must return findings, never raise: invalid_arg / failwith / raise are \
       banned in the analyzer";
    severity = Finding.Error;
    in_scope = (fun file -> has_prefix ~prefix:"lib/check/" file);
    check =
      (fun ctx str ->
        let acc = ref [] in
        iter_exprs
          (fun e ->
            match e.pexp_desc with
            | Pexp_ident { txt; _ } ->
              let path = flatten txt in
              List.iter
                (fun name ->
                  if is_pervasive path name then
                    acc :=
                      finding ctx ~rule:"check-raise" ~severity:Finding.Error e.pexp_loc
                        (Printf.sprintf
                           "%s in lib/check (analyzer rules must return findings, not \
                            exceptions)"
                           name)
                      :: !acc)
                [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]
            | _ -> ())
          str;
        !acc);
  }

(* ------------------------------------- gate 6: resource-component compares *)

let resource_fields = [ "cores"; "memory"; "bandwidth" ]
let compare_ops = [ "<"; "<="; ">"; ">=" ]

let resource_cmp =
  {
    id = "resource-cmp";
    doc =
      "resource-vector components must be compared through Resource.fits / first_overflow; \
       raw per-component comparisons outside lib/platform are the scattered scalar checks \
       the vector API replaced";
    severity = Finding.Error;
    in_scope =
      (fun file ->
        (* lib/platform defines the vector, and tests may assert
           generator output component-wise. *)
        (not (has_prefix ~prefix:"lib/platform/" file))
        && not (has_prefix ~prefix:"test/" file));
    check =
      (fun ctx str ->
        let acc = ref [] in
        let is_component_field e =
          match e.pexp_desc with
          | Pexp_field (_, { txt; _ }) -> List.mem (last_of (flatten txt)) resource_fields
          | _ -> false
        in
        iter_exprs
          (fun e ->
            match as_apply e with
            | Some (op, args) when List.length args >= 2 ->
              let name = last_of op in
              if List.mem name compare_ops && List.exists is_component_field args then
                acc :=
                  finding ctx ~rule:"resource-cmp" ~severity:Finding.Error e.pexp_loc
                    (Printf.sprintf
                       "raw resource-component %s comparison (use Resource.fits / \
                        first_overflow)"
                       name)
                  :: !acc
            | _ -> ())
          str;
        !acc);
  }

(* -------------------------------------- determinism audit: Random module *)

let det_random =
  {
    id = "det-random";
    doc =
      "Stdlib.Random outside lib/util/rng.ml breaks replay: schedules must be pure \
       functions of (config, arrivals, seed); draw through Rng streams";
    severity = Finding.Error;
    in_scope = (fun file -> file <> "lib/util/rng.ml");
    check =
      (fun ctx str ->
        let acc = ref [] in
        iter_exprs
          (fun e ->
            match e.pexp_desc with
            | Pexp_ident { txt; _ } when List.mem "Random" (flatten txt) ->
              acc :=
                finding ctx ~rule:"det-random" ~severity:Finding.Error e.pexp_loc
                  "Stdlib.Random call (use a seeded Rng stream so runs stay replayable)"
                :: !acc
            | _ -> ())
          str;
        !acc);
  }

(* ------------------------------------- determinism audit: wall clocks *)

let clock_suffixes = [ [ "Sys"; "time" ]; [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ] ]

let is_clock_ident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    let path = flatten txt in
    List.exists (fun s -> ends_with ~suffix:s path) clock_suffixes
  | _ -> false

let det_wallclock =
  {
    id = "det-wallclock";
    doc =
      "wall-clock reads outside the command-line driver (bin/) and lib/obs leak \
       nondeterminism into library code; take an installable clock (an optional ?clock \
       argument or Obs.wall_clock) instead";
    severity = Finding.Error;
    in_scope =
      (fun file -> not (has_prefix ~prefix:"bin/" file || has_prefix ~prefix:"lib/obs/" file));
    check =
      (fun ctx str ->
        let acc = ref [] in
        let super = Ast_iterator.default_iterator in
        let it =
          {
            super with
            expr =
              (fun it e ->
                match e.pexp_desc with
                (* The installable-clock idiom: a wall clock as the
                   default of an optional argument is the sanctioned
                   way for a library to name a default time base — the
                   caller can always override it. *)
                | Pexp_fun (Asttypes.Optional _, Some default, pat, body)
                  when is_clock_ident default ->
                  it.Ast_iterator.pat it pat;
                  it.Ast_iterator.expr it body
                | _ when is_clock_ident e ->
                  acc :=
                    finding ctx ~rule:"det-wallclock" ~severity:Finding.Error e.pexp_loc
                      "direct wall-clock read in library code (thread an installable ?clock \
                       or use Obs.wall_clock)"
                    :: !acc
                | _ -> super.expr it e);
          }
        in
        it.structure it str;
        !acc);
  }

(* --------------------------------- determinism audit: series recorder *)

(* lib/obs is exempt from det-wallclock (the trace layer owns the wall
   clock), but the series recorder must NOT inherit that licence: its
   timestamps come from whatever clock the caller passes to [tick], so
   recorded series replay deterministically.  This rule closes the
   carve-out for that one file. *)
let det_series =
  {
    id = "det-series";
    doc =
      "the metrics time-series recorder takes its timestamps from the caller's clock; a \
       wall-clock read inside lib/obs/series.ml would make recorded series nondeterministic";
    severity = Finding.Error;
    in_scope = (fun file -> file = "lib/obs/series.ml");
    check =
      (fun ctx str ->
        let acc = ref [] in
        let super = Ast_iterator.default_iterator in
        let it =
          {
            super with
            expr =
              (fun it e ->
                match e.pexp_desc with
                | Pexp_fun (Asttypes.Optional _, Some default, pat, body)
                  when is_clock_ident default ->
                  it.Ast_iterator.pat it pat;
                  it.Ast_iterator.expr it body
                | _ when is_clock_ident e ->
                  acc :=
                    finding ctx ~rule:"det-series" ~severity:Finding.Error e.pexp_loc
                      "wall-clock read inside the series recorder (timestamps must come \
                       from the clock the caller passes to tick)"
                    :: !acc
                | _ -> super.expr it e);
          }
        in
        it.structure it str;
        !acc);
  }

(* ----------------------------- determinism audit: Hashtbl iteration order *)

let hashtbl_iter_suffixes = [ [ "Hashtbl"; "iter" ]; [ "Hashtbl"; "fold" ] ]
let sort_names = [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort" ]

let det_hashtbl_order =
  {
    id = "det-hashtbl-order";
    doc =
      "heuristic: Hashtbl.iter/fold results that reach ordered output without an \
       intervening sort depend on insertion history; sort (or switch to an ordered \
       container) before emitting";
    severity = Finding.Warn;
    in_scope = (fun _ -> true);
    check =
      (fun ctx str ->
        (* Granularity: one top-level binding.  A fold whose enclosing
           definition sorts anything is assumed to sort the folded
           result too — coarse, but it keeps the heuristic quiet on
           the pervasive [Hashtbl.fold ... |> List.sort] idiom. *)
        let acc = ref [] in
        let scan_binding (vb : value_binding) =
          let iters = ref [] and sorted = ref false in
          let super = Ast_iterator.default_iterator in
          let it =
            {
              super with
              expr =
                (fun it e ->
                  (match e.pexp_desc with
                  | Pexp_ident { txt; _ } ->
                    let path = flatten txt in
                    if List.exists (fun s -> ends_with ~suffix:s path) hashtbl_iter_suffixes
                    then iters := e.pexp_loc :: !iters;
                    if List.mem (last_of path) sort_names then sorted := true
                  | _ -> ());
                  super.expr it e);
            }
          in
          it.expr it vb.pvb_expr;
          if not !sorted then
            List.iter
              (fun loc ->
                acc :=
                  finding ctx ~rule:"det-hashtbl-order" ~severity:Finding.Warn loc
                    "Hashtbl iteration with no sort in the enclosing definition: the result \
                     order is insertion history (sort it, or keep the consumer \
                     order-insensitive)"
                  :: !acc)
              !iters
        in
        List.iter
          (fun item ->
            match item.pstr_desc with
            | Pstr_value (_, vbs) -> List.iter scan_binding vbs
            | _ -> ())
          str;
        !acc);
  }

(* -------------------------------------------- Domain-race heuristic *)

let pool_entrypoints = [ "map"; "map_stats"; "map_seeded" ]

let domain_race =
  {
    id = "domain-race";
    doc =
      "heuristic: a top-level ref/Hashtbl/Buffer binding captured by a closure passed to \
       Pool.map/map_stats/map_seeded is shared mutable state under Domain parallelism";
    severity = Finding.Warn;
    in_scope = (fun _ -> true);
    check =
      (fun ctx str ->
        (* 1. Collect module-level bindings whose RHS is syntactically
           a fresh mutable container. *)
        let mutables = Hashtbl.create 8 in
        let mutable_rhs e =
          match as_apply e with
          | Some (path, _ :: _) ->
            is_pervasive path "ref"
            || ends_with ~suffix:[ "Hashtbl"; "create" ] path
            || ends_with ~suffix:[ "Buffer"; "create" ] path
            || ends_with ~suffix:[ "Queue"; "create" ] path
            || ends_with ~suffix:[ "Stack"; "create" ] path
          | _ -> false
        in
        List.iter
          (fun item ->
            match item.pstr_desc with
            | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt; _ } when mutable_rhs vb.pvb_expr ->
                    Hashtbl.replace mutables txt ()
                  | _ -> ())
                vbs
            | _ -> ())
          str;
        if Hashtbl.length mutables = 0 then []
        else begin
          (* 2. Any of those names appearing inside the arguments of a
             Pool.map* application is a capture by code that may run on
             another domain. *)
          let acc = ref [] in
          let names_in e =
            let found = ref [] in
            let super = Ast_iterator.default_iterator in
            let it =
              {
                super with
                expr =
                  (fun it e ->
                    (match e.pexp_desc with
                    | Pexp_ident { txt = Longident.Lident n; _ } when Hashtbl.mem mutables n
                      ->
                      found := n :: !found
                    | _ -> ());
                    super.expr it e);
              }
            in
            it.expr it e;
            !found
          in
          iter_exprs
            (fun e ->
              match e.pexp_desc with
              | Pexp_apply (f, args) -> (
                let path = ident_path f in
                match List.rev path with
                | fn :: "Pool" :: _ when List.mem fn pool_entrypoints ->
                  List.iter
                    (fun (_, arg) ->
                      List.iter
                        (fun name ->
                          acc :=
                            finding ctx ~rule:"domain-race" ~severity:Finding.Warn
                              e.pexp_loc
                              (Printf.sprintf
                                 "top-level mutable binding %S captured by a closure passed \
                                  to Pool.%s: worker domains would share it unsynchronised"
                                 name fn)
                            :: !acc)
                        (names_in arg))
                    args
                | _ -> ())
              | _ -> ())
            str;
          !acc
        end);
  }

(* ------------------------------------------- invalid_arg ratchet counting *)

(* Not a registry rule: the driver counts per-file occurrences in
   lib/core and diffs them against tools/lint_baseline.json, so a
   regression names the offending file (gate 3, now per-file). *)
let ratchet_rule_id = "invalid-arg-ratchet"
let ratchet_scope = "lib/core/"

let count_invalid_arg str =
  let count = ref 0 in
  iter_exprs_pats
    (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } when is_pervasive (flatten txt) "invalid_arg" -> incr count
      | Pexp_construct ({ txt; _ }, _) when last_of (flatten txt) = "Invalid_argument" ->
        incr count
      | _ -> ())
    (fun p ->
      match p.ppat_desc with
      | Ppat_construct ({ txt; _ }, _) when last_of (flatten txt) = "Invalid_argument" ->
        incr count
      | _ -> ())
    str;
  !count

(* ----------------------------------------------------------- registry *)

let all =
  [
    export_alias;
    float_cmp;
    domain_spawn;
    check_raise;
    resource_cmp;
    det_random;
    det_wallclock;
    det_series;
    det_hashtbl_order;
    domain_race;
  ]

let find id = List.find_opt (fun r -> r.id = id) all

let docs () =
  List.map (fun r -> (r.id, Finding.severity_to_string r.severity, r.doc)) all
  @ [
      ( ratchet_rule_id,
        "error",
        "per-file invalid_arg count in lib/core diffed against tools/lint_baseline.json: \
         raising a count fails naming the file; lowering one must update the baseline in \
         the same change" );
    ]

let apply rule ctx str = if rule.in_scope ctx.file then rule.check ctx str else []
let apply_all ?(rules = all) ctx str = List.concat_map (fun r -> apply r ctx str) rules
