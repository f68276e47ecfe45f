(** The analysis driver: scan, parse, apply rules, render.  Files that
    fail to parse become "parse" Error findings, never exceptions. *)

val parse_rule_id : string

val lint_string : ?rules:Rules.t list -> file:string -> string -> Finding.t list
(** Lint one source text as if it lived at [file] (rules scope
    themselves on that path).  Sorted by position. *)

val count_string : file:string -> string -> int option
(** The ratchet count of one source text; [None] if it does not parse. *)

type report = {
  findings : Finding.t list;
  files_scanned : int;
  counts : Baseline.t;  (** per-file ratchet counts for the lib/core files visited *)
}

val errors : report -> int
val warnings : report -> int
val exit_code : report -> int

type config = {
  root : string;
  paths : string list;
  rules : Rules.t list;
  baseline : Baseline.t option;
}

val config :
  ?root:string ->
  ?paths:string list ->
  ?rules:Rules.t list ->
  ?baseline:Baseline.t ->
  unit ->
  config
(** Defaults: root ".", paths [lib bin examples test perfbench],
    all rules, no baseline.  Directory walks skip _build, .git, _opam
    and any directory named "fixtures" (the must-trip lint fixtures
    live there); explicitly listed files are always linted. *)

val run : config -> report

val to_json : report -> string
val pp : ?verbose:bool -> Format.formatter -> report -> unit
