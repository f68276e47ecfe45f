(* Smoke and structure tests for the experiment layer: the figure and
   tables must regenerate, contain the expected rows/series, and keep
   the qualitative shapes recorded in EXPERIMENTS.md. *)

open Psched_experiments

let test_render_table () =
  let s = Render.table ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "header + sep + rows" 4 (List.length lines);
  (* Columns aligned: all lines the same width. *)
  let widths = List.map String.length (List.map String.trim lines) in
  Alcotest.(check bool) "non-empty lines" true (List.for_all (fun w -> w > 0) widths)

let test_render_plot_contains_marks () =
  let s =
    Render.plot ~title:"t" ~xlabel:"x" ~ylabel:"y"
      ~series:[ ("s1", [ (0.0, 1.0); (1.0, 2.0) ]); ("s2", [ (0.5, 1.5) ]) ]
      ()
  in
  Alcotest.(check bool) "mark of series 1" true (String.contains s '+');
  Alcotest.(check bool) "mark of series 2" true (String.contains s 'x');
  Alcotest.(check bool) "title present" true
    (String.length s >= 1 && String.sub s 0 1 = "t")

let contains_sub haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_render_plot_empty () =
  let s = Render.plot ~title:"empty" ~xlabel:"x" ~ylabel:"y" ~series:[ ("s", []) ] () in
  Alcotest.(check bool) "no data message" true (contains_sub s "(no data)")

let test_fig2_structure () =
  let r = Fig2.run ~m:50 ~seeds:1 ~ns:[ 20; 60 ] () in
  Alcotest.(check int) "points nonparallel" 2 (List.length r.Fig2.nonparallel);
  Alcotest.(check int) "points parallel" 2 (List.length r.Fig2.parallel);
  List.iter
    (fun (p : Fig2.point) ->
      Alcotest.(check bool) "ratios >= 1" true (p.Fig2.wici_ratio >= 1.0 -. 1e-9);
      Alcotest.(check bool) "cmax ratio >= 1" true (p.Fig2.cmax_ratio >= 1.0 -. 1e-9))
    (r.Fig2.nonparallel @ r.Fig2.parallel)

let test_fig2_shape_decreasing () =
  (* The paper's headline shape: ratios at n=1000 are below the small-n
     ratios.  Use 2 seeds to keep the test fast yet stable. *)
  let r = Fig2.run ~m:100 ~seeds:2 ~ns:[ 50; 1000 ] () in
  let first xs = List.nth xs 0 and last xs = List.nth xs 1 in
  List.iter
    (fun series ->
      Alcotest.(check bool) "wici decreases" true
        ((last series).Fig2.wici_ratio < (first series).Fig2.wici_ratio);
      Alcotest.(check bool) "cmax decreases" true
        ((last series).Fig2.cmax_ratio < (first series).Fig2.cmax_ratio))
    [ r.Fig2.nonparallel; r.Fig2.parallel ]

let test_fig2_render () =
  let r = Fig2.run ~m:50 ~seeds:1 ~ns:[ 20; 60 ] () in
  let s = Fig2.to_string r in
  Alcotest.(check bool) "top panel" true (contains_sub s "Figure 2 (top)");
  Alcotest.(check bool) "bottom panel" true (contains_sub s "Figure 2 (bottom)");
  Alcotest.(check bool) "series names" true (contains_sub s "Non Parallel")

let test_tables_regenerate () =
  let all = Tables.all () in
  Alcotest.(check int) "twelve tables" 12 (List.length all);
  List.iter
    (fun (id, text) ->
      Alcotest.(check bool) (id ^ " non-empty") true (String.length text > 100))
    all

let test_ablations_regenerate () =
  let all = Ablations.all () in
  Alcotest.(check int) "nine ablations" 9 (List.length all);
  List.iter
    (fun (id, text) ->
      Alcotest.(check bool) (id ^ " non-empty") true (String.length text > 100))
    all

let test_gantt_renders () =
  let jobs =
    [
      Psched_workload.Job.rigid ~id:0 ~procs:2 ~time:4.0 ();
      Psched_workload.Job.rigid ~id:1 ~procs:1 ~time:2.0 ();
    ]
  in
  let sched =
    Psched_core.Packing.list_schedule ~m:4 (List.map Psched_core.Packing.allocate_rigid jobs)
  in
  let s = Psched_sim.Gantt.render ~max_rows:4 sched in
  Alcotest.(check bool) "job 0 drawn" true (String.contains s '0');
  Alcotest.(check bool) "job 1 drawn" true (String.contains s '1');
  Alcotest.(check bool) "axis" true (String.contains s '+')

let test_fig2_sharding_identical () =
  (* Replications go through Pool.map_seeded: the rendered output must
     be byte-identical whatever the domain count. *)
  let sequential = Fig2.run ~domains:1 ~m:40 ~seeds:3 ~ns:[ 20; 50 ] () in
  let sharded = Fig2.run ~domains:3 ~m:40 ~seeds:3 ~ns:[ 20; 50 ] () in
  Alcotest.(check string) "byte-identical render" (Fig2.to_string sequential)
    (Fig2.to_string sharded);
  Alcotest.(check bool) "identical points" true (compare sequential sharded = 0)

let test_replicate_grouping () =
  let rng = Psched_util.Rng.create 5 in
  let out =
    Psched_experiments.Replicate.sweep ~domains:2 ~rng ~seeds:3
      (fun cell rng -> (cell, Psched_util.Rng.int rng 1000))
      [ "a"; "b" ]
  in
  Alcotest.(check int) "two cells" 2 (List.length out);
  List.iter
    (fun (cell, samples) ->
      Alcotest.(check int) "three replications" 3 (List.length samples);
      List.iter (fun (c, _) -> Alcotest.(check string) "sample belongs to its cell" cell c) samples)
    out

let test_gantt_empty () =
  let s = Psched_sim.Gantt.render (Psched_sim.Schedule.make ~m:4 []) in
  Alcotest.(check string) "empty" "(empty schedule)\n" s

let suite =
  [
    Alcotest.test_case "render table" `Quick test_render_table;
    Alcotest.test_case "render plot marks" `Quick test_render_plot_contains_marks;
    Alcotest.test_case "render plot empty" `Quick test_render_plot_empty;
    Alcotest.test_case "fig2 structure" `Quick test_fig2_structure;
    Alcotest.test_case "fig2 decreasing shape" `Slow test_fig2_shape_decreasing;
    Alcotest.test_case "fig2 render" `Quick test_fig2_render;
    Alcotest.test_case "fig2 sharded replications identical" `Quick test_fig2_sharding_identical;
    Alcotest.test_case "replicate grouping" `Quick test_replicate_grouping;
    Alcotest.test_case "tables regenerate" `Slow test_tables_regenerate;
    Alcotest.test_case "ablations regenerate" `Slow test_ablations_regenerate;
    Alcotest.test_case "gantt renders" `Quick test_gantt_renders;
    Alcotest.test_case "gantt empty" `Quick test_gantt_empty;
  ]
