(* Tests for the reporting/experiment layer: formatting, CSV export, and
   end-to-end smoke runs of the figure drivers (quick mode, output to a
   buffer) — the integration test that the whole reproduction pipeline
   stays runnable. *)

open Vblu_perf

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let buffer_formatter () =
  let buf = Buffer.create 4096 in
  (buf, Format.formatter_of_buffer buf)

let demo_series =
  {
    Report.title = "demo";
    xlabel = "x";
    columns = [ "a"; "b" ];
    rows = [ (1.0, [ Some 2.5; None ]); (2.0, [ Some 3.5; Some 4.25 ]) ];
  }

let test_series_formatting () =
  let buf, ppf = buffer_formatter () in
  Report.print_series ppf demo_series;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "has title" true (contains out "## demo");
  Alcotest.(check bool) "has value" true (contains out "4.25");
  Alcotest.(check bool) "missing renders as dash" true (contains out " -")

let test_csv_export () =
  let csv = Report.csv_of_series demo_series in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "rows + header" 3 (List.length lines);
  Alcotest.(check string) "header" "x,a,b" (List.hd lines);
  Alcotest.(check bool) "empty cell for missing" true (contains csv "1,2.5,\n")

let test_table_alignment () =
  let buf, ppf = buffer_formatter () in
  Report.print_table ppf ~title:"t" ~header:[ "col"; "value" ]
    ~rows:[ [ "a"; "1" ]; [ "longer"; "22" ] ];
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "header present" true (contains out "col");
  Alcotest.(check bool) "rows present" true (contains out "longer")

let null_formatter () =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* --- shape assertions: the qualitative claims of EXPERIMENTS.md, locked
   into the test suite so a model regression cannot silently break the
   reproduction.  All use the quick sweeps. --- *)

let find_series series fragment =
  match
    List.find_opt (fun (s : Report.series) -> contains s.Report.title fragment) series
  with
  | Some s -> s
  | None -> Alcotest.failf "no series titled like %S" fragment

let value (s : Report.series) ~x ~column =
  let ci =
    match List.find_index (String.equal column) s.Report.columns with
    | Some i -> i
    | None -> Alcotest.failf "no column %s" column
  in
  match List.assoc_opt x s.Report.rows with
  | Some ys -> (
    match List.nth ys ci with
    | Some v -> v
    | None -> Alcotest.failf "missing value at %g/%s" x column)
  | None -> Alcotest.failf "no row x=%g" x

let test_fig4_shapes () =
  let series = Kernel_figs.fig4_series ~quick:true () in
  let dp32 = find_series series "block size 32, double" in
  (* Saturating ramp: monotone growth for every routine. *)
  List.iter
    (fun column ->
      let v b = value dp32 ~x:b ~column in
      Alcotest.(check bool)
        (column ^ " ramps with batch size")
        true
        (v 500.0 < v 5000.0 && v 5000.0 < v 40000.0))
    dp32.Report.columns;
  (* The headline: small-size LU >= 2.5x the cuBLAS model at size 32. *)
  let lu = value dp32 ~x:40000.0 ~column:"small-LU" in
  let cublas = value dp32 ~x:40000.0 ~column:"cuBLAS" in
  Alcotest.(check bool)
    (Printf.sprintf "LU %.0f vs cuBLAS %.0f" lu cublas)
    true
    (lu > 2.5 *. cublas);
  (* GH-T factorization slightly below GH. *)
  let gh = value dp32 ~x:40000.0 ~column:"GH" in
  let ght = value dp32 ~x:40000.0 ~column:"GH-T" in
  Alcotest.(check bool) "GH-T below GH, within 10%" true
    (ght < gh && ght > 0.9 *. gh)

let test_fig5_crossover () =
  let series = Kernel_figs.fig5_series ~quick:true () in
  List.iter
    (fun fragment ->
      let s = find_series series fragment in
      let lu x = value s ~x ~column:"small-LU" in
      let gh x = value s ~x ~column:"GH" in
      Alcotest.(check bool) (fragment ^ ": GH wins at 8") true (gh 8.0 > lu 8.0);
      Alcotest.(check bool) (fragment ^ ": LU wins at 32") true
        (lu 32.0 > gh 32.0);
      Alcotest.(check bool) (fragment ^ ": LU beats cuBLAS at 32") true
        (lu 32.0 > value s ~x:32.0 ~column:"cuBLAS"))
    [ "batch 5000, single"; "batch 5000, double" ]

let test_fig6_ordering () =
  let series = Kernel_figs.fig6_series ~quick:true () in
  let dp32 = find_series series "block size 32, double" in
  let v column = value dp32 ~x:40000.0 ~column in
  Alcotest.(check bool) "LU > GH-T > GH in TRSV at 32" true
    (v "small-LU" > v "GH-T" && v "GH-T" > v "GH")

let test_fig7_gh_flat () =
  let series = Kernel_figs.fig7_series ~quick:true () in
  let dp = find_series series "double" in
  let gh x = value dp ~x ~column:"GH" in
  let lu x = value dp ~x ~column:"small-LU" in
  (* Non-coalesced reads pin GH beyond 16 while LU keeps growing. *)
  Alcotest.(check bool) "GH flat past 16" true (gh 32.0 < 1.6 *. gh 16.0);
  Alcotest.(check bool) "LU grows past 16" true (lu 32.0 > 1.3 *. lu 16.0)

let test_kernel_figs_run () =
  let ppf = null_formatter () in
  Kernel_figs.fig4 ~quick:true ppf;
  Kernel_figs.fig5 ~quick:true ppf;
  Kernel_figs.fig6 ~quick:true ppf;
  Kernel_figs.fig7 ~quick:true ppf;
  Kernel_figs.ablation_pivot ~quick:true ppf;
  Kernel_figs.ablation_trsv ~quick:true ppf;
  Kernel_figs.ablation_extraction ~quick:true ppf;
  Kernel_figs.ablation_cholesky ~quick:true ppf;
  Kernel_figs.ablation_variable_size ~quick:true ppf

let test_solver_study_and_figs () =
  let study = Study.run ~quick:true (Study.sweep ~quick:true) in
  (* Quick mode: first 12 matrices, bounds 8 and 32: per matrix one scalar
     run, two variants per bound, plus GH-T and GJE at 32. *)
  Alcotest.(check int) "run count" (12 * 7) (List.length study.Study.runs);
  List.iter
    (fun (r : Study.run) ->
      Alcotest.(check bool) "iterations recorded" true (r.Study.iterations > 0);
      Alcotest.(check bool) "times nonnegative" true
        (Study.total_seconds r >= 0.0))
    study.Study.runs;
  let entry = List.hd Vblu_workloads.Suite.all in
  let lu bound = Study.Block_jacobi (Vblu_precond.Block_jacobi.Lu, bound) in
  Alcotest.(check bool) "find works" true
    (Study.find study entry (lu 8) <> None);
  Alcotest.(check bool) "find misses absent bound" true
    (Study.find study entry (lu 12) = None);
  let ppf = null_formatter () in
  Solver_figs.fig8 ppf study;
  Solver_figs.fig9 ppf study;
  Solver_figs.table1 ppf study;
  Solver_figs.ablation_variants ppf study

(* The study's job fan-out must not perturb results: every spec kind, on
   a 3-domain pool, gives bitwise the same runs, trace and metrics as the
   sequential loop.  Under a fault plan too: every job gets its own copy
   of the plan, so each run absorbs the same faults whatever runs before
   or beside it, and equals the run of a study of its spec alone. *)
let test_study_pool_identity () =
  let module Obs = Vblu_obs in
  let entries = List.filteri (fun i _ -> i < 2) Vblu_workloads.Suite.all in
  let specs =
    Study.sweep ~quick:true @ Study.families ~bound:16 ~subdomains:4 ~overlap:8
  in
  let run ?(faulted = false) domains specs =
    let tr = Obs.Trace.create () and mx = Obs.Metrics.create () in
    let pool = Vblu_par.Pool.create ~num_domains:domains () in
    let faults =
      if faulted then Some (Vblu_fault.Fault.Plan.make ~seed:7 ~every:2 ())
      else None
    in
    let study =
      Study.run ~entries ~pool ?faults ~abft:faulted
        ~recovery:Vblu_precond.Block_jacobi.Degrade_to_identity
        ~obs:(Obs.Ctx.v ~trace:tr ~metrics:mx ())
        specs
    in
    ( study,
      Obs.Jsonx.to_string (Obs.Trace.to_chrome_json tr),
      Obs.Jsonx.to_string (Obs.Metrics.to_json mx) )
  in
  let check_run label (a : Study.run) (b : Study.run) =
    let name = label ^ Study.label a.Study.spec in
    Alcotest.(check bool) (name ^ " spec") true (a.Study.spec = b.Study.spec);
    Alcotest.(check int) (name ^ " iterations") a.Study.iterations
      b.Study.iterations;
    Alcotest.(check bool) (name ^ " converged") a.Study.converged
      b.Study.converged;
    Alcotest.(check int) (name ^ " blocks") a.Study.blocks b.Study.blocks;
    Alcotest.(check int) (name ^ " degraded") a.Study.degraded b.Study.degraded;
    Alcotest.(check int) (name ^ " apply transactions")
      a.Study.apply_transactions b.Study.apply_transactions;
    Alcotest.(check bool) (name ^ " modelled apply bitwise") true
      (Int64.equal
         (Int64.bits_of_float a.Study.modelled_apply_seconds)
         (Int64.bits_of_float b.Study.modelled_apply_seconds))
  in
  List.iter
    (fun faulted ->
      let label = if faulted then "faults: " else "" in
      let seq, seq_trace, seq_metrics = run ~faulted 1 specs in
      let par, par_trace, par_metrics = run ~faulted 3 specs in
      Alcotest.(check int) (label ^ "run count")
        (List.length entries * List.length specs)
        (List.length par.Study.runs);
      List.iter2 (check_run label) seq.Study.runs par.Study.runs;
      Alcotest.(check bool) (label ^ "trace identical") true
        (seq_trace = par_trace);
      Alcotest.(check bool) (label ^ "metrics identical") true
        (seq_metrics = par_metrics);
      if faulted then
        List.iter
          (fun spec ->
            let alone, _, _ = run ~faulted 1 [ spec ] in
            List.iter
              (fun (r : Study.run) ->
                match Study.find seq r.Study.entry spec with
                | Some s -> check_run "faults alone: " r s
                | None -> Alcotest.fail "run missing from the full study")
              alone.Study.runs)
          specs)
    [ false; true ]

let () =
  Alcotest.run "perf"
    [
      ( "report",
        [
          Alcotest.test_case "series" `Quick test_series_formatting;
          Alcotest.test_case "csv" `Quick test_csv_export;
          Alcotest.test_case "table" `Quick test_table_alignment;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "fig4: ramp, cuBLAS gap, GH-T" `Quick
            test_fig4_shapes;
          Alcotest.test_case "fig5: LU/GH crossover" `Quick test_fig5_crossover;
          Alcotest.test_case "fig6: TRSV ordering" `Quick test_fig6_ordering;
          Alcotest.test_case "fig7: GH flattens" `Quick test_fig7_gh_flat;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "kernel figures (quick)" `Slow test_kernel_figs_run;
          Alcotest.test_case "solver study (quick)" `Slow
            test_solver_study_and_figs;
          Alcotest.test_case "study pool identity" `Quick
            test_study_pool_identity;
        ] );
    ]
