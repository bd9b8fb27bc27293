(* Tests for the observability subsystem: the JSON codec, RFC-4180 CSV
   quoting, trace golden output and sub/graft determinism, metrics
   registry semantics, cross-domain bit-identity of traces and metrics,
   the None fast path (obs on/off numeric bit-identity), the IDR
   soft-error guard's trips, and the benchmark-artifact schema +
   regression gate behind `vblu_cli bench-compare`. *)

open Vblu_obs
open Vblu_smallblas
open Vblu_core
module Pool = Vblu_par.Pool
module Bj = Vblu_precond.Block_jacobi

let check_float = Alcotest.(check (float 1e-12))

(* ------------------------------------------------------------------ *)
(* Jsonx                                                               *)

let test_jsonx_roundtrip () =
  let v =
    Jsonx.Obj
      [
        ("s", Jsonx.Str "a\"b\\c\n\t");
        ("i", Jsonx.Num 42.0);
        ("f", Jsonx.Num 0.1);
        ("big", Jsonx.Num 1.5e300);
        ("neg", Jsonx.Num (-0.0));
        ("b", Jsonx.Bool true);
        ("n", Jsonx.Null);
        ("l", Jsonx.List [ Jsonx.Num 1.0; Jsonx.Str "x"; Jsonx.Bool false ]);
        ("empty", Jsonx.Obj []);
      ]
  in
  (match Jsonx.of_string (Jsonx.to_string v) with
  | Ok v' -> Alcotest.(check bool) "compact round-trip" true (v = v')
  | Error e -> Alcotest.failf "compact parse failed: %s" e);
  match Jsonx.of_string (Jsonx.to_string ~pretty:true v) with
  | Ok v' -> Alcotest.(check bool) "pretty round-trip" true (v = v')
  | Error e -> Alcotest.failf "pretty parse failed: %s" e

let test_jsonx_errors () =
  let rejects s =
    match Jsonx.of_string s with
    | Ok _ -> Alcotest.failf "parser accepted %S" s
    | Error _ -> ()
  in
  rejects "";
  rejects "{";
  rejects "[1,]";
  rejects "{\"a\":}";
  rejects "tru";
  rejects "\"unterminated";
  rejects "1 2"

(* ------------------------------------------------------------------ *)
(* CSV quoting (RFC 4180) — satellite                                  *)

let test_csv_quoting () =
  Alcotest.(check string) "plain passes through" "abc" (Csvx.row [ "abc" ]);
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Csvx.row [ "a,b" ]);
  Alcotest.(check string) "quote doubled" "\"a\"\"b\"" (Csvx.row [ "a\"b" ]);
  Alcotest.(check string) "newline quoted" "\"a\nb\"" (Csvx.row [ "a\nb" ]);
  Alcotest.(check string) "CR quoted" "\"a\rb\"" (Csvx.row [ "a\rb" ]);
  Alcotest.(check string) "row joins" "a,\"b,c\",d" (Csvx.row [ "a"; "b,c"; "d" ])

let test_report_csv_quoting () =
  let series =
    {
      Vblu_perf.Report.title = "t";
      xlabel = "batch, size";
      columns = [ "LU \"implicit\""; "plain" ];
      rows = [ (1.0, [ Some 2.0; None ]) ];
    }
  in
  let csv = Vblu_perf.Report.csv_of_series series in
  let lines = String.split_on_char '\n' (String.trim csv) in
  match lines with
  | header :: data ->
    Alcotest.(check string) "header quoted per RFC 4180"
      "\"batch, size\",\"LU \"\"implicit\"\"\",plain" header;
    Alcotest.(check bool) "one data row" true (List.length data = 1)
  | [] -> Alcotest.fail "empty csv"

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let test_trace_golden () =
  let tr = Trace.create () in
  Trace.span_dur tr ~cat:"kernel"
    ~args:[ ("warps", Trace.Int 4); ("gflops", Trace.Float 1.5) ]
    ~dur:2.5 "getrf";
  Trace.instant tr ~cat:"solver" "done";
  Trace.sample tr "rnorm" [ ("value", 0.5) ];
  check_float "clock advanced by dur" 2.5 (Trace.now tr);
  let expected =
    "{\"schema\":\"vblu-trace/1\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"getrf\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":1,\"dur\":2.5,\"args\":{\"warps\":4,\"gflops\":1.5}},{\"name\":\"done\",\"cat\":\"solver\",\"ph\":\"i\",\"ts\":2.5,\"pid\":1,\"tid\":1,\"s\":\"t\"},{\"name\":\"rnorm\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":2.5,\"pid\":1,\"tid\":1,\"args\":{\"value\":0.5}}]}"
  in
  Alcotest.(check string) "golden chrome trace" expected
    (Jsonx.to_string (Trace.to_chrome_json tr))

let test_trace_span_raise_records_nothing () =
  let tr = Trace.create () in
  (try Trace.with_span tr "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "nothing recorded on raise" 0 (Trace.num_events tr)

let test_trace_merge_shifts () =
  let parent = Trace.create () in
  Trace.span_dur parent ~dur:10.0 "a";
  let child = Trace.create () in
  Trace.span_dur child ~dur:3.0 "b";
  Trace.merge_into ~into:parent child;
  check_float "merge advances parent clock" 13.0 (Trace.now parent);
  match Trace.events parent with
  | [ Trace.Span a; Trace.Span b ] ->
    check_float "parent span at 0" 0.0 a.ts;
    check_float "child span shifted" 10.0 b.ts
  | _ -> Alcotest.fail "expected two spans"

(* Recording a sequence of spans through per-chunk child contexts grafted
   in order must be byte-identical to recording it sequentially — the
   contract behind cross-domain trace determinism. *)
let trace_json_of_ops record ops =
  let tr = Trace.create () and mx = Metrics.create () in
  let obs = Some (Ctx.v ~trace:tr ~metrics:mx ()) in
  record obs ops;
  Jsonx.to_string (Trace.to_chrome_json tr)
  ^ Jsonx.to_string (Metrics.to_json mx)

let record_seq obs ops =
  List.iter
    (fun (name, dur) ->
      Ctx.span_dur obs ~cat:"kernel" ~dur:(float_of_int dur) name;
      Ctx.incr obs "ops" 1.0;
      Ctx.observe obs "dur" (float_of_int dur))
    ops

let qcheck_sub_graft_deterministic =
  QCheck.Test.make ~count:100 ~name:"sub/graft = sequential recording"
    QCheck.(pair (small_list (pair (oneofl [ "a"; "b" ]) (int_bound 50)))
              (int_range 1 5))
    (fun (ops, chunks) ->
      let reference = trace_json_of_ops record_seq ops in
      let chunked obs ops =
        let arr = Array.of_list ops in
        let n = Array.length arr in
        let per = max 1 ((n + chunks - 1) / chunks) in
        let rec go i =
          if i < n then begin
            let child = Ctx.sub obs in
            let stop = min n (i + per) in
            for k = i to stop - 1 do
              record_seq child [ arr.(k) ]
            done;
            Ctx.graft ~into:obs child;
            go stop
          end
        in
        go 0
      in
      String.equal reference (trace_json_of_ops chunked ops))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_basics () =
  let m = Metrics.create () in
  Metrics.incr m "c" 2.0;
  Metrics.incr m "c" 3.0;
  check_float "counter sums" 5.0 (Metrics.counter_value m "c");
  Metrics.set_gauge m "g" 1.0;
  Metrics.set_gauge m "g" 7.0;
  Metrics.observe m "h" 3.0;
  Metrics.observe m "h" Float.nan;
  (match Metrics.snapshot m with
  | [ ("c", _); ("g", _); ("h", _) ] -> ()
  | l -> Alcotest.failf "unexpected snapshot of %d instruments" (List.length l));
  (* Kind clashes are programming errors. *)
  (match Metrics.observe m "c" 1.0 with
  | () -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ())

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "c" 1.0;
  Metrics.incr b "c" 2.0;
  Metrics.set_gauge a "g" 1.0;
  Metrics.set_gauge b "g" 9.0;
  Metrics.observe b "h" 4.0;
  Metrics.merge_into ~into:a b;
  check_float "counters sum" 3.0 (Metrics.counter_value a "c");
  let json = Jsonx.to_string (Metrics.to_json a) in
  Alcotest.(check bool) "gauge last-set-wins" true
    (let s =
       match Jsonx.of_string json with
       | Ok (Jsonx.Obj _ as j) -> (
         match Jsonx.member "metrics" j with
         | Some ms -> (
           match Jsonx.member "g" ms with
           | Some gj -> (
             match Jsonx.member "value" gj with
             | Some (Jsonx.Num v) -> v
             | _ -> Float.nan)
           | None -> Float.nan)
         | None -> Float.nan)
       | _ -> Float.nan
     in
     s = 9.0)

let test_metrics_csv () =
  let m = Metrics.create () in
  Metrics.incr m "weird,name" 1.0;
  let csv = Metrics.to_csv m in
  Alcotest.(check bool) "comma'd metric name quoted" true
    (let lines = String.split_on_char '\n' csv in
     List.exists
       (fun l -> String.length l > 0 && l.[0] = '"')
       lines)

(* ------------------------------------------------------------------ *)
(* Cross-domain determinism of the instrumented stack                  *)

let obs_run_factor domains =
  let pool = Pool.create ~num_domains:domains () in
  let st = Random.State.make [| 0x0b5; 1 |] in
  let sizes = Batch.random_sizes ~state:st ~count:48 ~min_size:1 ~max_size:32 () in
  let b = Batch.random_general ~state:st sizes in
  let tr = Trace.create () and mx = Metrics.create () in
  let obs = Ctx.v ~trace:tr ~metrics:mx () in
  let r = Vblu_core.Batched_lu.factor ~pool ~abft:true ~obs b in
  ( r.Vblu_core.Batched_lu.factors.Batch.values,
    Jsonx.to_string (Trace.to_chrome_json tr),
    Jsonx.to_string (Metrics.to_json mx) )

let test_factor_obs_domains () =
  let v1, t1, m1 = obs_run_factor 1 in
  List.iter
    (fun d ->
      let vd, td, md = obs_run_factor d in
      Alcotest.(check bool)
        (Printf.sprintf "values identical at %d domains" d)
        true (v1 = vd);
      Alcotest.(check string)
        (Printf.sprintf "trace identical at %d domains" d)
        t1 td;
      Alcotest.(check string)
        (Printf.sprintf "metrics identical at %d domains" d)
        m1 md)
    [ 2; 4 ]

let fig6_obs domains =
  let pool = Pool.create ~num_domains:domains () in
  let tr = Trace.create () and mx = Metrics.create () in
  let obs = Ctx.v ~trace:tr ~metrics:mx () in
  let _ = Vblu_perf.Kernel_figs.fig6_series ~quick:true ~pool ~obs () in
  ( Jsonx.to_string (Trace.to_chrome_json tr),
    Jsonx.to_string (Metrics.to_json mx) )

let test_fig6_obs_domains () =
  let t1, m1 = fig6_obs 1 in
  List.iter
    (fun d ->
      let td, md = fig6_obs d in
      Alcotest.(check string)
        (Printf.sprintf "fig6 trace identical at %d domains" d)
        t1 td;
      Alcotest.(check string)
        (Printf.sprintf "fig6 metrics identical at %d domains" d)
        m1 md)
    [ 2; 4 ]

let qcheck_factor_obs_domains =
  let reference = lazy (obs_run_factor 1) in
  QCheck.Test.make ~count:8 ~name:"factor trace/metrics domain-invariant"
    QCheck.(oneofl [ 1; 2; 4 ])
    (fun d ->
      let _, t1, m1 = Lazy.force reference in
      let _, td, md = obs_run_factor d in
      String.equal t1 td && String.equal m1 md)

(* Arming obs must not change a single numeric bit. *)
let test_obs_disabled_bit_identical () =
  let st = Random.State.make [| 0x0b5; 2 |] in
  let sizes = Batch.random_sizes ~state:st ~count:16 ~min_size:1 ~max_size:32 () in
  let b = Batch.random_general ~state:st sizes in
  let plain = Vblu_core.Batched_lu.factor ~abft:true b in
  let obs = Ctx.v ~trace:(Trace.create ()) ~metrics:(Metrics.create ()) () in
  let traced = Vblu_core.Batched_lu.factor ~abft:true ~obs b in
  Alcotest.(check bool) "factor values identical" true
    (plain.Vblu_core.Batched_lu.factors.Batch.values
    = traced.Vblu_core.Batched_lu.factors.Batch.values);
  (* Same through a full preconditioned solve. *)
  let a = Vblu_workloads.Generators.laplacian_2d ~nx:10 ~ny:10 () in
  let n, _ = Vblu_sparse.Csr.dims a in
  let rhs = Array.make n 1.0 in
  let precond () = fst (Bj.create ~max_block_size:8 a) in
  let x1, s1 = Vblu_krylov.Idr.solve ~precond:(precond ()) a rhs in
  let x2, s2 =
    let obs = Ctx.v ~trace:(Trace.create ()) ~metrics:(Metrics.create ()) () in
    Vblu_krylov.Idr.solve ~precond:(precond ()) ~obs a rhs
  in
  check_float "idr solution identical" 0.0 (Vector.max_abs_diff x1 x2);
  Alcotest.(check int) "idr iterations identical"
    s1.Vblu_krylov.Solver.iterations s2.Vblu_krylov.Solver.iterations

(* The Krylov obs hooks record residual samples and an outcome. *)
let test_solver_obs_records () =
  let a = Vblu_workloads.Generators.laplacian_2d ~nx:8 ~ny:8 () in
  let n, _ = Vblu_sparse.Csr.dims a in
  let rhs = Array.make n 1.0 in
  let tr = Trace.create () and mx = Metrics.create () in
  let obs = Ctx.v ~trace:tr ~metrics:mx () in
  let _, stats = Vblu_krylov.Idr.solve ~obs a rhs in
  Alcotest.(check bool) "solve converged" true
    (Vblu_krylov.Solver.converged stats);
  check_float "one solve counted" 1.0 (Metrics.counter_value mx "krylov.solves");
  check_float "converged outcome counted" 1.0
    (Metrics.counter_value mx
       (Metrics.labelled "krylov.outcome" [ ("outcome", "converged") ]));
  let count p = List.length (List.filter p (Trace.events tr)) in
  (* One residual sample for the initial residual, one per product. *)
  Alcotest.(check int) "one residual sample per iteration"
    (stats.Vblu_krylov.Solver.iterations + 1)
    (count (function Trace.Sample s -> s.name = "idr.residual" | _ -> false));
  Alcotest.(check int) "one done instant" 1
    (count (function Trace.Instant i -> i.name = "idr.done" | _ -> false))

(* ------------------------------------------------------------------ *)
(* IDR soft-error guard                                                *)

(* A refresh that hands back another poisoned preconditioner: the first
   trip restarts, the second ends the solve. *)
let test_guard_second_trip_breaks () =
  let a = Vblu_workloads.Generators.laplacian_2d ~nx:12 ~ny:12 () in
  let n, _ = Vblu_sparse.Csr.dims a in
  let b = Array.make n 1.0 in
  let poisoned () =
    let g = fst (Bj.create ~max_block_size:8 a) in
    {
      g with
      Vblu_precond.Preconditioner.apply =
        (fun r ->
          let z = g.Vblu_precond.Preconditioner.apply r in
          z.(0) <- Float.nan;
          z);
    }
  in
  let tr = Trace.create () and mx = Metrics.create () in
  let obs = Ctx.v ~trace:tr ~metrics:mx () in
  let _, stats =
    Vblu_krylov.Idr.solve ~precond:(poisoned ()) ~refresh_precond:poisoned
      ~obs a b
  in
  Alcotest.(check bool) "breakdown" true
    (stats.Vblu_krylov.Solver.outcome
    = Vblu_krylov.Solver.Breakdown "guard: non-finite residual");
  let instants name =
    List.length
      (List.filter
         (function Trace.Instant i -> i.name = name | _ -> false)
         (Trace.events tr))
  in
  Alcotest.(check int) "one restart instant" 1 (instants "guard.restart");
  Alcotest.(check int) "one break instant" 1 (instants "guard.break");
  check_float "restarts counted" 1.0
    (Metrics.counter_value mx "krylov.guard.restarts");
  check_float "breaks counted" 1.0
    (Metrics.counter_value mx "krylov.guard.breaks")

(* Arming the guard and obs over a healthy single-precision solve changes
   no bit (guard checks only read the residual norm) and reports no trip. *)
let test_guard_absent_bit_identical () =
  let a =
    Vblu_workloads.Generators.convection_diffusion_2d ~nx:10 ~ny:10
      ~peclet:20.0 ()
  in
  let n, _ = Vblu_sparse.Csr.dims a in
  let b = Array.make n 1.0 in
  let prec = Precision.Single in
  let precond () =
    fst (Vblu_precond.Block_ilu0.create ~prec ~max_block_size:4 a)
  in
  let x1, s1 = Vblu_krylov.Idr.solve ~prec ~precond:(precond ()) a b in
  let tr = Trace.create () and mx = Metrics.create () in
  let x2, s2 =
    Vblu_krylov.Idr.solve ~prec ~precond:(precond ()) ~refresh_precond:precond
      ~obs:(Ctx.v ~trace:tr ~metrics:mx ())
      a b
  in
  Alcotest.(check bool) "same solution bits" true
    (Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       x1 x2);
  Alcotest.(check int) "same iterations" s1.Vblu_krylov.Solver.iterations
    s2.Vblu_krylov.Solver.iterations;
  Alcotest.(check bool) "no guard instant" false
    (List.exists
       (function
         | Trace.Instant i -> i.name = "guard.restart" || i.name = "guard.break"
         | _ -> false)
       (Trace.events tr));
  check_float "no restart counted" 0.0
    (Metrics.counter_value mx "krylov.guard.restarts")

(* ------------------------------------------------------------------ *)
(* Benchmark artifacts and the regression gate                         *)

let entry ?(kernel = "getrf.lu") ?(prec = "fp64") ?(size = 16) ?(batch = 5000)
    ?(gflops = 100.0) () =
  {
    Artifact.kernel;
    prec;
    size;
    batch;
    gflops;
    bandwidth_gbs = 40.0;
    time_us = 10.0;
  }

let base_artifact entries =
  Artifact.make ~git_rev:"deadbeef" ~target:"kernels" ~config:"p100"
    ~domains:1 ~quick:true entries

let test_artifact_golden () =
  let art = base_artifact [ entry ~gflops:12.5 () ] in
  let expected =
    "{\"schema\":\"vblu-bench/1\",\"target\":\"kernels\",\"git_rev\":\"deadbeef\",\"config\":\"p100\",\"domains\":1,\"quick\":true,\"entries\":[{\"kernel\":\"getrf.lu\",\"prec\":\"fp64\",\"size\":16,\"batch\":5000,\"gflops\":12.5,\"bandwidth_gbs\":40,\"time_us\":10}]}"
  in
  Alcotest.(check string) "golden bench artifact" expected
    (Jsonx.to_string (Artifact.to_json art))

let test_artifact_roundtrip_and_schema () =
  let art =
    base_artifact
      [ entry (); entry ~kernel:"trsv.gh" ~prec:"fp32" ~size:32 () ]
  in
  (match Artifact.of_json (Artifact.to_json art) with
  | Ok art' -> Alcotest.(check bool) "round-trips" true (art = art')
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  let reject label j =
    match Artifact.of_json j with
    | Ok _ -> Alcotest.failf "accepted %s" label
    | Error _ -> ()
  in
  reject "wrong schema"
    (Jsonx.Obj [ ("schema", Jsonx.Str "vblu-bench/999") ]);
  reject "non-object" (Jsonx.List []);
  (match Jsonx.of_string "{\"schema\":\"vblu-bench/1\",\"target\":\"k\"}" with
  | Ok j -> reject "missing fields" j
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Canonical ordering: entries sort by (kernel, prec, size, batch). *)
  let shuffled =
    base_artifact
      [
        entry ~kernel:"trsv.lu" ();
        entry ~size:32 ();
        entry ();
        entry ~prec:"fp32" ();
      ]
  in
  let keys = List.map Artifact.entry_key shuffled.Artifact.entries in
  Alcotest.(check (list string)) "canonical entry order"
    [
      "getrf.lu/fp32/n16/b5000";
      "getrf.lu/fp64/n16/b5000";
      "getrf.lu/fp64/n32/b5000";
      "trsv.lu/fp64/n16/b5000";
    ]
    keys

let test_compare_gates_regression () =
  let base = base_artifact [ entry ~gflops:100.0 () ] in
  let regressed = base_artifact [ entry ~gflops:89.0 () ] in
  let cmp = Artifact.compare ~tolerance_pct:10.0 ~base ~cur:regressed in
  Alcotest.(check bool) "11% drop fails at 10% tolerance" false
    cmp.Artifact.passed;
  let cmp' = Artifact.compare ~tolerance_pct:15.0 ~base ~cur:regressed in
  Alcotest.(check bool) "11% drop passes at 15% tolerance" true
    cmp'.Artifact.passed;
  (* Improvements and additions never fail; missing entries always do. *)
  let improved =
    base_artifact [ entry ~gflops:200.0 (); entry ~kernel:"trsv.lu" () ]
  in
  let up = Artifact.compare ~tolerance_pct:1.0 ~base ~cur:improved in
  Alcotest.(check bool) "improvement passes" true up.Artifact.passed;
  Alcotest.(check (list string)) "addition reported"
    [ "trsv.lu/fp64/n16/b5000" ] up.Artifact.added;
  let missing = Artifact.compare ~tolerance_pct:50.0 ~base:improved ~cur:base in
  Alcotest.(check bool) "missing entry fails" false missing.Artifact.passed;
  Alcotest.(check (list string)) "missing key reported"
    [ "trsv.lu/fp64/n16/b5000" ] missing.Artifact.missing

let test_artifact_file_io () =
  let art = base_artifact [ entry () ] in
  let path = Filename.temp_file "vblu_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Artifact.write path art;
      match Artifact.read path with
      | Ok art' -> Alcotest.(check bool) "file round-trip" true (art = art')
      | Error e -> Alcotest.failf "read failed: %s" e);
  match Artifact.read "/nonexistent/vblu.json" with
  | Ok _ -> Alcotest.fail "read of missing file succeeded"
  | Error _ -> ()

let test_bench_points_deterministic () =
  let run d =
    Vblu_perf.Kernel_figs.bench_points ~quick:true
      ~pool:(Pool.create ~num_domains:d ())
      ()
  in
  let p1 = run 1 and p3 = run 3 in
  Alcotest.(check bool) "bench points domain-invariant" true (p1 = p3);
  Alcotest.(check bool) "sweep is non-trivial" true (List.length p1 >= 16)

(* ------------------------------------------------------------------ *)


(* A traced block-ILU(0) apply replays its memoised waves: one kernel
   span per wave with the wave's name and modelled duration, the same
   registry totals the charge pass's launches record, and the untraced
   result bit for bit. *)
let test_ilu0_traced_apply () =
  let module Bi = Vblu_precond.Block_ilu0 in
  let a =
    Vblu_workloads.Generators.convection_diffusion_2d ~nx:7 ~ny:6
      ~peclet:15.0 ()
  in
  let n, _ = Vblu_sparse.Csr.dims a in
  let r = Array.init n (fun i -> sin (float_of_int (i + 1))) in
  let apply h = Vblu_precond.Preconditioner.apply (Bi.precond h) r in
  let plain = Bi.handle ~max_block_size:4 a in
  let tr = Trace.create () and m = Metrics.create () in
  let h = Bi.handle ~max_block_size:4 ~obs:(Ctx.v ~trace:tr ~metrics:m ()) a in
  (* The reference registry starts from the setup's totals. *)
  let m_ref = Metrics.create () and tr_ref = Trace.create () in
  Metrics.merge_into ~into:m_ref m;
  let before = Trace.num_events tr in
  (* The first apply runs the charge pass, the second only replays. *)
  for pass = 1 to 2 do
    let y = apply h in
    let y_plain = apply plain in
    Array.iteri
      (fun i v ->
        if Int64.bits_of_float v <> Int64.bits_of_float y_plain.(i) then
          Alcotest.failf "apply %d: element %d differs from untraced" pass i)
      y;
    ignore
      (Bi.charge_pass ~obs:(Ctx.v ~trace:tr_ref ~metrics:m_ref ()) h r)
  done;
  let kernel_spans events =
    List.filter_map
      (function
        | Trace.Span { name; cat = "kernel"; dur; args; _ } ->
          Some (name, Int64.bits_of_float dur, args)
        | _ -> None)
      events
  in
  let spans = kernel_spans (List.filteri (fun i _ -> i >= before) (Trace.events tr)) in
  let memo =
    match !((Bi.handle_info h).Bi.last_apply) with
    | Some s -> s.Bi.waves
    | None -> Alcotest.fail "no memoised apply"
  in
  let expected =
    List.concat
      (List.init 2 (fun _ ->
           Array.to_list
             (Array.map
                (fun (w : Bi.wave) ->
                  ( (if w.Bi.kernel = "gemm" then "gemm" else "trsv.eager"),
                    Int64.bits_of_float w.Bi.modelled_us ))
                memo)))
  in
  Alcotest.(check (list (pair string int64)))
    "one kernel span per wave, named and timed as the memo" expected
    (List.map (fun (name, dur, _) -> (name, dur)) spans);
  Alcotest.(check bool) "span args equal the charge pass's" true
    (spans = kernel_spans (Trace.events tr_ref));
  let totals reg =
    List.filter (fun (k, _) -> k <> "precond.ilu0.apply.count") (Metrics.snapshot reg)
  in
  Alcotest.(check bool) "registry totals equal the charge pass's" true
    (totals m = totals m_ref)

let () =
  Alcotest.run "obs"
    [
      ( "jsonx",
        [
          Alcotest.test_case "round-trip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_jsonx_errors;
        ] );
      ( "csv",
        [
          Alcotest.test_case "rfc4180 quoting" `Quick test_csv_quoting;
          Alcotest.test_case "report csv quoting" `Quick
            test_report_csv_quoting;
        ] );
      ( "trace",
        [
          Alcotest.test_case "golden chrome json" `Quick test_trace_golden;
          Alcotest.test_case "raise records nothing" `Quick
            test_trace_span_raise_records_nothing;
          Alcotest.test_case "merge shifts clocks" `Quick
            test_trace_merge_shifts;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "basics" `Quick test_metrics_basics;
          Alcotest.test_case "merge" `Quick test_metrics_merge;
          Alcotest.test_case "csv quoting" `Quick test_metrics_csv;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "factor obs across domains" `Quick
            test_factor_obs_domains;
          Alcotest.test_case "fig6 obs across domains" `Quick
            test_fig6_obs_domains;
          Alcotest.test_case "obs on/off bit-identical" `Quick
            test_obs_disabled_bit_identical;
          Alcotest.test_case "solver obs records" `Quick
            test_solver_obs_records;
          Alcotest.test_case "ilu0 traced apply replays waves" `Quick
            test_ilu0_traced_apply;
        ] );
      ( "guards",
        [
          Alcotest.test_case "second trip breaks" `Quick
            test_guard_second_trip_breaks;
          Alcotest.test_case "absent guard bit-identical" `Quick
            test_guard_absent_bit_identical;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "golden json" `Quick test_artifact_golden;
          Alcotest.test_case "round-trip + schema" `Quick
            test_artifact_roundtrip_and_schema;
          Alcotest.test_case "compare gates regressions" `Quick
            test_compare_gates_regression;
          Alcotest.test_case "file io" `Quick test_artifact_file_io;
          Alcotest.test_case "bench points deterministic" `Quick
            test_bench_points_deterministic;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_sub_graft_deterministic; qcheck_factor_obs_domains ] );
    ]
