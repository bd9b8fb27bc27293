(* The benchmark harness.

   Two layers, both produced by one executable:

   1. Bechamel microbenchmarks of the host-side (CPU-reference) kernels —
      one Test.make per paper table/figure, measuring the computational
      piece that experiment exercises (factorizations for Figures 4-5,
      triangular solves for Figures 6-7, preconditioner setup/apply and
      IDR iterations for Figures 8-9 / Table I).

   2. The paper-shaped experiment outputs: every figure and table of the
      evaluation section, regenerated through the SIMT performance model
      (Figures 4-7 and kernel ablations) and through real solver runs
      (Figures 8-9, Table I, variant ablation).

   Set VBLU_BENCH_FULL=1 for the full-size sweeps (40,000-problem batches,
   all 48 matrices); the default is a quick pass of the same pipelines.

   Usage: main.exe [TARGET] [--domains N] [--breakdown-policy POLICY]

   TARGET selects one experiment (micro, fig4..fig9, table1, ablations);
   with no target everything runs, as before.  --domains N fans the sweeps
   out over N host domains — the printed numbers are bit-identical for any
   N, only the wall-clock changes.  --breakdown-policy (fail | identity |
   perturb:EPS, default identity) selects the block-Jacobi handling of
   singular diagonal blocks in the solver runs.  --inject-faults SPEC
   plants deterministic soft errors in the solver-study preconditioner
   setups (see Fault.Plan.of_spec for the SPEC grammar), --abft turns on
   checksum verification, and --recovery-policy (recompute[:N] | degrade
   | fail, default recompute:1) picks what to do with flagged blocks.
   --layout (blocked | interleaved, default blocked) selects the batch
   storage layout the figure sweeps run in; the host-throughput target
   always measures both and emits them as "host.layout/*" entries.

   The "artifact" target (or --json FILE with any target) additionally
   runs the fixed kernel sweep behind Kernel_figs.bench_points and writes
   a schema-versioned, machine-readable benchmark artifact
   (BENCH_kernels.json by default) for vblu_cli bench-compare. *)

open Bechamel
open Vblu_smallblas
open Vblu_core

let full = Sys.getenv_opt "VBLU_BENCH_FULL" = Some "1"

(* ------------------------------------------------------------------ *)
(* Layer 1: bechamel microbenchmarks                                    *)

let small_batch size =
  let st = Random.State.make [| 0xbec |] in
  Batch.of_matrices (Array.init 32 (fun _ -> Matrix.random_general ~state:st size))

let micro_tests () =
  let b16 = small_batch 16 and b32 = small_batch 32 in
  let m32 = Batch.to_matrices b32 in
  let m16 = Batch.to_matrices b16 in
  let rhs32 = Batch.vec_random b32.Batch.sizes in
  let factors32 = Array.map Lu.factor_implicit m32 in
  let a = Vblu_workloads.Generators.fem_blocks ~nodes:100 ~vars_per_node:4 () in
  let n, _ = Vblu_sparse.Csr.dims a in
  let ones = Array.make n 1.0 in
  let precond, _ = Vblu_precond.Block_jacobi.create ~max_block_size:16 a in
  [
    (* Figure 4/5 — the factorization kernels (host reference numerics). *)
    Test.make ~name:"fig4_5/getrf_lu_16"
      (Staged.stage (fun () -> Array.map Lu.factor_implicit m16));
    Test.make ~name:"fig4_5/getrf_lu_32"
      (Staged.stage (fun () -> Array.map Lu.factor_implicit m32));
    Test.make ~name:"fig4_5/getrf_gh_32"
      (Staged.stage (fun () -> Array.map (fun m -> Gauss_huard.factor m) m32));
    Test.make ~name:"fig4_5/getrf_gje_32"
      (Staged.stage (fun () -> Array.map Gauss_jordan.invert m32));
    (* Figure 6/7 — the triangular solves. *)
    Test.make ~name:"fig6_7/trsv_batch_32"
      (Staged.stage (fun () ->
           Array.mapi
             (fun i f -> Lu.solve f (Batch.vec_get rhs32 i))
             factors32));
    (* Figures 8-9 / Table I — preconditioner setup and application, and
       one full preconditioned solve. *)
    Test.make ~name:"fig8_9/bj_setup_16"
      (Staged.stage (fun () ->
           Vblu_precond.Block_jacobi.create ~max_block_size:16 a));
    Test.make ~name:"fig8_9/bj_apply_16"
      (Staged.stage (fun () -> Vblu_precond.Preconditioner.apply precond ones));
    Test.make ~name:"table1/idr4_solve"
      (Staged.stage (fun () -> Vblu_krylov.Idr.solve ~precond ~s:4 a ones));
    (* Substrate: the sparse product every iteration pays. *)
    Test.make ~name:"substrate/spmv"
      (Staged.stage (fun () -> Vblu_sparse.Csr.spmv a ones));
    (* Extensions: Cholesky (future work), GEMM (batched BLAS), ILU(0). *)
    Test.make ~name:"ablations/cholesky_32"
      (Staged.stage
         (let spd =
            Array.map
              (fun m ->
                let p = Matrix.matmul m (Matrix.transpose m) in
                Matrix.init 32 32 (fun i j ->
                    Matrix.get p i j +. if i = j then 32.0 else 0.0))
              m32
          in
          fun () -> Array.map Cholesky.factor spd));
    Test.make ~name:"ablations/gemm_32"
      (Staged.stage (fun () ->
           Array.map (fun m -> Matrix.matmul m m) m32));
    Test.make ~name:"ablations/ilu0_setup"
      (Staged.stage (fun () -> Vblu_precond.Ilu0.factorize a));
  ]

(* Run a list of Bechamel tests and return (name, ns per run) estimates. *)
let measure_ns tests =
  let suite = Test.make_grouped ~name:"vblu" ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000
      ~quota:(Time.second (if full then 1.0 else 0.25))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] suite in
  let results = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun name r acc ->
      match Analyze.OLS.estimates r with
      | Some (est :: _) -> (name, est) :: acc
      | _ -> acc)
    results []
  |> List.sort compare

let run_micro () =
  Printf.printf "\n## Bechamel microbenchmarks (host CPU, ns per run)\n";
  List.iter
    (fun (name, est) -> Printf.printf "%-28s %14.1f ns\n" name est)
    (measure_ns (micro_tests ()))

(* ------------------------------------------------------------------ *)
(* Layer 1b: host throughput of the SIMT engine hot path.

   Unlike the modelled GFLOPS (layer 2), this measures real wall-clock of
   the warp interpreter itself — the quantity the zero-allocation engine
   work optimizes.  Reported as ns per launch and problems per second;
   emitted as "host.getrf"/"host.trsv" artifact entries whose [gflops]
   field carries millions of problems per second (the gated quantity) and
   whose [bandwidth_gbs] field is unused (zero). *)

let host_sizes = if full then [ 4; 8; 16; 24; 32 ] else [ 8; 16; 32 ]
let host_batch = if full then 2048 else 256

let host_points () =
  List.concat_map
    (fun (prec, pname) ->
      List.concat_map
        (fun size ->
          let st = Random.State.make [| 0x0157; size |] in
          let b =
            Batch.of_matrices
              (Array.init host_batch (fun _ ->
                   Matrix.random_general ~state:st size))
          in
          let rhs = Batch.vec_random ~state:st b.Batch.sizes in
          let f = Batched_lu.factor ~prec b in
          [
            ( "host.getrf", pname, size,
              Test.make
                ~name:(Printf.sprintf "host.getrf/%s/n%d" pname size)
                (Staged.stage (fun () -> Batched_lu.factor ~prec b)) );
            ( "host.trsv", pname, size,
              Test.make
                ~name:(Printf.sprintf "host.trsv/%s/n%d" pname size)
                (Staged.stage (fun () ->
                     Batched_trsv.solve ~prec
                       ~factors:f.Batched_lu.factors
                       ~pivots:f.Batched_lu.pivots rhs)) );
          ])
        (match prec with
        | Precision.Double -> host_sizes
        | _ -> [ List.fold_left max 0 host_sizes ]))
    [ (Precision.Double, "fp64"); (Precision.Single, "fp32") ]

(* Layout throughput: the same engine hot path in both storage layouts —
   the host-side cost of cohort-strided element access that the modelled
   transaction savings must be weighed against.  Emitted as
   "host.layout/<kernel>.<layout>" entries (fp64 only) so bench-compare
   gates both layouts' throughput. *)
let host_layout_points () =
  List.concat_map
    (fun layout ->
      let lname = Batch.layout_name layout in
      List.concat_map
        (fun size ->
          let st = Random.State.make [| 0x1a70; size |] in
          let sizes = Array.make host_batch size in
          let b = Batch.random_diagdom ~state:st ~layout sizes in
          let rhs = Batch.vec_random ~state:st ~layout sizes in
          let f = Batched_lu.factor b in
          let point kernel stage =
            ( Printf.sprintf "host.layout/%s.%s" kernel lname, "fp64", size,
              Test.make
                ~name:
                  (Printf.sprintf "host.layout/%s.%s/fp64/n%d" kernel lname
                     size)
                (Staged.stage stage) )
          in
          [
            point "getrf" (fun () -> Batched_lu.factor b);
            point "trsv" (fun () ->
                Batched_trsv.solve ~factors:f.Batched_lu.factors
                  ~pivots:f.Batched_lu.pivots rhs);
          ])
        host_sizes)
    [ Batch.Blocked; Batch.Interleaved ]

let run_host_throughput ~domains ~json () =
  let points = host_points () @ host_layout_points () in
  (* Start from a cold stats cache so the direct-hit tally below reflects
     this run alone, not leftovers from warm-up launches. *)
  Vblu_simt.Launch.Cache.clear ();
  let measured = measure_ns (List.map (fun (_, _, _, t) -> t) points) in
  let hits, misses = Vblu_simt.Launch.Cache.stats () in
  let direct = Vblu_simt.Launch.Cache.direct_hits () in
  let lookups = hits + misses in
  let direct_fraction =
    if lookups = 0 then 0.0 else float_of_int direct /. float_of_int lookups
  in
  let ns_of kernel pname size =
    let suffix = Printf.sprintf "%s/%s/n%d" kernel pname size in
    List.find_map
      (fun (name, ns) ->
        let ln = String.length name and ls = String.length suffix in
        if ln >= ls && String.sub name (ln - ls) ls = suffix then Some ns
        else None)
      measured
  in
  Printf.printf
    "\n## Host throughput (engine wall-clock, batch = %d problems)\n"
    host_batch;
  Printf.printf "%-12s %-6s %4s %14s %16s\n" "kernel" "prec" "n" "ns/launch"
    "problems/sec";
  let entries =
    List.filter_map
      (fun (kernel, pname, size, _) ->
        match ns_of kernel pname size with
        | None -> None
        | Some ns ->
          let problems_per_sec = float_of_int host_batch /. (ns *. 1e-9) in
          Printf.printf "%-12s %-6s %4d %14.0f %16.0f\n" kernel pname size ns
            problems_per_sec;
          Some
            {
              Vblu_obs.Artifact.kernel;
              prec = pname;
              size;
              batch = host_batch;
              gflops = problems_per_sec /. 1e6;
              bandwidth_gbs = 0.0;
              time_us = ns /. 1000.0;
            })
      points
  in
  Printf.printf
    "direct fast path: %d of %d cache lookups served without the \
     interpreter (%.1f%%)\n"
    direct lookups (100.0 *. direct_fraction);
  (* The direct-hit fraction rides along as a pseudo-entry so the CI gate
     (vblu_cli bench-compare on the gflops field) fails loudly if the fast
     path silently stops being taken; the raw hit count goes into
     [bandwidth_gbs] as an informational payload. *)
  let entries =
    entries
    @ [
        {
          Vblu_obs.Artifact.kernel = "host.cache";
          prec = "direct-fraction";
          size = 0;
          batch = host_batch;
          gflops = direct_fraction;
          bandwidth_gbs = float_of_int direct;
          time_us = 0.0;
        };
      ]
  in
  let file = Option.value json ~default:"BENCH_host.json" in
  let art =
    Vblu_obs.Artifact.make ~target:"host-throughput" ~config:"p100" ~domains
      ~quick:(not full) entries
  in
  Vblu_obs.Artifact.write file art;
  Printf.eprintf "[bench] wrote %s (%d entries)\n%!" file (List.length entries)

(* ------------------------------------------------------------------ *)
(* Service throughput: the coalescing solver service under a load sweep.

   Drives lib/serve's deterministic loadgen at several offered-load
   multipliers and reports goodput, shed rate, tail latency and
   coalesced-batch occupancy — all in modelled (virtual) time, so the
   numbers are bit-identical across runs and domain counts and can be
   gated by bench-compare.  Emitted as "serve.goodput" entries whose
   [gflops] field carries completed requests per virtual millisecond
   (the gated quantity), [bandwidth_gbs] the shed+reject rate and
   [time_us] the p99 latency; a "serve.cache" pseudo-entry rides along
   with the launch-cache hit rate. *)

let serve_loads = [ 0.5; 1.0; 1.5; 2.0 ]
let serve_requests = if full then 2000 else 400

let run_serve ~domains ~json () =
  let pool = Vblu_par.Pool.create ~num_domains:domains () in
  let config =
    { Vblu_serve.Service.default_config with
      Vblu_serve.Service.capacity = 64; max_batch = 16; min_fill = 4 }
  in
  Vblu_simt.Launch.Cache.clear ();
  Printf.printf "\n## Service throughput (%d requests per point)\n"
    serve_requests;
  Printf.printf "%-6s %12s %10s %12s %12s %10s\n" "load" "goodput/ms"
    "shed-rate" "p50(ms)" "p99(ms)" "occupancy";
  let entries =
    List.map
      (fun load ->
        let spec =
          { Vblu_serve.Loadgen.default_spec with
            Vblu_serve.Loadgen.requests = serve_requests;
            load;
            deadline_windows = 16.0 }
        in
        let r = Vblu_serve.Loadgen.run ~pool ~config spec in
        if
          not
            (r.Vblu_serve.Loadgen.accounted
            && r.Vblu_serve.Loadgen.within_bound
            && r.Vblu_serve.Loadgen.verified)
        then begin
          Printf.eprintf "[bench] serve: robustness contract violated\n%!";
          exit 1
        end;
        let goodput_ms = r.Vblu_serve.Loadgen.goodput /. 1e3 in
        Printf.printf "%-6.2f %12.2f %10.3f %12.4f %12.4f %10.3f\n" load
          goodput_ms r.Vblu_serve.Loadgen.shed_rate
          (r.Vblu_serve.Loadgen.p50_latency *. 1e3)
          (r.Vblu_serve.Loadgen.p99_latency *. 1e3)
          r.Vblu_serve.Loadgen.mean_occupancy;
        {
          Vblu_obs.Artifact.kernel = "serve.goodput";
          prec = Printf.sprintf "load-%.2f" load;
          size = 0;
          batch = serve_requests;
          gflops = goodput_ms;
          bandwidth_gbs = r.Vblu_serve.Loadgen.shed_rate;
          time_us = r.Vblu_serve.Loadgen.p99_latency *. 1e6;
        })
      serve_loads
  in
  let hits, misses = Vblu_simt.Launch.Cache.stats () in
  let lookups = hits + misses in
  let hit_rate =
    if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups
  in
  Printf.printf "launch cache over the sweep: %d hits / %d misses (%.1f%%)\n"
    hits misses (100.0 *. hit_rate);
  let entries =
    entries
    @ [
        {
          Vblu_obs.Artifact.kernel = "serve.cache";
          prec = "hit-rate";
          size = 0;
          batch = serve_requests;
          gflops = hit_rate;
          bandwidth_gbs = float_of_int hits;
          time_us = 0.0;
        };
      ]
  in
  let file = Option.value json ~default:"BENCH_serve.json" in
  let art =
    Vblu_obs.Artifact.make ~target:"serve" ~config:"p100" ~domains
      ~quick:(not full) entries
  in
  Vblu_obs.Artifact.write file art;
  Printf.eprintf "[bench] wrote %s (%d entries)\n%!" file (List.length entries)

(* The preconditioner-family head-to-head (ROADMAP item 3): block-Jacobi
   vs block-ILU(0) vs RAS-ILU(0) over the workload suite, through
   Precond_study.  One artifact entry per (matrix, family); the gated
   [gflops] field carries 1000/iterations (fewer IDR(4) iterations =
   higher number, so convergence regressions fail bench-compare),
   [bandwidth_gbs] the modelled microseconds per application and
   [time_us] the setup+solve wall-clock.  Two pseudo-entries gate the
   head-to-head itself: the fraction of matrices (and of the
   convection-dominated subset) where block-ILU(0) reduced iterations. *)

let run_precond ~domains ~json () =
  let module PS = Vblu_perf.Precond_study in
  let module S = Vblu_workloads.Suite in
  let pool = Vblu_par.Pool.create ~num_domains:domains () in
  let progress msg = Printf.eprintf "[suite] %s\n%!" msg in
  let study = PS.run_suite ~quick:(not full) ~pool ~progress () in
  Printf.printf "\n## Preconditioner families (block size %d)\n"
    study.PS.max_block_size;
  Printf.printf "%-3s %-18s %-12s %6s %5s %6s %9s %9s\n" "id" "matrix"
    "family" "iters" "waves" "levels" "tx/apply" "us/apply";
  let entries =
    List.map
      (fun (r : PS.run) ->
        Printf.printf "%3d %-18s %-12s %5d%s %5d %3d+%-3d %9d %9.2f\n"
          r.PS.entry.S.id r.PS.entry.S.name
          (PS.family_label r.PS.family)
          r.PS.iterations
          (if r.PS.converged then " " else "*")
          r.PS.apply_waves r.PS.lower_levels r.PS.upper_levels
          r.PS.apply_transactions
          (r.PS.modelled_apply_seconds *. 1e6);
        {
          Vblu_obs.Artifact.kernel = "precond." ^ PS.family_label r.PS.family;
          prec = r.PS.entry.S.name;
          size = r.PS.entry.S.id;
          batch = r.PS.blocks;
          gflops = 1e3 /. float_of_int (max 1 r.PS.iterations);
          bandwidth_gbs = r.PS.modelled_apply_seconds *. 1e6;
          time_us = PS.total_seconds r *. 1e6;
        })
      study.PS.runs
  in
  let pairs = PS.iteration_improvements study in
  let better ((j : PS.run), (i : PS.run)) = i.PS.iterations < j.PS.iterations in
  let ratio pairs =
    match pairs with
    | [] -> 0.0
    | _ ->
      float_of_int (List.length (List.filter better pairs))
      /. float_of_int (List.length pairs)
  in
  let conv =
    List.filter (fun ((j : PS.run), _) -> j.PS.entry.S.family = S.Convection)
      pairs
  in
  Printf.printf
    "block-ilu0 reduced iterations on %d/%d matrices (%d/%d convection)\n"
    (List.length (List.filter better pairs))
    (List.length pairs)
    (List.length (List.filter better conv))
    (List.length conv);
  let pseudo kernel prec value =
    {
      Vblu_obs.Artifact.kernel;
      prec;
      size = 0;
      batch = List.length pairs;
      gflops = value;
      bandwidth_gbs = 0.0;
      time_us = 0.0;
    }
  in
  let entries =
    entries
    @ [
        pseudo "precond.improved" "all-matrices" (ratio pairs);
        pseudo "precond.improved" "convection" (ratio conv);
      ]
  in
  let file = Option.value json ~default:"BENCH_precond.json" in
  let art =
    Vblu_obs.Artifact.make ~target:"precond" ~config:"p100" ~domains
      ~quick:(not full) entries
  in
  Vblu_obs.Artifact.write file art;
  Printf.eprintf "[bench] wrote %s (%d entries)\n%!" file (List.length entries)

(* Amortized preconditioner setup over a time-stepping workload: the
   drifting convection-diffusion driver re-solved under each refresh
   policy, full vs partial refactorization.  All numbers are modelled
   (virtual) time and transaction counts, bit-identical across runs and
   domain counts, so bench-compare can gate them.  One entry per
   (family, policy): the gated [gflops] field carries setup efficiency
   (1e6 / setup transactions — a partial-refresh regression that
   refactors more blocks lowers it and fails the gate), [bandwidth_gbs]
   the total IDR(4) iterations and [time_us] the modelled setup seconds.
   A "timestep.amortization" pseudo-entry per family gates the
   full/partial transaction ratio itself. *)

let timestep_steps = if full then 40 else 12
let timestep_grid = if full then 24 else 16

let run_timestep ~domains ~json () =
  let module T = Vblu_workloads.Timestep in
  let pool = Vblu_par.Pool.create ~num_domains:domains () in
  let nx = timestep_grid and ny = timestep_grid in
  let policies =
    [
      ("full-every-step", T.Every_step, T.Full);
      ("partial-every-step", T.Every_step, T.Partial 0.0);
      ("partial-every-4", T.Every_k 4, T.Partial 0.0);
      ("partial-on-stall", T.On_stall { iters_growth = 8 }, T.Partial 0.0);
    ]
  in
  Printf.printf "\n## Time-stepping amortization (%dx%d grid, %d steps)\n" nx
    ny timestep_steps;
  Printf.printf "%-7s %-20s %9s %9s %7s %10s %10s\n" "family" "policy"
    "setup-tx" "launches" "iters" "residual" "checksum";
  let entries =
    List.concat_map
      (fun family ->
        let fname = T.family_name family in
        let results =
          List.map
            (fun (pname, refresh, mode) ->
              let r =
                T.run ~pool ~nx ~ny ~steps:timestep_steps ~family ~refresh
                  ~mode ()
              in
              Printf.printf "%-7s %-20s %9d %9d %7d %10.3e %10.6f\n" fname
                pname r.T.total_setup_transactions r.T.total_launches
                r.T.total_iterations r.T.final_residual r.T.solution_checksum;
              (pname, r))
            policies
        in
        let tx name =
          let _, r = List.find (fun (p, _) -> p = name) results in
          float_of_int (max 1 r.T.total_setup_transactions)
        in
        let full_tx = tx "full-every-step"
        and partial_tx = tx "partial-every-step" in
        let full_r = snd (List.hd results) in
        let partial_r = snd (List.nth results 1) in
        (* Partial refresh at tol 0 must track the full baseline bitwise;
           fail the bench run loudly if the contract ever breaks. *)
        if
          Int64.bits_of_float partial_r.T.solution_checksum
          <> Int64.bits_of_float full_r.T.solution_checksum
        then begin
          Printf.eprintf
            "[bench] timestep: partial refresh diverged from full\n%!";
          exit 1
        end;
        Printf.printf "%-7s amortization: partial uses %.1f%% of full tx\n"
          fname
          (100.0 *. partial_tx /. full_tx);
        List.map
          (fun (pname, (r : T.result)) ->
            {
              Vblu_obs.Artifact.kernel = "timestep." ^ fname;
              prec = pname;
              size = timestep_grid;
              batch = timestep_steps;
              gflops = 1e6 /. float_of_int (max 1 r.T.total_setup_transactions);
              bandwidth_gbs = float_of_int r.T.total_iterations;
              time_us = r.T.total_setup_modelled_seconds *. 1e6;
            })
          results
        @ [
            {
              Vblu_obs.Artifact.kernel = "timestep.amortization";
              prec = fname;
              size = timestep_grid;
              batch = timestep_steps;
              gflops = full_tx /. partial_tx;
              bandwidth_gbs = 0.0;
              time_us = 0.0;
            };
          ])
      [ T.Jacobi; T.Ilu0 ]
  in
  let file = Option.value json ~default:"BENCH_timestep.json" in
  let art =
    Vblu_obs.Artifact.make ~target:"timestep" ~config:"p100" ~domains
      ~quick:(not full) entries
  in
  Vblu_obs.Artifact.write file art;
  Printf.eprintf "[bench] wrote %s (%d entries)\n%!" file (List.length entries)

(* ------------------------------------------------------------------ *)
(* Layer 2: the paper's figures and tables                              *)

let targets =
  [ "micro"; "host-throughput"; "serve"; "precond"; "timestep"; "fig4";
    "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "table1"; "ablations";
    "artifact"; "all" ]

let usage () =
  Printf.eprintf
    "usage: %s [%s] [--domains N] [--breakdown-policy \
     fail|identity|perturb:EPS] [--inject-faults SPEC] [--abft] \
     [--recovery-policy recompute[:N]|degrade|fail] \
     [--layout blocked|interleaved] [--json FILE]\n"
    Sys.argv.(0)
    (String.concat "|" targets);
  exit 2

let parse_faults s =
  match Vblu_fault.Fault.Plan.of_spec s with
  | Ok p -> Some p
  | Error msg ->
    Printf.eprintf "invalid --inject-faults spec: %s\n" msg;
    None

let parse_layout s = Result.to_option (Batch.layout_of_string s)

let parse_args () =
  let domains = ref (Domain.recommended_domain_count ()) in
  let policy = ref Vblu_precond.Block_jacobi.Identity_block in
  let faults = ref None in
  let abft = ref false in
  let recovery = ref (Vblu_precond.Block_jacobi.Recompute 1) in
  let json = ref None in
  let layout = ref Batch.Blocked in
  let target = ref "all" in
  let set parse store s rest go =
    match parse s with
    | Some v -> store v; go rest
    | None -> usage ()
  in
  let ok parse s = Result.to_option (parse s) in
  let module Bj = Vblu_precond.Block_jacobi in
  let set_policy = set (ok Bj.policy_of_string) (fun p -> policy := p) in
  let set_recovery = set (ok Bj.recovery_of_string) (fun r -> recovery := r) in
  let set_faults = set parse_faults (fun p -> faults := Some p) in
  let set_layout = set parse_layout (fun l -> layout := l) in
  let prefixed arg name =
    (* "--name=value" -> Some "value" *)
    let p = "--" ^ name ^ "=" in
    let lp = String.length p in
    if String.length arg > lp && String.sub arg 0 lp = p then
      Some (String.sub arg lp (String.length arg - lp))
    else None
  in
  let rec go = function
    | [] -> ()
    | "--domains" :: n :: rest -> (
      match int_of_string_opt n with
      | Some v when v >= 1 -> domains := v; go rest
      | _ -> usage ())
    | "--breakdown-policy" :: p :: rest -> set_policy p rest go
    | "--recovery-policy" :: p :: rest -> set_recovery p rest go
    | "--inject-faults" :: s :: rest -> set_faults s rest go
    | "--layout" :: l :: rest -> set_layout l rest go
    | "--json" :: f :: rest -> json := Some f; go rest
    | "--abft" :: rest -> abft := true; go rest
    | arg :: rest -> (
      match prefixed arg "domains" with
      | Some n -> (
        match int_of_string_opt n with
        | Some v when v >= 1 -> domains := v; go rest
        | _ -> usage ())
      | None -> (
        match prefixed arg "breakdown-policy" with
        | Some p -> set_policy p rest go
        | None -> (
          match prefixed arg "recovery-policy" with
          | Some p -> set_recovery p rest go
          | None -> (
            match prefixed arg "inject-faults" with
            | Some s -> set_faults s rest go
            | None -> (
              match prefixed arg "layout" with
              | Some l -> set_layout l rest go
              | None -> (
                match prefixed arg "json" with
                | Some f -> json := Some f; go rest
                | None when List.mem arg targets -> target := arg; go rest
                | None -> usage ()))))))
  in
  go (List.tl (Array.to_list Sys.argv));
  (!target, !domains, !policy, !faults, !abft, !recovery, !json, !layout)

let () =
  let target, domains, policy, faults, abft, recovery, json, layout =
    parse_args ()
  in
  let pool = Vblu_par.Pool.create ~num_domains:domains () in
  let ppf = Format.std_formatter in
  let quick = not full in
  let progress msg = Printf.eprintf "[suite] %s\n%!" msg in
  let study =
    lazy
      (Vblu_perf.Solver_study.run_suite ~quick ~pool ~policy ?faults ~abft
         ~recovery ~progress ())
  in
  let all = target = "all" in
  if all || target = "micro" then run_micro ();
  if target = "host-throughput" then run_host_throughput ~domains ~json ();
  if target = "serve" then run_serve ~domains ~json ();
  if target = "precond" then run_precond ~domains ~json ();
  if target = "timestep" then run_timestep ~domains ~json ();
  if all || target = "fig4" then
    Vblu_perf.Kernel_figs.fig4 ~quick ~pool ~layout ppf;
  if all || target = "fig5" then
    Vblu_perf.Kernel_figs.fig5 ~quick ~pool ~layout ppf;
  if all || target = "fig6" then
    Vblu_perf.Kernel_figs.fig6 ~quick ~pool ~layout ppf;
  if all || target = "fig7" then
    Vblu_perf.Kernel_figs.fig7 ~quick ~pool ~layout ppf;
  if all || target = "ablations" then begin
    Vblu_perf.Kernel_figs.ablation_pivot ~quick ~pool ppf;
    Vblu_perf.Kernel_figs.ablation_trsv ~quick ~pool ppf;
    Vblu_perf.Kernel_figs.ablation_extraction ~quick ~pool ppf;
    Vblu_perf.Kernel_figs.ablation_cholesky ~quick ~pool ppf;
    Vblu_perf.Kernel_figs.ablation_variable_size ~quick ~pool ppf;
    Vblu_perf.Kernel_figs.abft_overhead ~quick ~pool ppf;
    Vblu_perf.Kernel_figs.layout_sweep ~quick ~pool ppf
  end;
  if all || target = "fig8" then Vblu_perf.Solver_figs.fig8 ppf (Lazy.force study);
  if all || target = "fig9" then Vblu_perf.Solver_figs.fig9 ppf (Lazy.force study);
  if all || target = "table1" then
    Vblu_perf.Solver_figs.table1 ppf (Lazy.force study);
  if all then Vblu_perf.Solver_figs.ablation_variants ppf (Lazy.force study);
  if
    target = "artifact"
    || (json <> None && target <> "host-throughput" && target <> "serve"
       && target <> "precond" && target <> "timestep")
  then begin
    let file = Option.value json ~default:"BENCH_kernels.json" in
    let art =
      Vblu_perf.Kernel_figs.bench_artifact ~quick ~pool ~target:"kernels" ()
    in
    Vblu_obs.Artifact.write file art;
    Printf.eprintf "[bench] wrote %s (%d entries)\n%!" file
      (List.length art.Vblu_obs.Artifact.entries)
  end;
  Format.pp_print_flush ppf ()
