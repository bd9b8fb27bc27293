(* Every metric the benchmark reports: name, unit, clock and the direction
   that counts as better.  METRICS.md documents each one (workloads, and
   the end-to-end metric a layer metric should move); BENCHMARK.json lists
   [end_to_end] and [per_layer] under the same names, and a test keeps the
   three in agreement. *)

type clock = Wall | Paced | Modelled | Count | Memory
type better = Lower | Higher

type metric = { name : string; unit : string; clock : clock; better : better }

let clock_name = function
  | Wall -> "wall"
  | Paced -> "paced"
  | Modelled -> "modelled"
  | Count -> "count"
  | Memory -> "memory"

let better_name = function Lower -> "lower" | Higher -> "higher"
let m name unit clock better = { name; unit; clock; better }

(* Reported by every workload on an untraced run (--trace 0). *)
let end_to_end =
  [
    m "solve_ms.p50" "ms" Paced Lower;
    m "solve_ms.p90" "ms" Paced Lower;
    m "setup_s" "s" Paced Lower;
    m "problems_per_s" "1/s" Paced Higher;
    m "peak_heap_mb" "MB" Memory Lower;
  ]

(* End-to-end figures that exist on some workloads only.  Every run
   prints the ones its workload has; the traced run also reports them
   under their per-layer names ([krylov.iterations], [serve.*],
   [core.modelled_gflops], [failed_frac]). *)
let workload_specific =
  [
    m "iterations" "count" Count Lower;
    m "modelled_gflops" "GFLOP/s" Modelled Higher;
    m "latency_ms.p50" "ms" Modelled Lower;
    m "latency_ms.p99" "ms" Modelled Lower;
    m "max_rate_rps" "1/s" Modelled Higher;
    m "host_us_per_request" "us" Wall Lower;
  ]

let layouts = [ "blocked"; "interleaved" ]
let kernels = [ "extract"; "getrf"; "trsv" ]
let families = [ "jacobi"; "ilu0" ]

(* Reported by every workload on a traced run (--trace 1); a layer the
   workload does not exercise reads 0. *)
let per_layer =
  [
    m "precond.blocking_ms" "ms" Wall Lower;
    m "precond.create_ms" "ms" Wall Lower;
    m "precond.apply_us" "us" Wall Lower;
    m "precond.apply_calls" "count" Count Lower;
  ]
  @ List.concat_map
      (fun f ->
        [
          m (Printf.sprintf "precond.%s.update_ms" f) "ms" Wall Lower;
          m (Printf.sprintf "precond.%s.apply_us" f) "us" Wall Lower;
          m (Printf.sprintf "precond.%s.dirty_frac" f) "fraction" Count Lower;
          m (Printf.sprintf "precond.%s.setup_tx" f) "count" Count Lower;
          m (Printf.sprintf "precond.%s.setup_modelled_us" f) "us" Modelled Lower;
        ])
      families
  @ [
      m "precond.ilu0.apply_waves" "count" Count Lower;
      m "precond.ilu0.apply_tx" "count" Count Lower;
      m "krylov.self_ms" "ms" Wall Lower;
      m "krylov.iterations" "count" Count Lower;
      m "sparse.spmv_ns_per_nnz" "ns" Wall Lower;
    ]
  @ List.concat_map
      (fun l ->
        List.concat_map
          (fun k ->
            [
              m (Printf.sprintf "core.%s.%s_ms" l k) "ms" Wall Lower;
              m (Printf.sprintf "core.%s.%s.modelled_us" l k) "us" Modelled Lower;
              m (Printf.sprintf "core.%s.%s.gmem_tx" l k) "count" Count Lower;
            ])
          kernels)
      layouts
  @ [
      m "core.breakdowns" "count" Count Lower;
      m "core.modelled_gflops" "GFLOP/s" Modelled Higher;
      m "simt.cache.hit_frac" "fraction" Count Higher;
      m "simt.cache.direct_frac" "fraction" Count Higher;
      m "simt.cache.entries" "count" Count Lower;
      m "serve.submit_us" "us" Wall Lower;
      m "serve.step_us" "us" Wall Lower;
      m "serve.health_us.q1" "us" Wall Lower;
      m "serve.health_us.q4" "us" Wall Lower;
      m "serve.host_us_per_request" "us" Wall Lower;
      m "serve.launches" "count" Count Lower;
      m "serve.occupancy" "fraction" Count Higher;
      m "serve.setup_reused_frac" "fraction" Count Higher;
      m "serve.queue_depth_max" "count" Count Lower;
      m "serve.rejected" "count" Count Lower;
      m "serve.shed" "count" Count Lower;
      m "serve.retried" "count" Count Lower;
      m "serve.latency_ms.p50" "ms" Modelled Lower;
      m "serve.latency_ms.p99" "ms" Modelled Lower;
      m "serve.max_rate_rps" "1/s" Modelled Higher;
      m "serve.generator_lag_ms" "ms" Modelled Lower;
      m "par.parallel_for_us" "us" Wall Lower;
      m "failed_frac" "fraction" Count Lower;
      m "trace.overhead_frac" "fraction" Wall Lower;
      m "trace.unattributed_frac" "fraction" Wall Lower;
    ]

let find name =
  List.find
    (fun x -> x.name = name)
    (end_to_end @ workload_specific @ per_layer)
