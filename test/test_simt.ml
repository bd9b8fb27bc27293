(* Tests for the SIMT simulator: warp semantics, cost accounting,
   coalescing rules, and the timing model's qualitative behaviour. *)

open Vblu_smallblas
open Vblu_simt

let check_float = Alcotest.(check (float 1e-9))

let fresh ?(prec = Precision.Double) () = Warp.create prec ()

(* Runs [op dst] on a fresh lane-width destination and returns it. *)
let lanes w op =
  let dst = Array.make (Warp.size w) 0.0 in
  op dst;
  dst

let load w mem ?active addrs =
  lanes w (fun dst -> Warp.load_into w mem ?active addrs ~dst)

(* ------------------------------------------------------------------ *)
(* Warp arithmetic                                                     *)

let test_lanewise_ops () =
  let w = fresh () in
  let a = Array.init 32 float_of_int in
  let b = Array.make 32 2.0 in
  let c = lanes w (fun dst -> Warp.mul_into w ~dst a b) in
  check_float "mul" 62.0 c.(31);
  let d = lanes w (fun dst -> Warp.fma_into w ~dst a b c) in
  check_float "fma" (62.0 +. 62.0) d.(31);
  let e = lanes w (fun dst -> Warp.fnma_into w ~dst a b d) in
  check_float "fnma" 62.0 e.(31);
  let q = lanes w (fun dst -> Warp.div_into w ~dst a b) in
  check_float "div" 15.5 q.(31);
  Alcotest.(check bool) "fma counted" true
    ((Warp.counter w).Counter.fma_instrs = 3.0);
  Alcotest.(check bool) "div counted" true
    ((Warp.counter w).Counter.div_instrs = 1.0)

let test_predication () =
  let w = fresh () in
  let active = Array.init 32 (fun i -> i < 4) in
  let a = Array.make 32 1.0 and b = Array.make 32 1.0 in
  let c = lanes w (fun dst -> Warp.add_into w ~active ~dst a b) in
  check_float "active lane updated" 2.0 c.(0);
  check_float "inactive lane passthrough" 1.0 c.(31);
  (* Predicated-off lanes still cost a full instruction. *)
  check_float "full warp charged" 1.0 (Warp.counter w).Counter.fma_instrs

let test_single_precision_rounding () =
  let w = fresh ~prec:Precision.Single () in
  let a = Array.make 32 0.1 and b = Array.make 32 0.2 in
  let c = lanes w (fun dst -> Warp.add_into w ~dst a b) in
  check_float "binary32 sum" (Precision.add Precision.Single 0.1 0.2) c.(7)

let test_fnma_and_sqrt () =
  let w = fresh () in
  let a = Array.make 32 3.0 and b = Array.make 32 2.0 and c = Array.make 32 10.0 in
  let r = lanes w (fun dst -> Warp.fnma_into w ~dst a b c) in
  check_float "c - a*b" 4.0 r.(0);
  let s = lanes w (fun dst -> Warp.sqrt_into w ~dst (Array.make 32 9.0)) in
  check_float "sqrt" 3.0 s.(5);
  (* sqrt is charged at division cost. *)
  check_float "div-class charge" 1.0 (Warp.counter w).Counter.div_instrs

let test_scattered_load_replays () =
  (* A fully scattered load must cost more issue slots than a coalesced
     one of the same width — the divergence replays. *)
  let issue f =
    let w = fresh () in
    let mem = Gmem.create Precision.Double 65536 in
    f w mem;
    (Warp.counter w).Counter.gmem_instrs
  in
  let coalesced =
    issue (fun w mem -> ignore (load w mem (Array.init 32 (fun i -> i))))
  in
  let scattered =
    issue (fun w mem ->
        ignore (load w mem (Array.init 32 (fun i -> i * 1024))))
  in
  Alcotest.(check bool)
    (Printf.sprintf "scattered %.1f > coalesced %.1f slots" scattered coalesced)
    true (scattered >= 2.0 *. coalesced)

let test_broadcast () =
  let w = fresh () in
  let x = Array.init 32 float_of_int in
  let y = lanes w (fun dst -> Warp.broadcast_into w ~dst x ~src:5) in
  Alcotest.(check bool) "all lanes get lane 5" true
    (Array.for_all (fun v -> v = 5.0) y);
  check_float "one shuffle" 1.0 (Warp.counter w).Counter.shfl_instrs

let test_argmax_abs () =
  let w = fresh () in
  let x = Array.init 32 (fun i -> if i = 13 then -9.0 else float_of_int i /. 10.0) in
  Alcotest.(check int) "finds magnitude max" 13 (Warp.argmax_abs w x);
  let active = Array.init 32 (fun i -> i <> 13) in
  Alcotest.(check int) "respects mask" 31 (Warp.argmax_abs w ~active x);
  (* Ties resolve to the lowest lane. *)
  let t = Array.make 32 1.0 in
  Alcotest.(check int) "tie -> lowest" 0 (Warp.argmax_abs w t)

(* ------------------------------------------------------------------ *)
(* Memory and coalescing                                               *)

let test_gmem_roundtrip () =
  let w = fresh () in
  let mem = Gmem.of_array Precision.Double (Array.init 64 float_of_int) in
  let addrs = Array.init 32 (fun i -> i + 8) in
  let v = load w mem addrs in
  check_float "loaded" 39.0 v.(31);
  Warp.store w mem addrs (Array.make 32 0.5);
  check_float "stored" 0.5 (Gmem.raw mem).(8)

let test_coalescing_counts () =
  let count f =
    let w = fresh () in
    let mem = Gmem.create Precision.Double 4096 in
    f w mem;
    Counter.transactions (Warp.counter w)
  in
  (* 32 consecutive doubles = 8 transactions of 32 B. *)
  Alcotest.(check int) "coalesced" 8
    (count (fun w mem -> ignore (load w mem (Array.init 32 (fun i -> i)))));
  (* Stride 32: every lane its own sector. *)
  Alcotest.(check int) "strided" 32
    (count (fun w mem ->
         ignore (load w mem (Array.init 32 (fun i -> i * 32)))));
  (* Single precision packs twice as many scalars per sector. *)
  let w = fresh ~prec:Precision.Single () in
  let mem = Gmem.create Precision.Single 4096 in
  ignore (load w mem (Array.init 32 (fun i -> i)));
  Alcotest.(check int) "single coalesced" 4
    (Counter.transactions (Warp.counter w))

let test_inactive_lanes_no_traffic () =
  let w = fresh () in
  let mem = Gmem.create Precision.Double 4096 in
  let active = Array.init 32 (fun i -> i = 0) in
  ignore (load w mem ~active (Array.init 32 (fun i -> i * 100)));
  Alcotest.(check int) "one active lane = one transaction" 1
    (Counter.transactions (Warp.counter w))

let test_gmem_precision_staging () =
  let mem = Gmem.of_array Precision.Single [| 0.1 |] in
  check_float "rounded on staging"
    (Precision.round Precision.Single 0.1)
    (Gmem.raw mem).(0)

let test_smem_bank_conflicts () =
  let w = fresh () in
  let sm = Warp.smem_alloc w 2048 in
  (* Conflict-free: consecutive addresses. *)
  Warp.smem_store w sm (Array.init 32 (fun i -> i)) (Array.make 32 1.0);
  check_float "no conflict" 1.0 (Warp.counter w).Counter.smem_accesses;
  (* 32-way conflict: stride 32 hits one bank. *)
  Warp.smem_store w sm (Array.init 32 (fun i -> i * 32)) (Array.make 32 1.0);
  check_float "full conflict adds 32 passes" 33.0
    (Warp.counter w).Counter.smem_accesses;
  check_float "data landed" 1.0 (Warp.smem_read sm 31)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

let test_counter_add_scale () =
  let a = Counter.create () in
  a.Counter.fma_instrs <- 2.0;
  a.Counter.gmem_bytes <- 100.0;
  a.Counter.gmem_rounds <- 2;
  let b = Counter.scale_into a 3.0 in
  check_float "scaled fma" 6.0 b.Counter.fma_instrs;
  check_float "scaled bytes" 300.0 b.Counter.gmem_bytes;
  Alcotest.(check int) "rounds not scaled" 2 b.Counter.gmem_rounds;
  let acc = Counter.create () in
  Counter.add acc a;
  Counter.add acc b;
  check_float "accumulated" 8.0 acc.Counter.fma_instrs

let test_counter_scale_no_ceil () =
  (* Fractional scale factors must accumulate exactly — the old per-class
     [ceil] injected up to one spurious transaction per size class. *)
  let a = Counter.create () in
  a.Counter.gmem_transactions <- 3.0;
  a.Counter.gmem_bytes <- 96.0;
  let b = Counter.scale_into a 2.5 in
  check_float "exact scaled txns" 7.5 b.Counter.gmem_transactions;
  check_float "exact scaled bytes" 240.0 b.Counter.gmem_bytes;
  (* Two half-scaled classes sum back to the exact total. *)
  let acc = Counter.create () in
  Counter.add acc (Counter.scale_into a 0.5);
  Counter.add acc (Counter.scale_into a 0.5);
  Alcotest.(check int) "rounded once at consumption" 3 (Counter.transactions acc)

(* ------------------------------------------------------------------ *)
(* Timing model                                                        *)

let synthetic_counter ~fma ~bytes =
  let c = Counter.create () in
  c.Counter.fma_instrs <- fma;
  c.Counter.gmem_bytes <- float_of_int bytes;
  c.Counter.useful_flops <- fma *. 64.0;
  c

let test_launch_monotone_in_batch () =
  (* More warps of the same work => higher GFLOPS until saturation. *)
  let per_warp = synthetic_counter ~fma:1000.0 ~bytes:1024 in
  let gflops warps =
    let total = Counter.scale_into per_warp (float_of_int warps) in
    (Launch.time ~prec:Precision.Double ~warps ~total ~max_warp:per_warp ())
      .Launch.gflops
  in
  let g100 = gflops 100 and g1000 = gflops 1000 and g40000 = gflops 40_000 in
  Alcotest.(check bool) "ramps up" true (g100 < g1000 && g1000 < g40000);
  (* Saturation: doubling the batch barely moves the rate. *)
  let g80000 = gflops 80_000 in
  Alcotest.(check bool) "saturates" true (g80000 /. g40000 < 1.05)

let test_launch_bandwidth_bound () =
  (* A memory-dominated kernel is limited by effective bandwidth. *)
  let cfg = Config.p100 in
  let per_warp = synthetic_counter ~fma:1.0 ~bytes:(1 lsl 20) in
  let total = Counter.scale_into per_warp 10_000.0 in
  let s =
    Launch.time ~cfg ~prec:Precision.Double ~warps:10_000 ~total
      ~max_warp:per_warp ()
  in
  let eff = cfg.Config.mem_bandwidth_gbs *. cfg.Config.mem_efficiency in
  Alcotest.(check bool) "achieved <= effective peak" true
    (s.Launch.bandwidth_gbs <= eff +. 1e-6);
  Alcotest.(check bool) "actually bandwidth-bound" true
    (s.Launch.bandwidth_gbs > 0.95 *. eff)

let test_launch_precision_ratio () =
  (* Pure-FMA kernels run at the SP:DP throughput ratio when saturated. *)
  let per_warp = synthetic_counter ~fma:10_000.0 ~bytes:64 in
  let t prec =
    let total = Counter.scale_into per_warp 40_000.0 in
    (Launch.time ~prec ~warps:40_000 ~total ~max_warp:per_warp ())
      .Launch.time_us
  in
  let ratio = t Precision.Double /. t Precision.Single in
  Alcotest.(check bool)
    (Printf.sprintf "dp/sp = %.2f in [1.8, 2.2]" ratio)
    true
    (ratio > 1.8 && ratio < 2.2)

let test_launch_serial_floor () =
  (* One warp with many dependent memory rounds: its latency chain must
     floor the kernel time regardless of how little compute it has. *)
  let c = Counter.create () in
  c.Counter.fma_instrs <- 1.0;
  c.Counter.gmem_rounds <- 100;
  c.Counter.useful_flops <- 64.0;
  let cfg = Config.p100 in
  let s = Launch.time ~cfg ~prec:Precision.Double ~warps:1 ~total:c ~max_warp:c () in
  let floor_us =
    100.0 *. cfg.Config.mem_latency_cycles /. (cfg.Config.clock_ghz *. 1e9) *. 1e6
    +. cfg.Config.launch_overhead_us
  in
  Alcotest.(check bool)
    (Printf.sprintf "time %.1f >= latency floor %.1f" s.Launch.time_us floor_us)
    true
    (s.Launch.time_us >= floor_us -. 1e-6)

let test_launch_rejects_empty () =
  Alcotest.check_raises "no warps" (Invalid_argument "Launch.time: no warps")
    (fun () ->
      ignore
        (Launch.time ~prec:Precision.Double ~warps:0 ~total:(Counter.create ())
           ~max_warp:(Counter.create ()) ()))

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)

let test_sampling_exact_vs_sampled () =
  (* A data-independent kernel: Sampled must reproduce Exact's aggregate
     counters exactly when all problems have the same size. *)
  let kernel w _i =
    let a = Array.make 32 1.0 in
    Warp.fma_into w ~dst:(Array.make 32 0.0) a a a;
    Counter.credit_flops (Warp.counter w) 64.0
  in
  let sizes = Array.make 500 16 in
  let run mode = Sampling.run ~prec:Precision.Double ~mode ~sizes ~kernel () in
  let e = run Sampling.Exact and s = run Sampling.Sampled in
  check_float "identical flops" e.Launch.total.Counter.useful_flops
    s.Launch.total.Counter.useful_flops;
  check_float "identical time" e.Launch.time_us s.Launch.time_us

let test_sampling_representatives () =
  (* One kernel execution per distinct size in Sampled mode. *)
  let executed = ref [] in
  let kernel w i =
    executed := i :: !executed;
    let a = Array.make 32 1.0 in
    Warp.fma_into w ~dst:(Array.make 32 0.0) a a a
  in
  let sizes = [| 4; 8; 4; 16; 8; 4 |] in
  ignore (Sampling.run ~prec:Precision.Double ~mode:Sampling.Sampled ~sizes ~kernel ());
  Alcotest.(check (list int)) "first occurrence of each size" [ 0; 1; 3 ]
    (List.sort compare !executed)

let test_sampling_empty () =
  (* Empty batches are a defined no-op: zero time, zero warps, no kernel
     executions (DESIGN §5 failure injection). *)
  List.iter
    (fun mode ->
      let s =
        Sampling.run ~prec:Precision.Double ~mode ~sizes:[||]
          ~kernel:(fun _ _ -> Alcotest.fail "kernel must not run") ()
      in
      Alcotest.(check int) "no warps" 0 s.Launch.warps;
      check_float "no time" 0.0 s.Launch.time_us;
      check_float "no flops" 0.0 s.Launch.total.Counter.useful_flops)
    [ Sampling.Exact; Sampling.Sampled ]

let test_sampling_parallel_bit_identical () =
  (* The tentpole determinism guarantee: any domain count produces stats
     bit-identical to the sequential run, in both modes. *)
  let kernel w i =
    let x = Array.make 32 (1.0 +. (float_of_int i /. 7.0)) in
    let y = lanes w (fun dst -> Warp.fma_into w ~dst x x x) in
    Warp.mul_into w ~dst:(Array.make 32 0.0) y x;
    Counter.credit_flops (Warp.counter w) (float_of_int (64 + (i mod 5)))
  in
  let sizes = Array.init 37 (fun i -> 4 + (i mod 9)) in
  List.iter
    (fun mode ->
      let seq = Sampling.run ~prec:Precision.Double ~mode ~sizes ~kernel () in
      List.iter
        (fun domains ->
          let pool = Vblu_par.Pool.create ~num_domains:domains () in
          let par =
            Sampling.run ~pool ~prec:Precision.Double ~mode ~sizes ~kernel ()
          in
          let label s = Printf.sprintf "%s (domains=%d)" s domains in
          Alcotest.(check bool)
            (label "bit-identical time")
            true
            (Float.equal par.Launch.time_us seq.Launch.time_us);
          Alcotest.(check bool)
            (label "bit-identical gflops")
            true
            (Float.equal par.Launch.gflops seq.Launch.gflops);
          Alcotest.(check bool)
            (label "bit-identical txns")
            true
            (Float.equal par.Launch.total.Counter.gmem_transactions
               seq.Launch.total.Counter.gmem_transactions))
        [ 2; 4; 7 ])
    [ Sampling.Exact; Sampling.Sampled ]

let qcheck_sampling =
  [
    QCheck.Test.make ~count:50
      ~name:"Sampled = Exact modelled time on uniform batches"
      QCheck.(pair (int_range 1 32) (int_range 1 200))
      (fun (size, count) ->
        let kernel w _i =
          let a = Array.make 32 1.0 in
          let b = lanes w (fun dst -> Warp.fma_into w ~dst a a a) in
          Warp.add_into w ~dst:(Array.make 32 0.0) a b;
          Counter.credit_flops (Warp.counter w) (float_of_int (2 * size * size))
        in
        let sizes = Array.make count size in
        let run mode =
          Sampling.run ~prec:Precision.Double ~mode ~sizes ~kernel ()
        in
        let e = run Sampling.Exact and s = run Sampling.Sampled in
        Float.equal e.Launch.time_us s.Launch.time_us
        && Float.equal e.Launch.gflops s.Launch.gflops
        && Float.equal e.Launch.total.Counter.gmem_transactions
             s.Launch.total.Counter.gmem_transactions);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "simt"
    [
      ( "warp",
        [
          Alcotest.test_case "lanewise ops" `Quick test_lanewise_ops;
          Alcotest.test_case "predication" `Quick test_predication;
          Alcotest.test_case "single rounding" `Quick
            test_single_precision_rounding;
          Alcotest.test_case "fnma/sqrt" `Quick test_fnma_and_sqrt;
          Alcotest.test_case "scattered replays" `Quick
            test_scattered_load_replays;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "argmax" `Quick test_argmax_abs;
        ] );
      ( "memory",
        [
          Alcotest.test_case "gmem roundtrip" `Quick test_gmem_roundtrip;
          Alcotest.test_case "coalescing" `Quick test_coalescing_counts;
          Alcotest.test_case "inactive lanes" `Quick
            test_inactive_lanes_no_traffic;
          Alcotest.test_case "staging precision" `Quick
            test_gmem_precision_staging;
          Alcotest.test_case "bank conflicts" `Quick test_smem_bank_conflicts;
        ] );
      ( "counters",
        [
          Alcotest.test_case "add/scale" `Quick test_counter_add_scale;
          Alcotest.test_case "scale no ceil" `Quick test_counter_scale_no_ceil;
        ] );
      ( "timing",
        [
          Alcotest.test_case "batch ramp" `Quick test_launch_monotone_in_batch;
          Alcotest.test_case "bandwidth bound" `Quick test_launch_bandwidth_bound;
          Alcotest.test_case "precision ratio" `Quick test_launch_precision_ratio;
          Alcotest.test_case "serial floor" `Quick test_launch_serial_floor;
          Alcotest.test_case "rejects empty" `Quick test_launch_rejects_empty;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "exact = sampled" `Quick
            test_sampling_exact_vs_sampled;
          Alcotest.test_case "representatives" `Quick
            test_sampling_representatives;
          Alcotest.test_case "empty" `Quick test_sampling_empty;
          Alcotest.test_case "parallel bit-identical" `Quick
            test_sampling_parallel_bit_identical;
        ]
        @ qcheck_sampling );
    ]
