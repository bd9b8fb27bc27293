(* Tests for the paper's contribution: batch descriptors, the batched LU /
   TRSV register kernels, the GH / GJE / cuBLAS-model comparison kernels,
   and the extraction kernels — all cross-validated against the CPU
   reference implementations. *)

open Vblu_smallblas
open Vblu_core
open Vblu_sparse
module S = Vblu_simt.Sampling
module L = Vblu_simt.Launch

let check_float = Alcotest.(check (float 1e-12))

let state seed = Random.State.make [| 0xc04e; seed |]

let general_batch seed ~count ~min_size ~max_size =
  let st = state seed in
  let sizes = Batch.random_sizes ~state:st ~count ~min_size ~max_size () in
  Batch.random_general ~state:st sizes

(* ------------------------------------------------------------------ *)
(* Batch                                                               *)

let test_batch_roundtrip () =
  let b = general_batch 1 ~count:10 ~min_size:1 ~max_size:9 in
  let ms = Batch.to_matrices b in
  let b2 = Batch.of_matrices ms in
  check_float "values equal" 0.0
    (Vector.max_abs_diff b.Batch.values b2.Batch.values);
  Alcotest.(check int) "count" 10 (Batch.count b);
  Alcotest.(check bool) "max size" true
    (Array.for_all (fun s -> s <= 9) b.Batch.sizes)

let test_batch_set_matrix () =
  let b = Batch.create [| 3; 4 |] in
  let m = Matrix.identity 4 in
  Batch.set_matrix b 1 m;
  check_float "written" 0.0 (Matrix.max_abs_diff m (Batch.get_matrix b 1));
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Batch.set_matrix: size mismatch") (fun () ->
      Batch.set_matrix b 0 m)

let test_batch_validation () =
  Alcotest.check_raises "non-positive size"
    (Invalid_argument "Batch: non-positive block size") (fun () ->
      ignore (Batch.create [| 3; 0 |]));
  (* An empty batch is a legal value, not an error. *)
  let e = Batch.of_matrices [||] in
  Alcotest.(check int) "empty of_matrices" 0 (Batch.count e);
  Alcotest.(check int) "no values" 0 (Array.length e.Batch.values);
  let v = Batch.vec_of_vectors [||] in
  Alcotest.(check int) "empty vec_of_vectors" 0 v.Batch.vcount

let test_empty_batch_noops () =
  (* Every batched kernel must accept an empty batch and return empty
     results with zeroed stats (satellite: empty batches are defined
     no-ops, not crashes). *)
  let e = Batch.create [||] in
  let zero (s : L.stats) =
    Alcotest.(check int) "no warps" 0 s.L.warps;
    check_float "zero time" 0.0 s.L.time_us;
    check_float "zero gflops" 0.0 s.L.gflops
  in
  let lu = Batched_lu.factor e in
  Alcotest.(check int) "lu factors empty" 0 (Batch.count lu.Batched_lu.factors);
  zero lu.Batched_lu.stats;
  let rhs = Batch.vec_create [||] in
  let tr =
    Batched_trsv.solve ~factors:lu.Batched_lu.factors
      ~pivots:lu.Batched_lu.pivots rhs
  in
  Alcotest.(check int) "trsv solutions empty" 0
    tr.Batched_trsv.solutions.Batch.vcount;
  zero tr.Batched_trsv.stats;
  let gh = Batched_gh.factor e in
  zero gh.Batched_gh.stats;
  let gje = Batched_gje.invert e in
  zero gje.Batched_gje.stats;
  let ch = Batched_cholesky.factor e in
  zero ch.Batched_cholesky.stats;
  let gm = Batched_gemm.multiply ~a:e ~b:e () in
  zero gm.Batched_gemm.stats;
  let cb = Cublas_model.factor e in
  Alcotest.(check int) "cublas factors empty" 0
    (Batch.count cb.Cublas_model.factors);
  zero cb.Cublas_model.stats;
  let cbs = Cublas_model.solve cb rhs in
  zero cbs.Cublas_model.solve_stats

let test_pool_matches_sequential () =
  (* Tentpole determinism check at the kernel API: running a batch through
     a multi-domain pool is bit-identical to the sequential path — same
     factors, pivots, and modelled stats. *)
  let b = general_batch 60 ~count:37 ~min_size:1 ~max_size:32 in
  let pool = Vblu_par.Pool.create ~num_domains:4 () in
  let seq = Batched_lu.factor b in
  let par = Batched_lu.factor ~pool b in
  check_float "factors bitwise equal" 0.0
    (Vector.max_abs_diff seq.Batched_lu.factors.Batch.values
       par.Batched_lu.factors.Batch.values);
  Array.iteri
    (fun i p ->
      Alcotest.(check (array int)) "pivots equal" p par.Batched_lu.pivots.(i))
    seq.Batched_lu.pivots;
  Alcotest.(check bool) "time bit-identical" true
    (Float.equal seq.Batched_lu.stats.L.time_us par.Batched_lu.stats.L.time_us);
  Alcotest.(check bool) "gflops bit-identical" true
    (Float.equal seq.Batched_lu.stats.L.gflops par.Batched_lu.stats.L.gflops);
  (* And in sampled mode, where the pool maps over size classes. *)
  let seq_s = Batched_lu.factor ~mode:S.Sampled b in
  let par_s = Batched_lu.factor ~mode:S.Sampled ~pool b in
  Alcotest.(check bool) "sampled time bit-identical" true
    (Float.equal seq_s.Batched_lu.stats.L.time_us
       par_s.Batched_lu.stats.L.time_us)

let test_vec_batch () =
  let v = Batch.vec_of_vectors [| [| 1.0; 2.0 |]; [| 3.0 |] |] in
  check_float "segment" 3.0 (Batch.vec_get v 1).(0);
  check_float "first segment" 2.0 (Batch.vec_get v 0).(1)

(* ------------------------------------------------------------------ *)
(* Batched LU                                                          *)

let test_batched_lu_matches_reference () =
  let b = general_batch 2 ~count:30 ~min_size:1 ~max_size:32 in
  let r = Batched_lu.factor b in
  Array.iteri
    (fun i m ->
      let f = Lu.factor_implicit m in
      check_float "factors bitwise equal" 0.0
        (Matrix.max_abs_diff f.Lu.lu (Batch.get_matrix r.Batched_lu.factors i));
      Alcotest.(check (array int)) "pivots equal" f.Lu.perm
        r.Batched_lu.pivots.(i))
    (Batch.to_matrices b)

let test_batched_lu_pivot_modes_agree () =
  let b = general_batch 3 ~count:12 ~min_size:2 ~max_size:32 in
  let ri = Batched_lu.factor ~pivoting:Batched_lu.Implicit b in
  let re = Batched_lu.factor ~pivoting:Batched_lu.Explicit b in
  check_float "identical factors" 0.0
    (Vector.max_abs_diff ri.Batched_lu.factors.Batch.values
       re.Batched_lu.factors.Batch.values);
  (* Explicit pivoting costs extra shuffles — visible in the model. *)
  Alcotest.(check bool) "explicit charges more shuffles" true
    (re.Batched_lu.stats.L.total.Vblu_simt.Counter.shfl_instrs
    > ri.Batched_lu.stats.L.total.Vblu_simt.Counter.shfl_instrs)

let test_batched_lu_nopivot_on_diagdom () =
  let st = state 4 in
  let sizes = Batch.random_sizes ~state:st ~count:8 ~min_size:2 ~max_size:16 () in
  let b = Batch.random_diagdom ~state:st sizes in
  let r = Batched_lu.factor ~pivoting:Batched_lu.No_pivoting b in
  Array.iteri
    (fun i m ->
      let f = Lu.factor_nopivot m in
      check_float "factors equal" 0.0
        (Matrix.max_abs_diff f.Lu.lu (Batch.get_matrix r.Batched_lu.factors i)))
    (Batch.to_matrices b)

(* A matrix with column [k] zeroed out.  A zero column is invariant under
   the elimination updates (every update subtracts a multiple of its own
   entry), so pivoted LU runs exactly [k] clean steps and meets an exactly
   zero pivot column at step [k]: info = k + 1, with no rounding hazard. *)
let poison_column m k =
  let n, _ = Matrix.dims m in
  let p = Matrix.copy m in
  for r = 0 to n - 1 do
    Matrix.set p r k 0.0
  done;
  p

let test_batched_lu_singular () =
  (* A singular block no longer aborts the batch (tentpole): the kernel
     completes, flags the dead problem in [info], and leaves the healthy
     one bit-identical to the reference. *)
  let b = Batch.of_matrices [| Matrix.identity 4; Matrix.create 4 4 |] in
  let r = Batched_lu.factor b in
  Alcotest.(check (array int)) "info flags block 1 at step 0" [| 0; 1 |]
    r.Batched_lu.info;
  let healthy = Lu.factor_implicit (Matrix.identity 4) in
  check_float "healthy block bit-identical" 0.0
    (Matrix.max_abs_diff healthy.Lu.lu (Batch.get_matrix r.Batched_lu.factors 0))

let test_batched_lu_breakdown_matches_reference () =
  (* Frozen partial factors, the completed permutation, and the info codes
     must all match the CPU status reference bitwise, in every pivot mode
     (the shared freeze contract). *)
  let st = state 70 in
  let ms =
    Array.init 12 (fun i ->
        let n = 2 + Random.State.int st 31 in
        let m = Matrix.random_general ~state:st n in
        if i mod 2 = 0 then poison_column m (Random.State.int st n) else m)
  in
  let b = Batch.of_matrices ms in
  List.iter
    (fun (pivoting, reference) ->
      let r = Batched_lu.factor ~pivoting b in
      Array.iteri
        (fun i m ->
          let f, inf = reference m in
          Alcotest.(check int) "info equal" inf r.Batched_lu.info.(i);
          check_float "frozen factors bitwise equal" 0.0
            (Matrix.max_abs_diff f.Lu.lu
               (Batch.get_matrix r.Batched_lu.factors i));
          Alcotest.(check (array int)) "permutation equal (and total)" f.Lu.perm
            r.Batched_lu.pivots.(i))
        ms)
    [
      (Batched_lu.Implicit, Lu.factor_implicit_status ?prec:None);
      (Batched_lu.Explicit, Lu.factor_explicit_status ?prec:None);
    ]

let test_batched_lu_breakdown_leaves_others_untouched () =
  (* Poisoning one problem must not change any bit of its batch-mates. *)
  let st = state 71 in
  let ms = Array.init 5 (fun _ -> Matrix.random_general ~state:st 16) in
  let clean = Batched_lu.factor (Batch.of_matrices ms) in
  let poisoned = Array.copy ms in
  poisoned.(2) <- poison_column ms.(2) 7;
  let r = Batched_lu.factor (Batch.of_matrices poisoned) in
  Alcotest.(check (array int)) "only problem 2 flagged" [| 0; 0; 8; 0; 0 |]
    r.Batched_lu.info;
  Array.iteri
    (fun i _ ->
      if i <> 2 then
        check_float "unpoisoned problem bit-identical" 0.0
          (Matrix.max_abs_diff
             (Batch.get_matrix clean.Batched_lu.factors i)
             (Batch.get_matrix r.Batched_lu.factors i)))
    ms

let test_breakdown_bitwise_across_domains () =
  (* Tentpole hard invariant: factors AND info are bit-identical for any
     domain count, poisoned blocks included. *)
  let st = state 72 in
  let ms =
    Array.init 21 (fun i ->
        let n = 1 + Random.State.int st 32 in
        let m = Matrix.random_general ~state:st n in
        if i mod 3 = 0 then poison_column m (Random.State.int st n) else m)
  in
  let b = Batch.of_matrices ms in
  let seq = Batched_lu.factor b in
  List.iter
    (fun n ->
      let pool = Vblu_par.Pool.create ~num_domains:n () in
      let par = Batched_lu.factor ~pool b in
      check_float "factors bitwise equal" 0.0
        (Vector.max_abs_diff seq.Batched_lu.factors.Batch.values
           par.Batched_lu.factors.Batch.values);
      Alcotest.(check (array int)) "info identical" seq.Batched_lu.info
        par.Batched_lu.info)
    [ 1; 2; 4 ]

let test_batched_lu_oversize () =
  Alcotest.(check bool) "rejects > warp" true
    (match Batched_lu.factor (Batch.create [| 33 |]) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_batched_lu_single_precision () =
  let b = general_batch 5 ~count:6 ~min_size:4 ~max_size:24 in
  let r = Batched_lu.factor ~prec:Precision.Single b in
  Array.iteri
    (fun i m ->
      (* The kernel stages the input into single-precision device memory;
         the CPU reference must see the same rounded data. *)
      let rows, cols = Matrix.dims m in
      let staged =
        Matrix.init rows cols (fun r c ->
            Precision.round Precision.Single (Matrix.unsafe_get m r c))
      in
      let f = Lu.factor_implicit ~prec:Precision.Single staged in
      check_float "single-precision factors bitwise equal" 0.0
        (Matrix.max_abs_diff f.Lu.lu (Batch.get_matrix r.Batched_lu.factors i)))
    (Batch.to_matrices b)

let test_batched_lu_sampled_stats () =
  (* Uniform batch: sampled counters = exact counters. *)
  let st = state 6 in
  let sizes = Batch.uniform_sizes ~count:64 ~size:16 in
  let b = Batch.create sizes in
  let m = Matrix.random_diagdom ~state:st 16 in
  for i = 0 to 63 do
    Batch.set_matrix b i m
  done;
  let e = Batched_lu.factor ~mode:S.Exact b in
  let s = Batched_lu.factor ~mode:S.Sampled b in
  check_float "same modelled time" e.Batched_lu.stats.L.time_us
    s.Batched_lu.stats.L.time_us

(* ------------------------------------------------------------------ *)
(* Batched TRSV                                                        *)

let test_batched_trsv_solves () =
  let b = general_batch 7 ~count:25 ~min_size:1 ~max_size:32 in
  let rhs = Batch.vec_random ~state:(state 8) b.Batch.sizes in
  let f = Batched_lu.factor b in
  List.iter
    (fun variant ->
      let s =
        Batched_trsv.solve ~variant ~factors:f.Batched_lu.factors
          ~pivots:f.Batched_lu.pivots rhs
      in
      Array.iteri
        (fun i m ->
          let x = Batch.vec_get s.Batched_trsv.solutions i in
          Alcotest.(check bool) "residual" true
            (Diagnostics.solve_residual m x (Batch.vec_get rhs i) < 1e-11))
        (Batch.to_matrices b))
    [ Batched_trsv.Eager; Batched_trsv.Lazy ]

let test_batched_trsv_matches_getrs () =
  let b = general_batch 9 ~count:10 ~min_size:2 ~max_size:32 in
  let rhs = Batch.vec_random ~state:(state 10) b.Batch.sizes in
  let f = Batched_lu.factor b in
  let s =
    Batched_trsv.solve ~factors:f.Batched_lu.factors ~pivots:f.Batched_lu.pivots
      rhs
  in
  Array.iteri
    (fun i m ->
      let x_ref = Lu.solve (Lu.factor_implicit m) (Batch.vec_get rhs i) in
      check_float "bitwise equal to CPU GETRS" 0.0
        (Vector.max_abs_diff x_ref (Batch.vec_get s.Batched_trsv.solutions i)))
    (Batch.to_matrices b)

let test_batched_trsv_shape_checks () =
  let b = general_batch 11 ~count:3 ~min_size:4 ~max_size:4 in
  let f = Batched_lu.factor b in
  let bad_rhs = Batch.vec_create [| 4; 4 |] in
  Alcotest.check_raises "count mismatch"
    (Invalid_argument "Batched_trsv.solve: batch count mismatch") (fun () ->
      ignore
        (Batched_trsv.solve ~factors:f.Batched_lu.factors
           ~pivots:f.Batched_lu.pivots bad_rhs));
  (* Satellite: a pivots array of the wrong length is rejected up front
     with a descriptive message, not an out-of-bounds crash mid-kernel. *)
  let rhs = Batch.vec_create b.Batch.sizes in
  let short = Array.sub f.Batched_lu.pivots 0 2 in
  Alcotest.check_raises "pivots length (trsv)"
    (Invalid_argument
       "Batched_trsv.solve: pivots array has 2 entries for 3 blocks")
    (fun () ->
      ignore
        (Batched_trsv.solve ~factors:f.Batched_lu.factors ~pivots:short rhs));
  Alcotest.check_raises "pivots length (trsm)"
    (Invalid_argument
       "Batched_trsm.solve: pivots array has 2 entries for 3 blocks")
    (fun () ->
      ignore
        (Batched_trsm.solve ~factors:f.Batched_lu.factors ~pivots:short
           [| rhs |]))

let test_batched_trsv_singular_diag_info () =
  (* A frozen factorization (all-zero block) pushed through the solve is
     flagged, not raised: the upper sweep meets the zero diagonal at its
     first step (k = 3 for a 4x4, info = 4), in both variants. *)
  let b = Batch.of_matrices [| Matrix.identity 4; Matrix.create 4 4 |] in
  let f = Batched_lu.factor b in
  let rhs = Batch.vec_random ~state:(state 73) b.Batch.sizes in
  List.iter
    (fun variant ->
      let s =
        Batched_trsv.solve ~variant ~factors:f.Batched_lu.factors
          ~pivots:f.Batched_lu.pivots rhs
      in
      Alcotest.(check (array int)) "solve info" [| 0; 4 |]
        s.Batched_trsv.info)
    [ Batched_trsv.Eager; Batched_trsv.Lazy ]

let test_batched_trsv_gmem_elems_parity () =
  (* Satellite: eager and lazy touch the same logical data — s^2 matrix
     elements plus the rhs loads/stores — so the element counters must
     agree exactly now that the lazy variant charges its diagonal reads.
     (Transaction counts still differ: rows vs columns.) *)
  let b = general_batch 74 ~count:9 ~min_size:1 ~max_size:32 in
  let f = Batched_lu.factor b in
  let rhs = Batch.vec_random ~state:(state 75) b.Batch.sizes in
  let elems variant =
    let s =
      Batched_trsv.solve ~variant ~factors:f.Batched_lu.factors
        ~pivots:f.Batched_lu.pivots rhs
    in
    s.Batched_trsv.stats.L.total.Vblu_simt.Counter.gmem_elems
  in
  Alcotest.(check (float 0.0)) "same gmem elements" (elems Batched_trsv.Eager)
    (elems Batched_trsv.Lazy)

let test_batched_trsv_eager_coalesced_vs_lazy () =
  (* The eager kernel reads columns (coalesced); the lazy one reads rows —
     it must cost more memory issue slots at size 32. *)
  let st = state 12 in
  let sizes = Batch.uniform_sizes ~count:100 ~size:32 in
  let b = Batch.create sizes in
  Batch.set_matrix b 0 (Matrix.random_diagdom ~state:st 32);
  let f = Batched_lu.factor ~mode:S.Sampled b in
  let rhs = Batch.vec_random ~state:st sizes in
  let run variant =
    (Batched_trsv.solve ~mode:S.Sampled ~variant ~factors:f.Batched_lu.factors
       ~pivots:f.Batched_lu.pivots rhs)
      .Batched_trsv.stats
  in
  let eager = run Batched_trsv.Eager and lazy_ = run Batched_trsv.Lazy in
  Alcotest.(check bool) "lazy slower" true (lazy_.L.time_us > eager.L.time_us)

(* ------------------------------------------------------------------ *)
(* Batched TRSM (multiple right-hand sides)                            *)

let test_batched_trsm_matches_trsv () =
  let b = general_batch 40 ~count:8 ~min_size:2 ~max_size:32 in
  let f = Batched_lu.factor b in
  let sets =
    Array.init 3 (fun r -> Batch.vec_random ~state:(state (41 + r)) b.Batch.sizes)
  in
  let multi =
    Batched_trsm.solve ~factors:f.Batched_lu.factors ~pivots:f.Batched_lu.pivots
      sets
  in
  Array.iteri
    (fun r rhs ->
      let single =
        Batched_trsv.solve ~factors:f.Batched_lu.factors
          ~pivots:f.Batched_lu.pivots rhs
      in
      check_float "bitwise equal to single-rhs solve" 0.0
        (Vector.max_abs_diff
           multi.Batched_trsm.solutions.(r).Batch.vvalues
           single.Batched_trsv.solutions.Batch.vvalues))
    sets

let test_batched_trsm_amortizes_matrix_reads () =
  (* Factor traffic is paid once for all right-hand sides: 4 rhs must cost
     far less than 4x one rhs. *)
  let st = state 42 in
  let sizes = Batch.uniform_sizes ~count:1000 ~size:32 in
  let b = Batch.create sizes in
  for i = 0 to 999 do
    Batch.set_matrix b i (Matrix.random_diagdom ~state:st 32)
  done;
  let f = Batched_lu.factor b in
  let one = [| Batch.vec_random ~state:st sizes |] in
  let four = Array.init 4 (fun _ -> Batch.vec_random ~state:st sizes) in
  let run sets =
    (Batched_trsm.solve ~factors:f.Batched_lu.factors
       ~pivots:f.Batched_lu.pivots sets)
      .Batched_trsm.stats
  in
  let t1 = (run one).L.time_us and t4 = (run four).L.time_us in
  Alcotest.(check bool)
    (Printf.sprintf "4 rhs in %.2fx of 1 rhs" (t4 /. t1))
    true
    (t4 < 3.0 *. t1);
  Alcotest.(check bool) "still more than 1 rhs" true (t4 > t1)

let test_batched_trsm_validation () =
  let b = general_batch 43 ~count:2 ~min_size:4 ~max_size:4 in
  let f = Batched_lu.factor b in
  Alcotest.(check bool) "empty sets rejected" true
    (match
       Batched_trsm.solve ~factors:f.Batched_lu.factors
         ~pivots:f.Batched_lu.pivots [||]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Batched GH / GJE                                                    *)

let test_batched_gh_solves () =
  let b = general_batch 13 ~count:15 ~min_size:1 ~max_size:32 in
  let rhs = Batch.vec_random ~state:(state 14) b.Batch.sizes in
  List.iter
    (fun storage ->
      let f = Batched_gh.factor ~storage b in
      let s = Batched_gh.solve f rhs in
      Array.iteri
        (fun i m ->
          Alcotest.(check bool) "residual" true
            (Diagnostics.solve_residual m
               (Batch.vec_get s.Batched_gh.solutions i)
               (Batch.vec_get rhs i)
            < 1e-11))
        (Batch.to_matrices b))
    [ Gauss_huard.Normal; Gauss_huard.Transposed ]

let test_batched_gh_lazy_cost_advantage () =
  (* At small sizes GH executes fewer slots than the padded eager LU —
     the Figure 5 crossover mechanism. *)
  let size = 8 and count = 1000 in
  let st = state 15 in
  let b = Batch.create (Batch.uniform_sizes ~count ~size) in
  Batch.set_matrix b 0 (Matrix.random_diagdom ~state:st size);
  let lu = Batched_lu.factor ~mode:S.Sampled b in
  let gh = Batched_gh.factor ~mode:S.Sampled b in
  Alcotest.(check bool) "GH faster at size 8" true
    (gh.Batched_gh.stats.L.time_us < lu.Batched_lu.stats.L.time_us);
  (* And at 32 the register LU wins. *)
  let b32 = Batch.create (Batch.uniform_sizes ~count ~size:32) in
  Batch.set_matrix b32 0 (Matrix.random_diagdom ~state:st 32);
  let lu32 = Batched_lu.factor ~mode:S.Sampled b32 in
  let gh32 = Batched_gh.factor ~mode:S.Sampled b32 in
  Alcotest.(check bool) "LU faster at size 32" true
    (lu32.Batched_lu.stats.L.time_us < gh32.Batched_gh.stats.L.time_us)

let test_batched_gje_inverts () =
  let b = general_batch 16 ~count:10 ~min_size:1 ~max_size:24 in
  let r = Batched_gje.invert b in
  Array.iteri
    (fun i m ->
      let n, _ = Matrix.dims m in
      Alcotest.(check bool) "inverse" true
        (Matrix.max_abs_diff
           (Matrix.matmul m r.Batched_gje.inverses.(i))
           (Matrix.identity n)
        < 1e-9))
    (Batch.to_matrices b);
  let rhs = Batch.vec_random ~state:(state 17) b.Batch.sizes in
  let a = Batched_gje.apply r rhs in
  Array.iteri
    (fun i m ->
      Alcotest.(check bool) "apply residual" true
        (Diagnostics.solve_residual m
           (Batch.vec_get a.Batched_gje.products i)
           (Batch.vec_get rhs i)
        < 1e-9))
    (Batch.to_matrices b)

let test_gje_setup_costlier_apply_cheaper () =
  let size = 24 and count = 2000 in
  let st = state 18 in
  let b = Batch.create (Batch.uniform_sizes ~count ~size) in
  for i = 0 to count - 1 do
    Batch.set_matrix b i (Matrix.random_diagdom ~state:st size)
  done;
  let rhs = Batch.vec_random ~state:st b.Batch.sizes in
  let lu = Batched_lu.factor b in
  let gje = Batched_gje.invert b in
  Alcotest.(check bool) "inversion setup costs more" true
    (gje.Batched_gje.stats.L.time_us > lu.Batched_lu.stats.L.time_us);
  let trsv =
    Batched_trsv.solve ~factors:lu.Batched_lu.factors
      ~pivots:lu.Batched_lu.pivots rhs
  in
  let gemv = Batched_gje.apply gje rhs in
  Alcotest.(check bool) "gemv apply at least as fast" true
    (gemv.Batched_gje.apply_stats.L.time_us
    <= trsv.Batched_trsv.stats.L.time_us *. 1.05)

(* ------------------------------------------------------------------ *)
(* Batched GEMM                                                        *)

let test_batched_gemm_matches_matmul () =
  let a = general_batch 50 ~count:10 ~min_size:1 ~max_size:32 in
  (* A conformable second batch with a's sizes. *)
  let st = state 52 in
  let b =
    Batch.of_matrices
      (Array.map (fun s -> Matrix.random_general ~state:st s) a.Batch.sizes)
  in
  let r = Batched_gemm.multiply ~a ~b () in
  Array.iteri
    (fun i ma ->
      let expect = Matrix.matmul ma (Batch.get_matrix b i) in
      Alcotest.(check bool) "product matches" true
        (Matrix.max_abs_diff expect (Batch.get_matrix r.Batched_gemm.products i)
        < 1e-12))
    (Batch.to_matrices a)

let test_batched_gemm_alpha_beta () =
  let st = state 53 in
  let sizes = [| 5; 9 |] in
  let mk () =
    Batch.of_matrices (Array.map (fun s -> Matrix.random_general ~state:st s) sizes)
  in
  let a = mk () and b = mk () and c = mk () in
  let r = Batched_gemm.multiply ~alpha:2.0 ~beta:(-0.5) ~a ~b ~c () in
  Array.iteri
    (fun i ma ->
      let ab = Matrix.matmul ma (Batch.get_matrix b i) in
      let expect =
        Matrix.add (Matrix.scale 2.0 ab) (Matrix.scale (-0.5) (Batch.get_matrix c i))
      in
      Alcotest.(check bool) "alpha/beta" true
        (Matrix.max_abs_diff expect (Batch.get_matrix r.Batched_gemm.products i)
        < 1e-11))
    (Batch.to_matrices a)

let test_batched_gemm_validation () =
  let a = Batch.create [| 4 |] and b = Batch.create [| 5 |] in
  Alcotest.(check bool) "size mismatch" true
    (match Batched_gemm.multiply ~a ~b () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Batched Cholesky (future-work kernel)                               *)

let spd_batch seed ~count ~max_size =
  let st = state seed in
  Batch.of_matrices
    (Array.init count (fun _ ->
         let n = 1 + Random.State.int st max_size in
         let b = Matrix.random ~state:st n n in
         let a = Matrix.matmul b (Matrix.transpose b) in
         Matrix.init n n (fun i j ->
             Matrix.get a i j +. if i = j then float_of_int n else 0.0)))

let test_batched_cholesky_matches_reference () =
  let b = spd_batch 30 ~count:15 ~max_size:32 in
  let r = Batched_cholesky.factor b in
  Array.iteri
    (fun i m ->
      let f = Cholesky.factor m in
      check_float "factors bitwise equal" 0.0
        (Matrix.max_abs_diff f.Cholesky.l
           (Batch.get_matrix r.Batched_cholesky.factors i)))
    (Batch.to_matrices b)

let test_batched_cholesky_solve () =
  let b = spd_batch 31 ~count:12 ~max_size:32 in
  let rhs = Batch.vec_random ~state:(state 32) b.Batch.sizes in
  let r = Batched_cholesky.factor b in
  let s = Batched_cholesky.solve ~factors:r.Batched_cholesky.factors rhs in
  Array.iteri
    (fun i m ->
      Alcotest.(check bool) "residual" true
        (Diagnostics.solve_residual m
           (Batch.vec_get s.Batched_trsv.solutions i)
           (Batch.vec_get rhs i)
        < 1e-11))
    (Batch.to_matrices b)

let test_batched_cholesky_not_spd () =
  (* An indefinite block is flagged in [info] (step 1 fails the positivity
     test: d = 1 - 4 < 0), never raised, and the healthy block matches the
     reference bitwise. *)
  let bad = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  let b = Batch.of_matrices [| Matrix.identity 3; bad |] in
  let r = Batched_cholesky.factor b in
  Alcotest.(check (array int)) "info reports block and step" [| 0; 2 |]
    r.Batched_cholesky.info;
  let healthy = Cholesky.factor (Matrix.identity 3) in
  check_float "healthy block bit-identical" 0.0
    (Matrix.max_abs_diff healthy.Cholesky.l
       (Batch.get_matrix r.Batched_cholesky.factors 0));
  (* The frozen partial factor matches the CPU status reference. *)
  let fref, inf = Cholesky.factor_status bad in
  Alcotest.(check int) "reference agrees" inf r.Batched_cholesky.info.(1);
  check_float "frozen factor bitwise equal" 0.0
    (Matrix.max_abs_diff fref.Cholesky.l
       (Batch.get_matrix r.Batched_cholesky.factors 1))

let test_batched_cholesky_cheaper_than_lu () =
  (* Half the factorization work: visibly faster in the model at 32. *)
  let count = 5000 and size = 32 in
  let sizes = Batch.uniform_sizes ~count ~size in
  let b = Batch.create sizes in
  let rep = Batch.get_matrix (spd_batch 33 ~count:1 ~max_size:1) 0 in
  ignore rep;
  let st = state 34 in
  let r = Matrix.random ~state:st size size in
  let spd = Matrix.matmul r (Matrix.transpose r) in
  let spd =
    Matrix.init size size (fun i j ->
        Matrix.get spd i j +. if i = j then 32.0 else 0.0)
  in
  Batch.set_matrix b 0 spd;
  let lu = Batched_lu.factor ~mode:S.Sampled b in
  let ch = Batched_cholesky.factor ~mode:S.Sampled b in
  Alcotest.(check bool) "cholesky faster" true
    (ch.Batched_cholesky.stats.L.time_us < lu.Batched_lu.stats.L.time_us)

(* ------------------------------------------------------------------ *)
(* cuBLAS model                                                        *)

let test_cublas_numerics () =
  let st = state 19 in
  let b =
    Batch.of_matrices (Array.init 8 (fun _ -> Matrix.random_general ~state:st 17))
  in
  let rhs = Batch.vec_random ~state:st b.Batch.sizes in
  let f = Cublas_model.factor b in
  let s = Cublas_model.solve f rhs in
  Array.iteri
    (fun i m ->
      Alcotest.(check bool) "residual" true
        (Diagnostics.solve_residual m
           (Batch.vec_get s.Cublas_model.solutions i)
           (Batch.vec_get rhs i)
        < 1e-11))
    (Batch.to_matrices b)

let test_cublas_info () =
  (* The vendor model reports per-problem info like the real getrfBatched:
     a singular block is flagged, the batch completes. *)
  let b = Batch.of_matrices [| Matrix.identity 4; Matrix.create 4 4 |] in
  let f = Cublas_model.factor b in
  Alcotest.(check (array int)) "factor info" [| 0; 1 |] f.Cublas_model.info;
  let rhs = Batch.vec_random ~state:(state 76) b.Batch.sizes in
  let s = Cublas_model.solve f rhs in
  Alcotest.(check int) "healthy solve ok" 0 s.Cublas_model.solve_info.(0);
  Alcotest.(check bool) "degenerate solve flagged" true
    (s.Cublas_model.solve_info.(1) > 0)

let test_cublas_rejects_variable_sizes () =
  let b = general_batch 20 ~count:4 ~min_size:3 ~max_size:12 in
  Alcotest.(check bool) "variable sizes rejected" true
    (match Cublas_model.factor b with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cublas_slower_than_small_lu () =
  let size = 32 and count = 5000 in
  let st = state 21 in
  let b = Batch.create (Batch.uniform_sizes ~count ~size) in
  Batch.set_matrix b 0 (Matrix.random_diagdom ~state:st size);
  let lu = Batched_lu.factor ~mode:S.Sampled b in
  let cb = Cublas_model.factor ~mode:S.Sampled b in
  let ratio = cb.Cublas_model.stats.L.time_us /. lu.Batched_lu.stats.L.time_us in
  Alcotest.(check bool)
    (Printf.sprintf "cuBLAS ~3.5x slower at 32 (got %.1fx)" ratio)
    true
    (ratio > 2.0 && ratio < 6.0)

let test_cublas_tile_cliff () =
  (* Crossing a tile boundary (16 -> 17) costs a throughput cliff. *)
  let st = state 22 in
  let gf size =
    let b = Batch.create (Batch.uniform_sizes ~count:5000 ~size) in
    Batch.set_matrix b 0 (Matrix.random_diagdom ~state:st size);
    (Cublas_model.factor ~mode:S.Sampled b).Cublas_model.stats.L.gflops
  in
  Alcotest.(check bool) "cliff at 17" true (gf 17 < gf 16)

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)

let test_extraction_matches_reference () =
  let a =
    Vblu_workloads.Generators.circuit_like
      ~state:(Random.State.make [| 101 |])
      ~n:256 ~hubs:3 ~hub_degree:50 ()
  in
  let starts = [| 0; 16; 48; 80; 200 |] in
  let sizes = [| 16; 32; 8; 24; 13 |] in
  List.iter
    (fun strategy ->
      let r = Extraction.extract ~strategy a ~block_starts:starts ~block_sizes:sizes in
      Array.iteri
        (fun i st ->
          let expect = Csr.extract_block a ~row_start:st ~size:sizes.(i) in
          check_float "block equal" 0.0
            (Matrix.max_abs_diff expect (Batch.get_matrix r.Extraction.blocks i)))
        starts)
    [ Extraction.Row_per_thread; Extraction.Shared_memory ]

let test_extraction_validation () =
  let a = Vblu_workloads.Generators.laplacian_2d ~nx:8 ~ny:8 () in
  let bad msg starts sizes =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Extraction.extract a ~block_starts:starts ~block_sizes:sizes))
  in
  bad "Extraction: block size out of range" [| 0 |] [| 33 |];
  bad "Extraction: blocks must be disjoint and sorted" [| 0; 4 |] [| 8; 8 |];
  bad "Extraction: block exceeds matrix" [| 60 |] [| 8 |]

let test_extraction_shared_wins_on_imbalance () =
  let a =
    Vblu_workloads.Generators.circuit_like
      ~state:(Random.State.make [| 102 |])
      ~n:512 ~hubs:8 ~hub_degree:200 ()
  in
  let blk = Array.init 16 (fun i -> i * 32) in
  let sizes = Array.make 16 32 in
  let run strategy =
    (Extraction.extract ~strategy a ~block_starts:blk ~block_sizes:sizes)
      .Extraction.stats
  in
  Alcotest.(check bool) "shared-memory strategy faster" true
    ((run Extraction.Shared_memory).L.time_us
    < (run Extraction.Row_per_thread).L.time_us)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let qcheck_tests =
  let gen = QCheck.(pair (int_bound 10_000) (int_range 1 32)) in
  [
    QCheck.Test.make ~count:40 ~name:"batched lu ≡ cpu reference" gen
      (fun (seed, n) ->
        let st = state seed in
        let b = Batch.of_matrices [| Matrix.random_general ~state:st n |] in
        let r = Batched_lu.factor b in
        let f = Lu.factor_implicit (Batch.get_matrix b 0) in
        Matrix.max_abs_diff f.Lu.lu (Batch.get_matrix r.Batched_lu.factors 0)
        = 0.0);
    QCheck.Test.make ~count:40 ~name:"factor+solve round trip" gen
      (fun (seed, n) ->
        let st = state seed in
        let b = Batch.of_matrices [| Matrix.random_general ~state:st n |] in
        let rhs = Batch.vec_random ~state:st b.Batch.sizes in
        let f = Batched_lu.factor b in
        let s =
          Batched_trsv.solve ~factors:f.Batched_lu.factors
            ~pivots:f.Batched_lu.pivots rhs
        in
        Diagnostics.solve_residual (Batch.get_matrix b 0)
          (Batch.vec_get s.Batched_trsv.solutions 0)
          (Batch.vec_get rhs 0)
        < 1e-10);
    QCheck.Test.make ~count:30 ~name:"trsm(nrhs) ≡ nrhs independent trsv"
      (QCheck.pair (QCheck.int_bound 10_000) (QCheck.int_range 1 32))
      (fun (seed, n) ->
        let st = state seed in
        let b = Batch.of_matrices [| Matrix.random_general ~state:st n |] in
        let f = Batched_lu.factor b in
        let sets = Array.init 2 (fun _ -> Batch.vec_random ~state:st b.Batch.sizes) in
        let multi =
          Batched_trsm.solve ~factors:f.Batched_lu.factors
            ~pivots:f.Batched_lu.pivots sets
        in
        Array.for_all
          (fun r ->
            let single =
              Batched_trsv.solve ~factors:f.Batched_lu.factors
                ~pivots:f.Batched_lu.pivots sets.(r)
            in
            Vector.max_abs_diff
              (Batch.vec_get multi.Batched_trsm.solutions.(r) 0)
              (Batch.vec_get single.Batched_trsv.solutions 0)
            = 0.0)
          [| 0; 1 |]);
    QCheck.Test.make ~count:30 ~name:"gemm identity is identity"
      (QCheck.pair (QCheck.int_bound 10_000) (QCheck.int_range 1 32))
      (fun (seed, n) ->
        let st = state seed in
        let a = Batch.of_matrices [| Matrix.random_general ~state:st n |] in
        let id = Batch.of_matrices [| Matrix.identity n |] in
        let r = Batched_gemm.multiply ~a ~b:id () in
        Matrix.max_abs_diff (Batch.get_matrix a 0)
          (Batch.get_matrix r.Batched_gemm.products 0)
        = 0.0);
    QCheck.Test.make ~count:30 ~name:"cholesky solve ≡ lu solve on spd"
      (QCheck.pair (QCheck.int_bound 10_000) (QCheck.int_range 1 32))
      (fun (seed, n) ->
        let st = state seed in
        let r = Matrix.random ~state:st n n in
        let p = Matrix.matmul r (Matrix.transpose r) in
        let spd =
          Matrix.init n n (fun i j ->
              Matrix.get p i j +. if i = j then float_of_int n else 0.0)
        in
        let rhs = Vector.random ~state:st n in
        let x1 = Cholesky.solve (Cholesky.factor spd) rhs in
        let x2 = Lu.solve (Lu.factor_implicit spd) rhs in
        Vector.max_abs_diff x1 x2 /. (1.0 +. Vector.norm_inf x2) < 1e-9);
    QCheck.Test.make ~count:40 ~name:"poisoned column k ⇒ info = k + 1"
      (QCheck.triple (QCheck.int_bound 10_000) (QCheck.int_range 1 32)
         (QCheck.int_bound 31))
      (fun (seed, n, k) ->
        let k = k mod n in
        let st = state seed in
        let ms = Array.init 3 (fun _ -> Matrix.random_general ~state:st n) in
        let clean = Batched_lu.factor (Batch.of_matrices ms) in
        let poisoned = Array.copy ms in
        poisoned.(1) <- poison_column ms.(1) k;
        let r = Batched_lu.factor (Batch.of_matrices poisoned) in
        (* Exactly the poisoned problem is flagged, at exactly step k, and
           the batch-mates are untouched down to the last bit. *)
        r.Batched_lu.info = [| 0; k + 1; 0 |]
        && Matrix.max_abs_diff
             (Batch.get_matrix clean.Batched_lu.factors 0)
             (Batch.get_matrix r.Batched_lu.factors 0)
           = 0.0
        && Matrix.max_abs_diff
             (Batch.get_matrix clean.Batched_lu.factors 2)
             (Batch.get_matrix r.Batched_lu.factors 2)
           = 0.0);
    QCheck.Test.make ~count:40 ~name:"extraction = dense gather"
      (QCheck.pair (QCheck.int_bound 10_000) (QCheck.int_range 1 16))
      (fun (seed, bs) ->
        let st = state seed in
        let n = 4 * bs in
        let dense =
          Matrix.init n n (fun i j ->
              if Random.State.float st 1.0 < 0.25 || i = j then
                1.0 +. Random.State.float st 1.0
              else 0.0)
        in
        let a = Csr.of_dense dense in
        let starts = Array.init 4 (fun i -> i * bs) in
        let sizes = Array.make 4 bs in
        let r =
          Extraction.extract ~strategy:Extraction.Shared_memory a
            ~block_starts:starts ~block_sizes:sizes
        in
        Array.for_all
          (fun i ->
            Matrix.max_abs_diff
              (Csr.extract_block a ~row_start:starts.(i) ~size:bs)
              (Batch.get_matrix r.Extraction.blocks i)
            = 0.0)
          (Array.init 4 (fun i -> i)));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "core"
    [
      ( "batch",
        [
          Alcotest.test_case "roundtrip" `Quick test_batch_roundtrip;
          Alcotest.test_case "set matrix" `Quick test_batch_set_matrix;
          Alcotest.test_case "validation" `Quick test_batch_validation;
          Alcotest.test_case "vector batches" `Quick test_vec_batch;
          Alcotest.test_case "empty batches are no-ops" `Quick
            test_empty_batch_noops;
          Alcotest.test_case "pool = sequential" `Quick
            test_pool_matches_sequential;
        ] );
      ( "batched-lu",
        [
          Alcotest.test_case "matches reference" `Quick
            test_batched_lu_matches_reference;
          Alcotest.test_case "pivot modes agree" `Quick
            test_batched_lu_pivot_modes_agree;
          Alcotest.test_case "nopivot" `Quick test_batched_lu_nopivot_on_diagdom;
          Alcotest.test_case "singular" `Quick test_batched_lu_singular;
          Alcotest.test_case "breakdown matches reference" `Quick
            test_batched_lu_breakdown_matches_reference;
          Alcotest.test_case "breakdown leaves others untouched" `Quick
            test_batched_lu_breakdown_leaves_others_untouched;
          Alcotest.test_case "breakdown bitwise across domains" `Quick
            test_breakdown_bitwise_across_domains;
          Alcotest.test_case "oversize" `Quick test_batched_lu_oversize;
          Alcotest.test_case "single precision" `Quick
            test_batched_lu_single_precision;
          Alcotest.test_case "sampled stats" `Quick test_batched_lu_sampled_stats;
        ] );
      ( "batched-trsv",
        [
          Alcotest.test_case "solves" `Quick test_batched_trsv_solves;
          Alcotest.test_case "matches getrs" `Quick
            test_batched_trsv_matches_getrs;
          Alcotest.test_case "shape checks" `Quick test_batched_trsv_shape_checks;
          Alcotest.test_case "singular diagonal info" `Quick
            test_batched_trsv_singular_diag_info;
          Alcotest.test_case "eager/lazy element parity" `Quick
            test_batched_trsv_gmem_elems_parity;
          Alcotest.test_case "eager vs lazy cost" `Quick
            test_batched_trsv_eager_coalesced_vs_lazy;
        ] );
      ( "batched-trsm",
        [
          Alcotest.test_case "matches trsv" `Quick test_batched_trsm_matches_trsv;
          Alcotest.test_case "amortizes reads" `Quick
            test_batched_trsm_amortizes_matrix_reads;
          Alcotest.test_case "validation" `Quick test_batched_trsm_validation;
        ] );
      ( "batched-gh",
        [
          Alcotest.test_case "solves" `Quick test_batched_gh_solves;
          Alcotest.test_case "lazy advantage" `Quick
            test_batched_gh_lazy_cost_advantage;
        ] );
      ( "batched-gje",
        [
          Alcotest.test_case "inverts" `Quick test_batched_gje_inverts;
          Alcotest.test_case "setup/apply trade-off" `Quick
            test_gje_setup_costlier_apply_cheaper;
        ] );
      ( "batched-gemm",
        [
          Alcotest.test_case "matches matmul" `Quick
            test_batched_gemm_matches_matmul;
          Alcotest.test_case "alpha/beta" `Quick test_batched_gemm_alpha_beta;
          Alcotest.test_case "validation" `Quick test_batched_gemm_validation;
        ] );
      ( "batched-cholesky",
        [
          Alcotest.test_case "matches reference" `Quick
            test_batched_cholesky_matches_reference;
          Alcotest.test_case "solve" `Quick test_batched_cholesky_solve;
          Alcotest.test_case "not spd" `Quick test_batched_cholesky_not_spd;
          Alcotest.test_case "cheaper than lu" `Quick
            test_batched_cholesky_cheaper_than_lu;
        ] );
      ( "cublas-model",
        [
          Alcotest.test_case "numerics" `Quick test_cublas_numerics;
          Alcotest.test_case "per-problem info" `Quick test_cublas_info;
          Alcotest.test_case "fixed size only" `Quick
            test_cublas_rejects_variable_sizes;
          Alcotest.test_case "slower than small-LU" `Quick
            test_cublas_slower_than_small_lu;
          Alcotest.test_case "tile cliff" `Quick test_cublas_tile_cliff;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "matches reference" `Quick
            test_extraction_matches_reference;
          Alcotest.test_case "validation" `Quick test_extraction_validation;
          Alcotest.test_case "shared wins on imbalance" `Quick
            test_extraction_shared_wins_on_imbalance;
        ] );
      ("properties", qcheck_tests);
    ]
