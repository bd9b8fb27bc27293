(* Unit and property tests for the dense small-matrix substrate. *)

open Vblu_smallblas

let check_float = Alcotest.(check (float 1e-12))

let matrix_of_seed ?(kind = `General) seed n =
  let st = Random.State.make [| 0xabc; seed |] in
  match kind with
  | `General -> Matrix.random_general ~state:st n
  | `Diagdom -> Matrix.random_diagdom ~state:st n

let vector_of_seed seed n =
  Vector.random ~state:(Random.State.make [| 0xdef; seed |]) n

(* ------------------------------------------------------------------ *)
(* Precision                                                           *)

let test_precision_round () =
  check_float "double is identity" 0.1 (Precision.round Precision.Double 0.1);
  let s = Precision.round Precision.Single 0.1 in
  Alcotest.(check bool) "single 0.1 is rounded" true (s <> 0.1);
  check_float "single round-trip is stable" s (Precision.round Precision.Single s);
  check_float "exact small ints survive single" 42.0
    (Precision.round Precision.Single 42.0)

let test_precision_eps () =
  check_float "double eps" epsilon_float (2.0 *. Precision.eps Precision.Double);
  (* 1 + eps is representable, 1 + eps/2 rounds back to 1. *)
  let eps_s = Precision.eps Precision.Single in
  Alcotest.(check bool) "single eps separates" true
    (Precision.add Precision.Single 1.0 (2.0 *. eps_s) > 1.0);
  check_float "half eps collapses" 1.0
    (Precision.add Precision.Single 1.0 (eps_s /. 2.0))

let test_precision_fma () =
  (* fma in double is a single rounding of the exact product-sum here. *)
  check_float "fma double" 7.0 (Precision.fma Precision.Double 2.0 3.0 1.0);
  Alcotest.(check string) "names" "single" (Precision.to_string Precision.Single)

(* ------------------------------------------------------------------ *)
(* Vector                                                              *)

let test_vector_ops () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 4.0; -5.0; 6.0 |] in
  check_float "dot" 12.0 (Vector.dot x y);
  check_float "nrm2" (sqrt 14.0) (Vector.nrm2 x);
  check_float "norm_inf" 6.0 (Vector.norm_inf y);
  let z = Vector.copy y in
  Vector.axpy 2.0 x z;
  check_float "axpy" 6.0 z.(0);
  Vector.scal 0.5 z;
  check_float "scal" 3.0 z.(0);
  check_float "add" 5.0 (Vector.add x y).(0);
  check_float "sub" (-3.0) (Vector.sub x y).(0);
  check_float "max_abs_diff" 7.0 (Vector.max_abs_diff x y)

let test_vector_errors () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vector.dot: dimension mismatch") (fun () ->
      ignore (Vector.dot [| 1.0 |] [| 1.0; 2.0 |]));
  Alcotest.check_raises "blit mismatch"
    (Invalid_argument "Vector.blit: dimension mismatch") (fun () ->
      Vector.blit ~src:[| 1.0 |] ~dst:[| 1.0; 2.0 |])

(* ------------------------------------------------------------------ *)
(* Matrix                                                              *)

let test_matrix_basics () =
  let m = Matrix.init 2 3 (fun i j -> float_of_int ((10 * i) + j)) in
  Alcotest.(check (pair int int)) "dims" (2, 3) (Matrix.dims m);
  check_float "get" 12.0 (Matrix.get m 1 2);
  let t = Matrix.transpose m in
  Alcotest.(check (pair int int)) "transpose dims" (3, 2) (Matrix.dims t);
  check_float "transpose element" 12.0 (Matrix.get t 2 1);
  let id = Matrix.identity 3 in
  check_float "identity multiply keeps matrix" 0.0
    (Matrix.max_abs_diff t (Matrix.matmul t (Matrix.identity 2)));
  check_float "identity norm_inf" 1.0 (Matrix.norm_inf id);
  check_float "frobenius of identity" (sqrt 3.0) (Matrix.norm_frobenius id)

let test_matrix_rows_roundtrip () =
  let rows = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let m = Matrix.of_rows rows in
  Array.iteri
    (fun i r ->
      Array.iteri (fun j v -> check_float "roundtrip" v (Matrix.get m i j)) r)
    rows;
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_rows: ragged rows")
    (fun () -> ignore (Matrix.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_matrix_gemv () =
  let m = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = Matrix.gemv m [| 1.0; 1.0 |] in
  check_float "gemv 0" 3.0 y.(0);
  check_float "gemv 1" 7.0 y.(1);
  let yt = Matrix.gemv ~trans:true m [| 1.0; 1.0 |] in
  check_float "gemv^T 0" 4.0 yt.(0);
  check_float "gemv^T 1" 6.0 yt.(1)

let test_matrix_permute_rows () =
  let m = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let p = Matrix.permute_rows m [| 1; 0 |] in
  check_float "swapped" 3.0 (Matrix.get p 0 0);
  Alcotest.check_raises "bad permutation"
    (Invalid_argument "Matrix.permute_rows: not a permutation") (fun () ->
      ignore (Matrix.permute_rows m [| 0; 0 |]))

let test_matrix_diagdom () =
  for seed = 0 to 9 do
    let n = 1 + (seed mod 8) in
    let m = matrix_of_seed ~kind:`Diagdom seed n in
    for i = 0 to n - 1 do
      let off = ref 0.0 in
      for j = 0 to n - 1 do
        if i <> j then off := !off +. Float.abs (Matrix.get m i j)
      done;
      Alcotest.(check bool) "row dominant" true
        (Float.abs (Matrix.get m i i) > !off)
    done
  done

(* ------------------------------------------------------------------ *)
(* LU                                                                  *)

let test_lu_reconstruct () =
  for seed = 0 to 19 do
    let n = 1 + (seed * 3 mod 32) in
    let a = matrix_of_seed seed n in
    let f = Lu.factor_explicit a in
    Alcotest.(check bool)
      (Printf.sprintf "PA=LU residual small (n=%d)" n)
      true
      (Diagnostics.factor_residual a f < 1e-13)
  done

let test_lu_implicit_equals_explicit () =
  for seed = 0 to 19 do
    let n = 1 + (seed * 5 mod 32) in
    let a = matrix_of_seed seed n in
    let fe = Lu.factor_explicit a in
    let fi = Lu.factor_implicit a in
    check_float "identical factors" 0.0 (Matrix.max_abs_diff fe.Lu.lu fi.Lu.lu);
    Alcotest.(check (array int)) "identical permutations" fe.Lu.perm fi.Lu.perm
  done

let test_lu_solve () =
  for seed = 0 to 9 do
    let n = 2 + (seed * 3 mod 31) in
    let a = matrix_of_seed seed n in
    let b = vector_of_seed seed n in
    let x = Lu.solve (Lu.factor_implicit a) b in
    Alcotest.(check bool) "solve residual" true
      (Diagnostics.solve_residual a x b < 1e-12)
  done

let test_lu_singular () =
  let z = Matrix.create 3 3 in
  Alcotest.check_raises "all zero" (Lu.Singular 0) (fun () ->
      ignore (Lu.factor_explicit z));
  Alcotest.check_raises "implicit too" (Lu.Singular 0) (fun () ->
      ignore (Lu.factor_implicit z));
  (* Rank-1 matrix breaks at step 1. *)
  let r1 = Matrix.init 3 3 (fun i j -> float_of_int ((i + 1) * (j + 1))) in
  Alcotest.check_raises "rank one" (Lu.Singular 1) (fun () ->
      ignore (Lu.factor_implicit r1))

let test_lu_nonsquare () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Lu.factor_explicit: matrix not square") (fun () ->
      ignore (Lu.factor_explicit (Matrix.create 2 3)))

let test_lu_nopivot_diagdom () =
  for seed = 0 to 5 do
    let n = 2 + (seed * 6 mod 31) in
    let a = matrix_of_seed ~kind:`Diagdom seed n in
    let f = Lu.factor_nopivot a in
    Alcotest.(check bool) "residual ok on dominant" true
      (Diagnostics.factor_residual a f < 1e-13);
    Alcotest.(check (array int)) "identity permutation"
      (Array.init n (fun i -> i))
      f.Lu.perm
  done

let test_lu_nopivot_needs_pivot () =
  let a = Matrix.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  Alcotest.check_raises "zero pivot" (Lu.Singular 0) (fun () ->
      ignore (Lu.factor_nopivot a))

let test_lu_single_precision () =
  let a = matrix_of_seed 21 16 in
  let b = vector_of_seed 21 16 in
  let f = Lu.factor_implicit ~prec:Precision.Single a in
  let x = Lu.solve ~prec:Precision.Single f b in
  let r = Diagnostics.solve_residual a x b in
  Alcotest.(check bool) "single residual ~1e-5" true (r < 1e-4 && r > 1e-12)

(* ------------------------------------------------------------------ *)
(* Trsv                                                                *)

let test_trsv_variants_agree () =
  for seed = 0 to 9 do
    let n = 2 + (seed * 3 mod 31) in
    let a = matrix_of_seed seed n in
    let f = Lu.factor_implicit a in
    let b = vector_of_seed (seed + 100) n in
    let m = f.Lu.lu.Matrix.a in
    let run pair =
      let x = Trsv.apply_perm f.Lu.perm b in
      ignore (pair x);
      x
    in
    let xe = run (fun b -> Trsv.pair_eager_view ~m ~moff:0 ~n ~b ~boff:0 ())
    and xl = run (fun b -> Trsv.pair_lazy_view ~m ~moff:0 ~n ~b ~boff:0 ()) in
    Alcotest.(check bool) "eager ≈ lazy" true (Vector.max_abs_diff xe xl < 1e-10)
  done

let test_trsv_perm_roundtrip () =
  let b = [| 1.0; 2.0; 3.0; 4.0 |] in
  let perm = [| 2; 0; 3; 1 |] in
  let pb = Trsv.apply_perm perm b in
  check_float "permuted head" 3.0 pb.(0);
  let inv = Array.make 4 0 in
  Array.iteri (fun k p -> inv.(p) <- k) perm;
  let back = Trsv.apply_perm inv pb in
  check_float "roundtrip" 0.0 (Vector.max_abs_diff b back)

let test_trsv_singular_diag () =
  let m = Matrix.create 2 2 in
  Alcotest.check_raises "upper zero diag" (Error.Singular 1) (fun () ->
      ignore (Trsv.solve m [| 0; 1 |] [| 1.0; 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Gauss-Huard                                                         *)

let test_gh_solves () =
  for seed = 0 to 14 do
    let n = 1 + (seed * 4 mod 32) in
    let a = matrix_of_seed seed n in
    let b = vector_of_seed (seed + 7) n in
    let f = Gauss_huard.factor a in
    let x = Gauss_huard.solve f b in
    Alcotest.(check bool) "gh residual" true
      (Diagnostics.solve_residual a x b < 1e-12)
  done

let test_ght_matches_gh () =
  for seed = 0 to 9 do
    let n = 2 + (seed * 3 mod 31) in
    let a = matrix_of_seed seed n in
    let b = vector_of_seed seed n in
    let x = Gauss_huard.solve (Gauss_huard.factor a) b in
    let xt =
      Gauss_huard.solve (Gauss_huard.factor ~storage:Gauss_huard.Transposed a) b
    in
    check_float "identical" 0.0 (Vector.max_abs_diff x xt)
  done

let test_gh_vs_lu () =
  let a = matrix_of_seed 33 24 in
  let b = vector_of_seed 33 24 in
  let x_lu = Lu.solve (Lu.factor_implicit a) b in
  let x_gh = Gauss_huard.solve (Gauss_huard.factor a) b in
  Alcotest.(check bool) "gh ≈ lu" true (Vector.max_abs_diff x_lu x_gh < 1e-10)

let test_gh_singular () =
  Alcotest.check_raises "gh singular" (Error.Singular 0) (fun () ->
      ignore (Gauss_huard.factor (Matrix.create 2 2)))

(* ------------------------------------------------------------------ *)
(* Gauss-Jordan                                                        *)

let test_gje_inverse () =
  for seed = 0 to 9 do
    let n = 1 + (seed * 4 mod 32) in
    let a = matrix_of_seed seed n in
    let inv = Gauss_jordan.invert a in
    let prod = Matrix.matmul a inv in
    Alcotest.(check bool) "A * inv(A) = I" true
      (Matrix.max_abs_diff prod (Matrix.identity n) < 1e-10)
  done

let test_gje_singular () =
  Alcotest.check_raises "gje singular" (Error.Singular 0) (fun () ->
      ignore (Gauss_jordan.invert (Matrix.create 4 4)))

let test_gje_solve_matches_lu () =
  let a = matrix_of_seed 8 12 in
  let b = vector_of_seed 8 12 in
  let x1 = Gauss_jordan.solve (Gauss_jordan.invert a) b in
  let x2 = Lu.solve (Lu.factor_implicit a) b in
  Alcotest.(check bool) "close" true (Vector.max_abs_diff x1 x2 < 1e-10)

(* ------------------------------------------------------------------ *)
(* Cholesky                                                            *)

let spd_of_seed seed n =
  let st = Random.State.make [| 0x59d; seed |] in
  let b = Matrix.random ~state:st n n in
  let a = Matrix.matmul b (Matrix.transpose b) in
  Matrix.init n n (fun i j ->
      Matrix.get a i j +. if i = j then float_of_int n else 0.0)

let test_cholesky_reconstruct () =
  for seed = 0 to 9 do
    let n = 1 + (seed * 4 mod 32) in
    let a = spd_of_seed seed n in
    let f = Cholesky.factor a in
    let llt = Matrix.matmul f.Cholesky.l (Matrix.transpose f.Cholesky.l) in
    Alcotest.(check bool) "LL^T = A" true (Matrix.max_abs_diff llt a /. Matrix.max_abs a < 1e-12)
  done

let test_cholesky_solve () =
  for seed = 0 to 9 do
    let n = 2 + (seed * 3 mod 31) in
    let a = spd_of_seed seed n in
    let b = vector_of_seed seed n in
    let x = Cholesky.solve (Cholesky.factor a) b in
    Alcotest.(check bool) "residual" true (Diagnostics.solve_residual a x b < 1e-12);
    (* agrees with LU *)
    let x_lu = Lu.solve (Lu.factor_implicit a) b in
    Alcotest.(check bool) "matches lu" true
      (Vector.max_abs_diff x x_lu /. (1.0 +. Vector.norm_inf x_lu) < 1e-10)
  done

let test_cholesky_not_spd () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.(check bool) "indefinite rejected" true
    (match Cholesky.factor a with
    | exception Cholesky.Not_positive_definite 1 -> true
    | _ -> false);
  Alcotest.(check bool) "zero rejected at step 0" true
    (match Cholesky.factor (Matrix.create 3 3) with
    | exception Cholesky.Not_positive_definite 0 -> true
    | _ -> false)

let test_cholesky_ignores_upper () =
  (* Only the lower triangle is read. *)
  let a = spd_of_seed 3 6 in
  let garbled = Matrix.copy a in
  for i = 0 to 5 do
    for j = i + 1 to 5 do
      Matrix.set garbled i j 999.0
    done
  done;
  let f1 = Cholesky.factor a and f2 = Cholesky.factor garbled in
  check_float "same factor" 0.0 (Matrix.max_abs_diff f1.Cholesky.l f2.Cholesky.l)

(* ------------------------------------------------------------------ *)
(* Status (non-raising) API                                            *)

let test_status_matches_raising_on_success () =
  (* On well-conditioned input every status function reports info = 0 and
     produces the same floats as its raising wrapper. *)
  let a = matrix_of_seed 44 12 in
  let b = vector_of_seed 44 12 in
  let f, inf = Lu.factor_implicit_status a in
  Alcotest.(check int) "lu info" 0 inf;
  check_float "lu factors" 0.0
    (Matrix.max_abs_diff f.Lu.lu (Lu.factor_implicit a).Lu.lu);
  let x, sinf = Lu.solve_status f b in
  Alcotest.(check int) "lu solve info" 0 sinf;
  check_float "lu solve" 0.0 (Vector.max_abs_diff x (Lu.solve f b));
  let gf, ginf = Gauss_huard.factor_status a in
  Alcotest.(check int) "gh info" 0 ginf;
  let gx, gsinf = Gauss_huard.solve_status gf b in
  Alcotest.(check int) "gh solve info" 0 gsinf;
  check_float "gh solve" 0.0 (Vector.max_abs_diff gx (Gauss_huard.solve gf b));
  let inv, jinf = Gauss_jordan.invert_status a in
  Alcotest.(check int) "gje info" 0 jinf;
  check_float "gje inverse" 0.0 (Matrix.max_abs_diff inv (Gauss_jordan.invert a));
  let spd = spd_of_seed 44 12 in
  let cf, cinf = Cholesky.factor_status spd in
  Alcotest.(check int) "cholesky info" 0 cinf;
  check_float "cholesky factor" 0.0
    (Matrix.max_abs_diff cf.Cholesky.l (Cholesky.factor spd).Cholesky.l)

let test_status_flags_breakdown () =
  (* info = k + 1 for the first dead pivot at (0-based) step k — the same
     step index the raising wrappers put in their exceptions. *)
  let z2 = Matrix.create 2 2 and z3 = Matrix.create 3 3 in
  Alcotest.(check int) "lu explicit" 1 (snd (Lu.factor_explicit_status z3));
  Alcotest.(check int) "lu implicit" 1 (snd (Lu.factor_implicit_status z3));
  Alcotest.check_raises "lu nopivot" (Lu.Singular 0) (fun () ->
      ignore (Lu.factor_nopivot z3));
  let r1 = Matrix.init 3 3 (fun i j -> float_of_int ((i + 1) * (j + 1))) in
  Alcotest.(check int) "rank one at step 1" 2
    (snd (Lu.factor_implicit_status r1));
  Alcotest.(check int) "gh" 1 (snd (Gauss_huard.factor_status z2));
  Alcotest.(check int) "gje" 1 (snd (Gauss_jordan.invert_status z3));
  let ind = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.(check int) "cholesky indefinite at step 1" 2
    (snd (Cholesky.factor_status ind));
  Alcotest.(check int) "cholesky zero at step 0" 1
    (snd (Cholesky.factor_status z3));
  (* The frozen LU still carries a total permutation (the freeze rule
     assigns the remaining rows in order), so a later permuted solve
     cannot index out of bounds. *)
  let f, _ = Lu.factor_implicit_status r1 in
  let sorted = Array.copy f.Lu.perm in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "total permutation" [| 0; 1; 2 |] sorted;
  (* Triangular sweeps flag instead of raising, in both schedules. *)
  let m = z2.Matrix.a in
  Alcotest.(check int) "trsv eager zero diag" 2
    (Trsv.pair_eager_view ~m ~moff:0 ~n:2 ~b:[| 1.0; 1.0 |] ~boff:0 ());
  Alcotest.(check int) "trsv lazy zero diag" 2
    (Trsv.pair_lazy_view ~m ~moff:0 ~n:2 ~b:[| 1.0; 1.0 |] ~boff:0 ());
  Alcotest.(check int) "trsv solve_status zero diag" 2
    (snd (Trsv.solve_status z2 [| 0; 1 |] [| 1.0; 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Diagnostics & Flops                                                 *)

let test_growth_factor () =
  let a = Matrix.identity 4 in
  let f = Lu.factor_explicit a in
  check_float "identity growth" 1.0 (Diagnostics.growth_factor a f)

let test_flops_formulas () =
  check_float "getrf(1)" 0.0 (Flops.getrf 1);
  (* n=2: one division + one multiply-add pair = 3 flops. *)
  check_float "getrf(2)" 3.0 (Flops.getrf 2);
  (* Unit-lower n(n-1) plus upper n(n-1) + n (the n divisions). *)
  check_float "trsv pair = lower + upper"
    ((16.0 *. 15.0) +. ((16.0 *. 15.0) +. 16.0))
    (Flops.trsv_pair 16);
  check_float "inversion" (2.0 *. 27.0) (Flops.invert 3)

(* ------------------------------------------------------------------ *)
(* Property-based                                                      *)

let qcheck_tests =
  let gen_seed_n = QCheck.(pair (int_bound 10_000) (int_range 1 32)) in
  [
    QCheck.Test.make ~count:100 ~name:"lu: PA = LU backward stable" gen_seed_n
      (fun (seed, n) ->
        let a = matrix_of_seed seed n in
        Diagnostics.factor_residual a (Lu.factor_explicit a) < 1e-12);
    QCheck.Test.make ~count:100 ~name:"lu: implicit ≡ explicit (bitwise)"
      gen_seed_n (fun (seed, n) ->
        let a = matrix_of_seed seed n in
        let fe = Lu.factor_explicit a and fi = Lu.factor_implicit a in
        Matrix.max_abs_diff fe.Lu.lu fi.Lu.lu = 0.0 && fe.Lu.perm = fi.Lu.perm);
    QCheck.Test.make ~count:100 ~name:"lu: perm is a permutation" gen_seed_n
      (fun (seed, n) ->
        let f = Lu.factor_implicit (matrix_of_seed seed n) in
        List.sort_uniq compare (Array.to_list f.Lu.perm)
        = List.init n (fun i -> i));
    QCheck.Test.make ~count:100 ~name:"lu/gh/gje solutions agree" gen_seed_n
      (fun (seed, n) ->
        let a = matrix_of_seed seed n in
        let b = vector_of_seed seed n in
        let x1 = Lu.solve (Lu.factor_implicit a) b in
        let x2 = Gauss_huard.solve (Gauss_huard.factor a) b in
        let x3 = Gauss_jordan.solve (Gauss_jordan.invert a) b in
        let scale = 1.0 +. Vector.norm_inf x1 in
        Vector.max_abs_diff x1 x2 /. scale < 1e-8
        && Vector.max_abs_diff x1 x3 /. scale < 1e-8);
    QCheck.Test.make ~count:100 ~name:"growth factor bounded by 2^(n-1)"
      gen_seed_n (fun (seed, n) ->
        let a = matrix_of_seed seed n in
        let g = Diagnostics.growth_factor a (Lu.factor_explicit a) in
        g <= ldexp 1.0 (n - 1) +. 1e-9);
    QCheck.Test.make ~count:100 ~name:"single-precision rounding idempotent"
      QCheck.float (fun x ->
        let r = Precision.round Precision.Single x in
        Float.is_nan r || Precision.round Precision.Single r = r);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "smallblas"
    [
      ( "precision",
        [
          Alcotest.test_case "round" `Quick test_precision_round;
          Alcotest.test_case "eps" `Quick test_precision_eps;
          Alcotest.test_case "fma" `Quick test_precision_fma;
        ] );
      ( "vector",
        [
          Alcotest.test_case "ops" `Quick test_vector_ops;
          Alcotest.test_case "errors" `Quick test_vector_errors;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "basics" `Quick test_matrix_basics;
          Alcotest.test_case "rows roundtrip" `Quick test_matrix_rows_roundtrip;
          Alcotest.test_case "gemv" `Quick test_matrix_gemv;
          Alcotest.test_case "permute rows" `Quick test_matrix_permute_rows;
          Alcotest.test_case "diagdom generator" `Quick test_matrix_diagdom;
        ] );
      ( "lu",
        [
          Alcotest.test_case "reconstruct" `Quick test_lu_reconstruct;
          Alcotest.test_case "implicit = explicit" `Quick
            test_lu_implicit_equals_explicit;
          Alcotest.test_case "solve" `Quick test_lu_solve;
          Alcotest.test_case "singular" `Quick test_lu_singular;
          Alcotest.test_case "non-square" `Quick test_lu_nonsquare;
          Alcotest.test_case "nopivot diagdom" `Quick test_lu_nopivot_diagdom;
          Alcotest.test_case "nopivot breakdown" `Quick
            test_lu_nopivot_needs_pivot;
          Alcotest.test_case "single precision" `Quick test_lu_single_precision;
        ] );
      ( "trsv",
        [
          Alcotest.test_case "variants agree" `Quick test_trsv_variants_agree;
          Alcotest.test_case "perm roundtrip" `Quick test_trsv_perm_roundtrip;
          Alcotest.test_case "singular diagonal" `Quick test_trsv_singular_diag;
        ] );
      ( "gauss-huard",
        [
          Alcotest.test_case "solves" `Quick test_gh_solves;
          Alcotest.test_case "transposed matches" `Quick test_ght_matches_gh;
          Alcotest.test_case "matches lu" `Quick test_gh_vs_lu;
          Alcotest.test_case "singular" `Quick test_gh_singular;
        ] );
      ( "gauss-jordan",
        [
          Alcotest.test_case "inverse" `Quick test_gje_inverse;
          Alcotest.test_case "singular" `Quick test_gje_singular;
          Alcotest.test_case "matches lu" `Quick test_gje_solve_matches_lu;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "reconstruct" `Quick test_cholesky_reconstruct;
          Alcotest.test_case "solve" `Quick test_cholesky_solve;
          Alcotest.test_case "not spd" `Quick test_cholesky_not_spd;
          Alcotest.test_case "ignores upper" `Quick test_cholesky_ignores_upper;
        ] );
      ( "status-api",
        [
          Alcotest.test_case "matches raising on success" `Quick
            test_status_matches_raising_on_success;
          Alcotest.test_case "flags breakdown" `Quick test_status_flags_breakdown;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "growth factor" `Quick test_growth_factor;
          Alcotest.test_case "flop formulas" `Quick test_flops_formulas;
        ] );
      ("properties", qcheck_tests);
    ]
