(* Tests for the IDR(s) solver: convergence on known systems, correctness
   against direct solutions, preconditioning behaviour, the stopping /
   breakdown machinery, and pinned fingerprints of its iterates. *)

open Vblu_smallblas
open Vblu_sparse
open Vblu_precond
open Vblu_krylov

let laplacian nx ny = Vblu_workloads.Generators.laplacian_2d ~nx ~ny ()

let direct_solution a b =
  (* Dense LU on the small test systems. *)
  let m = Csr.to_dense a in
  Lu.solve (Lu.factor_explicit m) b

let check_solution name a b x tol =
  let x_ref = direct_solution a b in
  Alcotest.(check bool)
    (name ^ " matches direct solve")
    true
    (Vector.max_abs_diff x x_ref /. (1.0 +. Vector.norm_inf x_ref) < tol)

let spd_system seed =
  let a = laplacian 12 12 in
  let n, _ = Csr.dims a in
  (a, Vector.random ~state:(Random.State.make [| seed |]) n)

let nonsym_system seed =
  let a =
    Vblu_workloads.Generators.convection_diffusion_2d ~nx:12 ~ny:12 ~peclet:20.0 ()
  in
  let n, _ = Csr.dims a in
  (a, Vector.random ~state:(Random.State.make [| seed |]) n)

let tight = { Solver.default_config with Solver.rtol = 1e-10 }

(* ------------------------------------------------------------------ *)

let test_idr_nonsymmetric () =
  let a, b = nonsym_system 4 in
  let x, stats = Idr.solve ~config:tight a b in
  Alcotest.(check bool) "converged" true (Solver.converged stats);
  check_solution "idr" a b x 1e-6

let test_idr_s_values () =
  let a, b = nonsym_system 5 in
  List.iter
    (fun s ->
      let x, stats = Idr.solve ~s a b in
      Alcotest.(check bool)
        (Printf.sprintf "IDR(%d) converges" s)
        true (Solver.converged stats);
      check_solution (Printf.sprintf "idr(%d)" s) a b x 1e-3)
    [ 1; 2; 4; 8 ]

(* The preconditioned IDR(4) solve must converge in no more iterations than
   the unpreconditioned one on the same system. *)
let check_preconditioning_helps name a precond =
  let n, _ = Csr.dims a in
  let b = Array.make n 1.0 in
  let _, plain = Idr.solve ~s:4 a b in
  let _, pre = Idr.solve ~precond ~s:4 a b in
  Alcotest.(check bool) (name ^ " converged") true
    (Solver.converged plain && Solver.converged pre);
  Alcotest.(check bool)
    (Printf.sprintf "%s: preconditioning does not hurt (%d vs %d)" name
       pre.Solver.iterations plain.Solver.iterations)
    true
    (pre.Solver.iterations <= plain.Solver.iterations)

let test_idr_preconditioned () =
  let a =
    Vblu_workloads.Generators.fem_blocks
      ~state:(Random.State.make [| 101 |])
      ~nodes:80 ~vars_per_node:4 ()
  in
  check_preconditioning_helps "fem blocks" a
    (fst (Block_jacobi.create ~max_block_size:16 a))

let test_idr_line_smoother () =
  (* Anisotropic problem; 32-wide blocks are exactly the strongly coupled
     grid lines, so block-Jacobi acts as a line smoother. *)
  let a = Vblu_workloads.Generators.anisotropic_2d ~nx:32 ~ny:8 ~epsilon:0.05 () in
  let n, _ = Csr.dims a in
  check_preconditioning_helps "anisotropic" a
    (fst
       (Block_jacobi.create
          ~blocking:(Supervariable.uniform ~n ~block_size:32)
          a))

let test_idr_deterministic_seed () =
  let a, b = nonsym_system 6 in
  let _, s1 = Idr.solve ~seed:3 a b in
  let _, s2 = Idr.solve ~seed:3 a b in
  let _, s3 = Idr.solve ~seed:4 a b in
  Alcotest.(check int) "same seed, same iterations" s1.Solver.iterations
    s2.Solver.iterations;
  (* A different shadow space is allowed to converge differently; just
     check it still converges. *)
  Alcotest.(check bool) "other seed converges" true (Solver.converged s3)

let test_max_iterations () =
  let a, b = spd_system 7 in
  (* IDR(4) caps inside a cycle (3) and on its dimension-reduction step
     (5). *)
  List.iter
    (fun cap ->
      let config = { Solver.default_config with Solver.max_iters = cap } in
      let _, stats = Idr.solve ~config a b in
      Alcotest.(check bool) "hits cap" true
        (stats.Solver.outcome = Solver.Max_iterations);
      Alcotest.(check int) "counted" cap stats.Solver.iterations)
    [ 3; 5 ]

let test_zero_rhs () =
  let a, _ = spd_system 9 in
  let n, _ = Csr.dims a in
  let b = Array.make n 0.0 in
  let x, stats = Idr.solve a b in
  Alcotest.(check bool) "converges immediately" true
    (Solver.converged stats && stats.Solver.iterations = 0);
  Alcotest.(check bool) "returns zero" true (Vector.norm_inf x = 0.0)

let test_dimension_mismatch () =
  let a, _ = spd_system 10 in
  Alcotest.check_raises "bad rhs"
    (Invalid_argument "Krylov: rhs dimension mismatch") (fun () ->
      ignore (Idr.solve a [| 1.0 |]))

let test_final_residual_is_true_residual () =
  let a, b = nonsym_system 11 in
  let x, stats = Idr.solve a b in
  let r = Vector.sub b (Csr.spmv a x) in
  Alcotest.(check (float 1e-12)) "stats match recomputation"
    (Vector.nrm2 r) stats.Solver.residual_norm

let test_breakdown_reported () =
  (* A singular operator: the solve must terminate with a diagnosis, not
     loop or crash. *)
  let z =
    Csr.create ~n_rows:2 ~n_cols:2 ~row_ptr:[| 0; 1; 2 |] ~col_idx:[| 0; 1 |]
      ~values:[| 1.0; 0.0 |]
  in
  let b = [| 1.0; 1.0 |] in
  let config = { Solver.default_config with Solver.max_iters = 50 } in
  let _, stats = Idr.solve ~config z b in
  Alcotest.(check bool) "terminates without convergence" true
    (match stats.Solver.outcome with
    | Solver.Converged -> false
    | Solver.Breakdown _ | Solver.Max_iterations -> true)

(* ------------------------------------------------------------------ *)
(* Pinned IDR(s): outcome, iteration count, final-residual bits and a
   hash of the solution bits, recorded before the solver's workspaces
   were introduced.  Any change to IDR's arithmetic order shows here. *)

(* FNV-1a over the bytes of the entries' 64-bit patterns. *)
let bits_hash x =
  Array.fold_left
    (fun h v ->
      let w = Int64.bits_of_float v in
      let h = ref h in
      for k = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical w (8 * k)) 0xffL in
        h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
      done;
      !h)
    0xcbf29ce484222325L x

let fingerprint (x, stats) =
  let outcome =
    match stats.Solver.outcome with
    | Solver.Converged -> "converged"
    | Solver.Max_iterations -> "max-iterations"
    | Solver.Breakdown why -> "breakdown: " ^ why
  in
  Printf.sprintf "%s its=%d r=0x%Lx x=0x%Lx" outcome stats.Solver.iterations
    (Int64.bits_of_float stats.Solver.residual_norm)
    (bits_hash x)

let pinned_systems =
  [
    ("laplacian", Vblu_workloads.Generators.laplacian_2d ~nx:12 ~ny:12 ());
    ( "convection",
      Vblu_workloads.Generators.convection_diffusion_2d ~nx:12 ~ny:12
        ~peclet:20.0 () );
    ( "fem",
      Vblu_workloads.Generators.fem_blocks
        ~state:(Random.State.make [| 0x1d5 |])
        ~nodes:40 ~vars_per_node:3 () );
  ]

let pinned_precs =
  [
    ("none", fun ~prec:_ _ -> None);
    ( "block-jacobi",
      fun ~prec a -> Some (fst (Block_jacobi.create ~prec ~max_block_size:8 a)) );
    ( "block-ilu0",
      fun ~prec a -> Some (fst (Block_ilu0.create ~prec ~max_block_size:4 a)) );
  ]

let pinned_rhs a =
  let n, _ = Csr.dims a in
  Vector.random ~state:(Random.State.make [| 0x9e1 |]) n

(* A preconditioner that injects a NaN into every result, the way an
   undetected factor corruption surfaces mid-solve. *)
let poisoned (p : Preconditioner.t) =
  {
    p with
    Preconditioner.apply =
      (fun r ->
        let z = p.Preconditioner.apply r in
        z.(0) <- Float.nan;
        z);
  }

let pinned_expected =
  [
    ( "laplacian/double/none",
      "converged its=42 r=0x3ea224edc816602e x=0xde44091afabf7047" );
    ( "laplacian/double/block-jacobi",
      "converged its=32 r=0x3ecf2c8af208aa23 x=0xddb078d0bcbde06e" );
    ( "laplacian/double/block-ilu0",
      "converged its=12 r=0x3ed240b0b105c604 x=0xa198148b2235fd95" );
    ( "laplacian/single/none",
      "converged its=41 r=0x3efa463560000000 x=0xca8f1c742cde8132" );
    ( "laplacian/single/block-jacobi",
      "converged its=34 r=0x3f169825e0000000 x=0x551c3d4a58e5d851" );
    ( "laplacian/single/block-ilu0",
      "converged its=12 r=0x3ed436a860000000 x=0xc025babc3c0a78b1" );
    ( "convection/double/none",
      "converged its=37 r=0x3edd42e78eb434de x=0x28aa0f199c74aa9e" );
    ( "convection/double/block-jacobi",
      "converged its=24 r=0x3edbc4097da1aa41 x=0xac52c0a11d25c313" );
    ( "convection/double/block-ilu0",
      "converged its=8 r=0x3ed7df9b78c56dee x=0xb8aa1d14e53c5bf6" );
    ( "convection/single/none",
      "converged its=37 r=0x3f18b45580000000 x=0x46df3a23ac183b4a" );
    ( "convection/single/block-jacobi",
      "converged its=24 r=0x3ee27a5520000000 x=0xf929d0f8bbd4b4e9" );
    ( "convection/single/block-ilu0",
      "converged its=8 r=0x3ed7aafae0000000 x=0x25aa832c3b87509b" );
    ( "fem/double/none",
      "converged its=35 r=0x3ed2cea26d9f024a x=0x8da4c538371da2de" );
    ( "fem/double/block-jacobi",
      "converged its=25 r=0x3eb727d3fc96ee24 x=0x571d4cbaf27ac66" );
    ( "fem/double/block-ilu0",
      "converged its=10 r=0x3ed9e30ef2194581 x=0x5a8d39bce3fbba50" );
    ( "fem/single/none",
      "converged its=35 r=0x3f09195bc0000000 x=0x5c8d6ed172232706" );
    ( "fem/single/block-jacobi",
      "converged its=25 r=0x3ec8b8e800000000 x=0x9c5364518eed4d14" );
    ( "fem/single/block-ilu0",
      "converged its=10 r=0x3eddd87cc0000000 x=0xb44c620cd8797f19" );
    ( "convection/guarded",
      "converged its=26 r=0x3edbc4097da1aa41 x=0xac52c0a11d25c313" );
  ]

let test_pinned_idr () =
  let runs =
    List.concat_map
      (fun (sys, a) ->
        let b = pinned_rhs a in
        List.concat_map
          (fun prec ->
            List.map
              (fun (pname, make) ->
                ( Printf.sprintf "%s/%s/%s" sys (Precision.to_string prec) pname,
                  fingerprint (Idr.solve ~prec ?precond:(make ~prec a) a b) ))
              pinned_precs)
          [ Precision.Double; Precision.Single ])
      pinned_systems
  in
  (* The guard rebuilds the NaN-injecting preconditioner once and IDR
     restarts from the current iterate. *)
  let guarded =
    let a = List.assoc "convection" pinned_systems in
    let good () = fst (Block_jacobi.create ~max_block_size:8 a) in
    fingerprint
      (Idr.solve ~precond:(poisoned (good ())) ~refresh_precond:good a
         (pinned_rhs a))
  in
  Alcotest.(check (list (pair string string)))
    "fingerprints" pinned_expected
    (runs @ [ ("convection/guarded", guarded) ])

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  [
    QCheck.Test.make ~count:15 ~name:"idr(4) solves dominant fem systems"
      QCheck.(int_bound 1000)
      (fun seed ->
        let a =
          Vblu_workloads.Generators.fem_blocks
            ~state:(Random.State.make [| seed |])
            ~nodes:25 ~vars_per_node:3 ~margin:0.2 ()
        in
        let n, _ = Csr.dims a in
        let x_true = Vector.random ~state:(Random.State.make [| seed + 1 |]) n in
        let b = Csr.spmv a x_true in
        let precond, _ = Block_jacobi.create ~max_block_size:8 a in
        let x, stats = Idr.solve ~precond a b in
        Solver.converged stats
        && Vector.max_abs_diff x x_true /. (1.0 +. Vector.norm_inf x_true) < 1e-3);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "krylov"
    [
      ( "convergence",
        [
          Alcotest.test_case "idr" `Quick test_idr_nonsymmetric;
          Alcotest.test_case "idr(s) sweep" `Quick test_idr_s_values;
          Alcotest.test_case "idr preconditioned" `Quick test_idr_preconditioned;
          Alcotest.test_case "idr line smoother" `Quick test_idr_line_smoother;
          Alcotest.test_case "breakdown reported" `Quick test_breakdown_reported;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "idr deterministic" `Quick
            test_idr_deterministic_seed;
          Alcotest.test_case "max iterations" `Quick test_max_iterations;
          Alcotest.test_case "zero rhs" `Quick test_zero_rhs;
          Alcotest.test_case "dimension mismatch" `Quick test_dimension_mismatch;
          Alcotest.test_case "true residual" `Quick
            test_final_residual_is_true_residual;
        ] );
      ("pinned", [ Alcotest.test_case "pinned idr" `Quick test_pinned_idr ]);
      ("properties", qcheck_tests);
    ]
