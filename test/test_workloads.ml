(* Tests for the matrix generators and the 48-entry suite. *)

open Vblu_sparse
open Vblu_workloads

let dominance_margin (a : Csr.t) =
  (* min over rows of |a_ii| / sum_{j≠i} |a_ij| *)
  let n, _ = Csr.dims a in
  let worst = ref infinity in
  for i = 0 to n - 1 do
    let diag = ref 0.0 and off = ref 0.0 in
    for k = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
      if a.Csr.col_idx.(k) = i then diag := Float.abs a.Csr.values.(k)
      else off := !off +. Float.abs a.Csr.values.(k)
    done;
    if !off > 0.0 then worst := Float.min !worst (!diag /. !off)
  done;
  !worst

let test_laplacian_2d () =
  let a = Generators.laplacian_2d ~nx:5 ~ny:4 () in
  Alcotest.(check (pair int int)) "dims" (20, 20) (Csr.dims a);
  Alcotest.(check bool) "symmetric" true (Csr.is_symmetric_pattern a);
  Alcotest.(check (float 0.0)) "interior stencil" 4.0 (Csr.get a 6 6);
  Alcotest.(check (float 0.0)) "west neighbour" (-1.0) (Csr.get a 6 5);
  Alcotest.(check int) "5-point nnz" ((20 * 5) - (2 * 5) - (2 * 4)) (Csr.nnz a)

let test_laplacian_3d () =
  let a = Generators.laplacian_3d ~nx:3 ~ny:3 ~nz:3 () in
  Alcotest.(check (pair int int)) "dims" (27, 27) (Csr.dims a);
  Alcotest.(check (float 0.0)) "centre" 6.0 (Csr.get a 13 13);
  Alcotest.(check int) "centre row has 7 entries" 7
    (a.Csr.row_ptr.(14) - a.Csr.row_ptr.(13))

let test_convection_nonsymmetric_values () =
  let a = Generators.convection_diffusion_2d ~nx:6 ~ny:6 ~peclet:25.0 () in
  Alcotest.(check bool) "pattern symmetric" true (Csr.is_symmetric_pattern a);
  (* Values are not symmetric: upwinding. *)
  Alcotest.(check bool) "values nonsymmetric" true
    (Csr.get a 7 6 <> Csr.get a 6 7);
  Alcotest.(check bool) "still dominant" true (dominance_margin a >= 0.999)

let test_anisotropic () =
  let a = Generators.anisotropic_2d ~nx:5 ~ny:5 ~epsilon:0.01 () in
  Alcotest.(check bool) "weak y coupling" true
    (Float.abs (Csr.get a 12 7) < Float.abs (Csr.get a 12 11))

let test_fem_blocks_structure () =
  let a =
    Generators.fem_blocks
      ~state:(Random.State.make [| 101 |])
      ~nodes:30 ~vars_per_node:4 ()
  in
  Alcotest.(check (pair int int)) "dims" (120, 120) (Csr.dims a);
  Alcotest.(check bool) "nonsingular margin" true (dominance_margin a > 1.0);
  (* Node blocks are dense: every intra-node entry present. *)
  for v = 0 to 4 do
    for i = 0 to 3 do
      for j = 0 to 3 do
        Alcotest.(check bool) "dense node block" true
          (Csr.get a ((v * 4) + i) ((v * 4) + j) <> 0.0)
      done
    done
  done

let test_block_tridiagonal () =
  let a =
    Generators.block_tridiagonal
      ~state:(Random.State.make [| 102 |])
      ~blocks:5 ~block_size:3 ()
  in
  Alcotest.(check (pair int int)) "dims" (15, 15) (Csr.dims a);
  Alcotest.(check bool) "coupling present" true (Csr.get a 3 0 <> 0.0);
  Alcotest.(check (float 0.0)) "no long-range" 0.0 (Csr.get a 0 8);
  Alcotest.(check bool) "dominant" true (dominance_margin a > 1.0)

let test_circuit_imbalance () =
  let a =
    Generators.circuit_like
      ~state:(Random.State.make [| 103 |])
      ~n:500 ~hubs:4 ~hub_degree:150 ()
  in
  Alcotest.(check bool) "strong imbalance" true (Csr.row_imbalance a > 5.0);
  Alcotest.(check bool) "dominant (nonsingular)" true (dominance_margin a > 1.0);
  Alcotest.(check bool) "symmetric pattern" true (Csr.is_symmetric_pattern a)

let test_generators_deterministic () =
  let st () = Random.State.make [| 77 |] in
  let a = Generators.fem_blocks ~state:(st ()) ~nodes:10 ~vars_per_node:3 () in
  let b = Generators.fem_blocks ~state:(st ()) ~nodes:10 ~vars_per_node:3 () in
  Alcotest.(check bool) "same seed, same matrix" true (Csr.equal a b)

let test_suite_inventory () =
  Alcotest.(check int) "48 entries" 48 (List.length Suite.all);
  let ids = List.map (fun e -> e.Suite.id) Suite.all in
  Alcotest.(check (list int)) "ids 1..48" (List.init 48 (fun i -> i + 1)) ids;
  let names = List.map (fun e -> e.Suite.name) Suite.all in
  Alcotest.(check int) "names unique" 48
    (List.length (List.sort_uniq compare names))

let test_suite_matrices_wellformed () =
  (* Generate every suite matrix once; CSR validation runs in [create]. *)
  List.iter
    (fun e ->
      let a = Suite.matrix e in
      let n, m = Csr.dims a in
      Alcotest.(check bool) (e.Suite.name ^ " square") true (n = m);
      Alcotest.(check bool) (e.Suite.name ^ " nontrivial") true (n >= 500);
      Alcotest.(check bool)
        (e.Suite.name ^ " has full diagonal")
        true
        (Array.for_all (fun d -> d <> 0.0) (Csr.diagonal a)))
    Suite.all

let test_suite_deterministic () =
  let e = List.hd Suite.all in
  Alcotest.(check bool) "regeneration identical" true
    (Csr.equal (Suite.matrix e) (Suite.matrix e))

let qcheck_tests =
  [
    QCheck.Test.make ~count:20 ~name:"fem generator rows are dominant"
      QCheck.(pair (int_bound 1000) (int_range 2 6))
      (fun (seed, vars) ->
        let a =
          Generators.fem_blocks
            ~state:(Random.State.make [| seed |])
            ~nodes:15 ~vars_per_node:vars ()
        in
        dominance_margin a > 1.0);
    QCheck.Test.make ~count:20 ~name:"laplacian row sums are nonnegative"
      QCheck.(pair (int_range 2 10) (int_range 2 10))
      (fun (nx, ny) ->
        let a = Generators.laplacian_2d ~nx ~ny () in
        let n, _ = Csr.dims a in
        let ones = Array.make n 1.0 in
        Array.for_all (fun v -> v >= -1e-12) (Csr.spmv a ones));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "workloads"
    [
      ( "generators",
        [
          Alcotest.test_case "laplacian 2d" `Quick test_laplacian_2d;
          Alcotest.test_case "laplacian 3d" `Quick test_laplacian_3d;
          Alcotest.test_case "convection" `Quick test_convection_nonsymmetric_values;
          Alcotest.test_case "anisotropic" `Quick test_anisotropic;
          Alcotest.test_case "fem blocks" `Quick test_fem_blocks_structure;
          Alcotest.test_case "block tridiagonal" `Quick test_block_tridiagonal;
          Alcotest.test_case "circuit imbalance" `Quick test_circuit_imbalance;
          Alcotest.test_case "deterministic" `Quick test_generators_deterministic;
        ] );
      ( "suite",
        [
          Alcotest.test_case "inventory" `Quick test_suite_inventory;
          Alcotest.test_case "matrices well-formed" `Slow
            test_suite_matrices_wellformed;
          Alcotest.test_case "deterministic" `Quick test_suite_deterministic;
        ] );
      ("properties", qcheck_tests);
    ]
