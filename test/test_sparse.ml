(* Unit and property tests for the sparse substrate. *)

open Vblu_smallblas
open Vblu_sparse

let check_float = Alcotest.(check (float 1e-12))

let small_csr () =
  (* [[4 -1 0]; [-1 4 -1]; [0 -1 4]] *)
  Csr.create ~n_rows:3 ~n_cols:3
    ~row_ptr:[| 0; 2; 5; 7 |]
    ~col_idx:[| 0; 1; 0; 1; 2; 1; 2 |]
    ~values:[| 4.0; -1.0; -1.0; 4.0; -1.0; -1.0; 4.0 |]

let random_dense seed m n =
  let st = Random.State.make [| 0x517; seed |] in
  Matrix.init m n (fun _ _ ->
      if Random.State.float st 1.0 < 0.3 then -1.0 +. Random.State.float st 2.0
      else 0.0)

(* ------------------------------------------------------------------ *)

let test_create_validation () =
  let raises msg f = Alcotest.check_raises "invalid" (Invalid_argument msg) f in
  raises "Csr.create: row_ptr length must be n_rows + 1" (fun () ->
      ignore (Csr.create ~n_rows:2 ~n_cols:2 ~row_ptr:[| 0; 1 |] ~col_idx:[| 0 |]
                ~values:[| 1.0 |]));
  raises "Csr.create: columns not strictly increasing within a row" (fun () ->
      ignore
        (Csr.create ~n_rows:1 ~n_cols:3 ~row_ptr:[| 0; 2 |] ~col_idx:[| 1; 1 |]
           ~values:[| 1.0; 2.0 |]));
  raises "Csr.create: column out of range" (fun () ->
      ignore
        (Csr.create ~n_rows:1 ~n_cols:2 ~row_ptr:[| 0; 1 |] ~col_idx:[| 5 |]
           ~values:[| 1.0 |]))

let test_get () =
  let a = small_csr () in
  check_float "diag" 4.0 (Csr.get a 1 1);
  check_float "off" (-1.0) (Csr.get a 0 1);
  check_float "zero" 0.0 (Csr.get a 0 2);
  Alcotest.(check int) "nnz" 7 (Csr.nnz a)

let test_dense_roundtrip () =
  for seed = 0 to 9 do
    let m = random_dense seed 7 5 in
    let a = Csr.of_dense m in
    check_float "roundtrip" 0.0 (Matrix.max_abs_diff m (Csr.to_dense a))
  done

let test_spmv () =
  let a = small_csr () in
  let y = Csr.spmv a [| 1.0; 1.0; 1.0 |] in
  check_float "row 0" 3.0 y.(0);
  check_float "row 1" 2.0 y.(1);
  (* Against the dense gemv on random matrices. *)
  for seed = 0 to 9 do
    let m = random_dense seed 8 8 in
    let a = Csr.of_dense m in
    let x = Vector.random ~state:(Random.State.make [| seed |]) 8 in
    check_float "spmv = gemv" 0.0
      (Vector.max_abs_diff (Csr.spmv a x) (Matrix.gemv m x))
  done

let test_diagonal () =
  let a = small_csr () in
  check_float "diag extract" 0.0
    (Vector.max_abs_diff (Csr.diagonal a) [| 4.0; 4.0; 4.0 |])

let test_extract_block () =
  let m = random_dense 2 10 10 in
  let a = Csr.of_dense m in
  let blk = Csr.extract_block a ~row_start:3 ~size:4 in
  let expect = Matrix.init 4 4 (fun i j -> Matrix.get m (3 + i) (3 + j)) in
  check_float "block" 0.0 (Matrix.max_abs_diff blk expect);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Csr.extract_block: block out of range") (fun () ->
      ignore (Csr.extract_block a ~row_start:8 ~size:4))

let test_stats () =
  let a = small_csr () in
  Alcotest.(check string) "bandwidth" "3x3, nnz=7, imbalance=1.29, bandwidth=1"
    (Format.asprintf "%a" Csr.pp_stats a);
  Alcotest.(check bool) "symmetric pattern" true (Csr.is_symmetric_pattern a);
  Alcotest.(check bool) "imbalance mild" true (Csr.row_imbalance a < 1.5)

(* ------------------------------------------------------------------ *)
(* COO                                                                 *)

let test_coo_accumulates () =
  let c = Coo.create ~n_rows:2 ~n_cols:2 in
  Coo.add c 0 0 1.0;
  Coo.add c 0 0 2.0;
  Coo.add c 1 0 5.0;
  let a = Coo.to_csr c in
  check_float "summed" 3.0 (Csr.get a 0 0);
  check_float "kept" 5.0 (Csr.get a 1 0);
  Alcotest.(check int) "nnz merged" 2 (Csr.nnz a)

let test_coo_drop_zeros () =
  let c = Coo.create ~n_rows:1 ~n_cols:2 in
  Coo.add c 0 0 1.0;
  Coo.add c 0 0 (-1.0);
  Coo.add c 0 1 2.0;
  Alcotest.(check int) "kept explicit zero" 2 (Csr.nnz (Coo.to_csr c));
  Alcotest.(check int) "dropped" 1 (Csr.nnz (Coo.to_csr ~drop_zeros:true c))

let test_coo_growth () =
  let c = Coo.create ~n_rows:1 ~n_cols:1000 in
  for j = 0 to 999 do
    Coo.add c 0 j (float_of_int j)
  done;
  let a = Coo.to_csr c in
  Alcotest.(check int) "all entries" 1000 (Csr.nnz a);
  check_float "last" 999.0 (Csr.get a 0 999)

(* ------------------------------------------------------------------ *)
(* Matrix Market                                                       *)

let mm_roundtrip a =
  let path = Filename.temp_file "vblu" ".mtx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mm_io.write path a;
      Mm_io.read path)

let test_mm_roundtrip () =
  let m = random_dense 9 12 7 in
  let a = Csr.of_dense m in
  Alcotest.(check bool) "roundtrip" true (Csr.equal ~tol:1e-15 a (mm_roundtrip a))

let test_mm_symmetric () =
  let s =
    "%%MatrixMarket matrix coordinate real symmetric\n\
     3 3 4\n\
     1 1 2.0\n\
     2 1 -1.0\n\
     3 2 -1.0\n\
     3 3 2.0\n"
  in
  let a = Mm_io.read_string s in
  check_float "mirrored" (-1.0) (Csr.get a 0 1);
  check_float "diag once" 2.0 (Csr.get a 0 0);
  Alcotest.(check int) "expanded nnz" 6 (Csr.nnz a)

let test_mm_pattern () =
  let s = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n" in
  let a = Mm_io.read_string s in
  check_float "pattern value" 1.0 (Csr.get a 1 1)

let test_mm_errors () =
  let rejected_at expect_line s =
    match Mm_io.read_string s with
    | exception Mm_io.Parse_error { line; _ } -> line = expect_line
    | _ -> false
  in
  Alcotest.(check bool) "bad header rejected" true
    (rejected_at 1 "nonsense\n1 1 0\n");
  Alcotest.(check bool) "truncated rejected" true
    (* the missing-entries error is only detectable at end of input, so it
       reports the EOF line (after the trailing newline). *)
    (rejected_at 4
       "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n");
  let hdr = "%%MatrixMarket matrix coordinate real general\n" in
  Alcotest.(check bool) "unsupported format rejected" true
    (rejected_at 1 "%%MatrixMarket matrix array real general\n1 1\n1.0\n");
  Alcotest.(check bool) "non-numeric size rejected" true
    (rejected_at 2 (hdr ^ "two 2 1\n1 1 5.0\n"));
  Alcotest.(check bool) "short size line rejected" true
    (rejected_at 2 (hdr ^ "2 2\n"));
  Alcotest.(check bool) "non-numeric value rejected" true
    (rejected_at 3 (hdr ^ "2 2 1\n1 1 abc\n"));
  Alcotest.(check bool) "row index out of range rejected" true
    (rejected_at 3 (hdr ^ "2 2 1\n3 1 5.0\n"));
  Alcotest.(check bool) "column index 0 rejected" true
    (rejected_at 3 (hdr ^ "2 2 1\n1 0 5.0\n"));
  Alcotest.(check bool) "excess entries rejected" true
    (rejected_at 4 (hdr ^ "2 2 1\n1 1 5.0\n2 2 6.0\n"));
  (* Non-finite values are rejected on their own line, like a served
     problem's; a comment line before the entries shifts the count. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) (v ^ " rejected") true
        (rejected_at 5 (hdr ^ "% entries\n2 2 2\n1 1 5.0\n2 2 " ^ v ^ "\n")))
    [ "nan"; "inf"; "-inf"; "1e999" ]

let test_mm_file_roundtrip () =
  let m = random_dense 4 9 9 in
  let a = Csr.of_dense m in
  let path = Filename.temp_file "vblu" ".mtx" in
  Mm_io.write path a;
  let b = Mm_io.read path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (Csr.equal ~tol:1e-15 a b)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let qcheck_tests =
  let gen = QCheck.(pair (int_bound 10_000) (int_range 2 20)) in
  [
    QCheck.Test.make ~count:50 ~name:"spmv matches dense gemv" gen
      (fun (seed, n) ->
        let m = random_dense seed n n in
        let a = Csr.of_dense m in
        let x = Vector.random ~state:(Random.State.make [| seed |]) n in
        Vector.max_abs_diff (Csr.spmv a x) (Matrix.gemv m x) < 1e-12);
    QCheck.Test.make ~count:50 ~name:"mm roundtrip" gen (fun (seed, n) ->
        let a = Csr.of_dense (random_dense seed n n) in
        Csr.equal ~tol:1e-14 a (mm_roundtrip a));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sparse"
    [
      ( "csr",
        [
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "get" `Quick test_get;
          Alcotest.test_case "dense roundtrip" `Quick test_dense_roundtrip;
          Alcotest.test_case "spmv" `Quick test_spmv;
          Alcotest.test_case "diagonal" `Quick test_diagonal;
          Alcotest.test_case "extract block" `Quick test_extract_block;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "coo",
        [
          Alcotest.test_case "accumulates" `Quick test_coo_accumulates;
          Alcotest.test_case "drop zeros" `Quick test_coo_drop_zeros;
          Alcotest.test_case "growth" `Quick test_coo_growth;
        ] );
      ( "matrix-market",
        [
          Alcotest.test_case "roundtrip" `Quick test_mm_roundtrip;
          Alcotest.test_case "symmetric" `Quick test_mm_symmetric;
          Alcotest.test_case "pattern" `Quick test_mm_pattern;
          Alcotest.test_case "errors" `Quick test_mm_errors;
          Alcotest.test_case "file roundtrip" `Quick test_mm_file_roundtrip;
        ] );
      ("properties", qcheck_tests);
    ]
