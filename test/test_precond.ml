(* Tests for supervariable blocking and the block-Jacobi preconditioner. *)

open Vblu_smallblas
open Vblu_sparse
open Vblu_precond

let check_float = Alcotest.(check (float 1e-12))

(* ------------------------------------------------------------------ *)
(* Supervariable blocking                                              *)

let test_supervariables_fem () =
  (* Every node of a FEM system is one supervariable. *)
  let vars = 5 in
  let a =
    Vblu_workloads.Generators.fem_blocks
      ~state:(Random.State.make [| 101 |])
      ~nodes:40 ~vars_per_node:vars ()
  in
  let sv = Supervariable.supervariables a in
  Alcotest.(check int) "one supervariable per node" 40
    (Array.length sv.Supervariable.starts);
  Array.iter (fun s -> Alcotest.(check int) "size" vars s) sv.Supervariable.sizes

let test_supervariables_scalar () =
  (* A tridiagonal system has no repeated patterns: singleton blocks. *)
  let a = Vblu_workloads.Generators.laplacian_2d ~nx:6 ~ny:1 () in
  let sv = Supervariable.supervariables a in
  Alcotest.(check int) "singletons" 6 (Array.length sv.Supervariable.starts)

let test_blocking_respects_bound () =
  let a =
    Vblu_workloads.Generators.fem_blocks
      ~state:(Random.State.make [| 102 |])
      ~nodes:50 ~vars_per_node:4 ()
  in
  List.iter
    (fun bound ->
      let blk = Supervariable.blocking ~max_block_size:bound a in
      let n, _ = Csr.dims a in
      Alcotest.(check bool) "valid tiling" true (Supervariable.validate ~n blk);
      Array.iter
        (fun s -> Alcotest.(check bool) "within bound" true (s <= bound))
        blk.Supervariable.sizes)
    [ 1; 4; 8; 12; 32 ]

let test_blocking_agglomerates () =
  (* With bound 8 and supervariables of 4, blocks pair up. *)
  let a =
    Vblu_workloads.Generators.fem_blocks
      ~state:(Random.State.make [| 103 |])
      ~nodes:40 ~vars_per_node:4 ()
  in
  let blk = Supervariable.blocking ~max_block_size:8 a in
  Array.iter
    (fun s -> Alcotest.(check int) "pairs" 8 s)
    blk.Supervariable.sizes

let test_blocking_splits_oversize () =
  let a =
    Vblu_workloads.Generators.fem_blocks
      ~state:(Random.State.make [| 104 |])
      ~nodes:10 ~vars_per_node:6 ()
  in
  let blk = Supervariable.blocking ~max_block_size:4 a in
  let n, _ = Csr.dims a in
  Alcotest.(check bool) "valid" true (Supervariable.validate ~n blk);
  Array.iter
    (fun s -> Alcotest.(check bool) "split" true (s <= 4))
    blk.Supervariable.sizes

let test_uniform_blocking () =
  let blk = Supervariable.uniform ~n:10 ~block_size:4 in
  Alcotest.(check bool) "valid" true (Supervariable.validate ~n:10 blk);
  Alcotest.(check (array int)) "sizes" [| 4; 4; 2 |] blk.Supervariable.sizes

let test_similarity_relaxed () =
  (* One 4-variable node whose rows share the pattern {0,1,2,3,8}, except
     row 2 where the coupling to column 8 vanished (a boundary element).
     Exact matching breaks the node apart; Jaccard 0.7 (row 2 scores
     4/5 = 0.8 against its neighbours) keeps it together. *)
  let n = 9 in
  let coo = Coo.create ~n_rows:n ~n_cols:n in
  for r = 0 to 3 do
    for c = 0 to 3 do
      Coo.add coo r c (if r = c then 4.0 else -1.0)
    done;
    if r <> 2 then Coo.add coo r 8 (-0.5)
  done;
  for r = 4 to n - 1 do
    Coo.add coo r r 1.0
  done;
  let a = Coo.to_csr coo in
  let exact = Supervariable.supervariables a in
  let relaxed = Supervariable.supervariables ~similarity:0.7 a in
  Alcotest.(check (array int)) "exact splits the perturbed node"
    [| 2; 1; 1; 1; 1; 1; 1; 1 |] exact.Supervariable.sizes;
  Alcotest.(check int) "relaxed keeps the node whole" 4
    relaxed.Supervariable.sizes.(0);
  Alcotest.(check bool) "still a valid partition" true
    (Supervariable.validate ~n relaxed);
  (* Threshold 1.0 is exactly the default behaviour. *)
  let one = Supervariable.supervariables ~similarity:1.0 a in
  Alcotest.(check bool) "threshold 1.0 = exact" true
    (one.Supervariable.starts = exact.Supervariable.starts);
  Alcotest.(check bool) "invalid threshold rejected" true
    (match Supervariable.supervariables ~similarity:0.0 a with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_validate_rejects () =
  Alcotest.(check bool) "gap" false
    (Supervariable.validate ~n:8
       { Supervariable.starts = [| 0; 5 |]; sizes = [| 4; 3 |] })

(* ------------------------------------------------------------------ *)
(* Block-Jacobi                                                        *)

let test_exact_on_block_diagonal () =
  (* On a block-diagonal matrix, block-Jacobi with matching blocks IS the
     inverse: one application solves the system. *)
  let st = Random.State.make [| 31 |] in
  let blocks = Array.init 6 (fun _ -> Matrix.random_diagdom ~state:st 4) in
  let n = 24 in
  let dense = Matrix.create n n in
  Array.iteri
    (fun b m ->
      for i = 0 to 3 do
        for j = 0 to 3 do
          Matrix.set dense ((b * 4) + i) ((b * 4) + j) (Matrix.get m i j)
        done
      done)
    blocks;
  let a = Csr.of_dense dense in
  let x_true = Vector.random ~state:st n in
  let b = Csr.spmv a x_true in
  List.iter
    (fun variant ->
      let precond, info =
        Block_jacobi.create ~variant
          ~blocking:(Supervariable.uniform ~n ~block_size:4)
          a
      in
      Alcotest.(check (list int)) "no singular blocks" []
        info.Block_jacobi.singular_blocks;
      let x = Preconditioner.apply precond b in
      Alcotest.(check bool)
        (Block_jacobi.variant_name variant ^ " solves exactly")
        true
        (Vector.max_abs_diff x x_true < 1e-10))
    [ Block_jacobi.Lu; Block_jacobi.Gh; Block_jacobi.Ght;
      Block_jacobi.Gje_inverse; Block_jacobi.Cholesky ]

let test_scalar_jacobi () =
  let a =
    Csr.of_dense (Matrix.of_rows [| [| 2.0; 1.0 |]; [| 0.0; 4.0 |] |])
  in
  let precond, _ = Block_jacobi.create ~variant:Block_jacobi.Scalar a in
  let y = Preconditioner.apply precond [| 2.0; 8.0 |] in
  check_float "d1" 1.0 y.(0);
  check_float "d2" 2.0 y.(1)

let test_singular_block_fallback () =
  (* One 2x2 singular diagonal block: falls back to identity and reports. *)
  let dense =
    Matrix.of_rows
      [|
        [| 1.0; 1.0; 0.0; 0.0 |];
        [| 1.0; 1.0; 0.0; 0.0 |];
        [| 0.0; 0.0; 3.0; 0.0 |];
        [| 0.0; 0.0; 0.0; 3.0 |];
      |]
  in
  let a = Csr.of_dense dense in
  let precond, info =
    Block_jacobi.create ~blocking:(Supervariable.uniform ~n:4 ~block_size:2) a
  in
  Alcotest.(check (list int)) "block 0 singular" [ 0 ]
    info.Block_jacobi.singular_blocks;
  let y = Preconditioner.apply precond [| 5.0; 7.0; 3.0; 6.0 |] in
  check_float "identity on singular block" 5.0 y.(0);
  check_float "solved elsewhere" 1.0 y.(2)

(* Globally nonsingular, but the leading 2x2 diagonal block is exactly
   rank one — every factorization variant must break down on block 0 and
   the breakdown policy decides what happens next. *)
let singular_block_matrix () =
  Csr.of_dense
    (Matrix.of_rows
       [|
         [| 1.0; 1.0; 0.5; 0.0 |];
         [| 1.0; 1.0; 0.0; 0.5 |];
         [| 0.5; 0.0; 3.0; 0.0 |];
         [| 0.0; 0.5; 0.0; 3.0 |];
       |])

let uniform2 = Supervariable.uniform ~n:4 ~block_size:2

let test_breakdown_policy_fail () =
  let a = singular_block_matrix () in
  Alcotest.(check bool) "raises Singular_block with block index" true
    (match
       Block_jacobi.create ~policy:Block_jacobi.Fail ~blocking:uniform2 a
     with
    | exception
        Block_jacobi.Singular_block { block = 0; variant = Block_jacobi.Lu } ->
      true
    | _ -> false)

let test_breakdown_policy_identity () =
  (* The default policy: block 0 degrades to the identity, the healthy
     block still solves, and the legacy [singular_blocks] field keeps
     reporting the same indices as [degraded_blocks]. *)
  let a = singular_block_matrix () in
  List.iter
    (fun variant ->
      let precond, info =
        Block_jacobi.create ~variant ~blocking:uniform2 a
      in
      let name = Block_jacobi.variant_name variant in
      Alcotest.(check (list int)) (name ^ " degraded") [ 0 ]
        info.Block_jacobi.degraded_blocks;
      Alcotest.(check (list int)) (name ^ " back-compat alias")
        info.Block_jacobi.degraded_blocks info.Block_jacobi.singular_blocks;
      Alcotest.(check (list int)) (name ^ " nothing perturbed") []
        info.Block_jacobi.perturbed_blocks;
      let y = Preconditioner.apply precond [| 5.0; 7.0; 3.0; 6.0 |] in
      check_float (name ^ " identity on dead block") 5.0 y.(0);
      check_float (name ^ " solved elsewhere") 1.0 y.(2))
    [ Block_jacobi.Lu; Block_jacobi.Gh; Block_jacobi.Ght;
      Block_jacobi.Gje_inverse; Block_jacobi.Cholesky ]

let test_breakdown_policy_perturb () =
  let a = singular_block_matrix () in
  let precond, info =
    Block_jacobi.create ~policy:(Block_jacobi.Perturb 1e-8) ~blocking:uniform2 a
  in
  Alcotest.(check (list int)) "salvaged" [ 0 ]
    info.Block_jacobi.perturbed_blocks;
  Alcotest.(check (list int)) "nothing degraded" []
    info.Block_jacobi.degraded_blocks;
  (* The shifted block really is factored: applying the preconditioner on
     block 0 is not the identity any more. *)
  let y = Preconditioner.apply precond [| 5.0; 7.0; 3.0; 6.0 |] in
  Alcotest.(check bool) "block 0 actually solved" true
    (Float.abs (y.(0) -. 5.0) > 1.0);
  (* And the preconditioned solver still converges on the full system. *)
  let _, stats = Vblu_krylov.Idr.solve ~precond ~s:4 a (Array.make 4 1.0) in
  Alcotest.(check bool) "idr converges" true
    (Vblu_krylov.Solver.converged stats)

let test_breakdown_policy_scalar () =
  (* The scalar variant honors the policy too: zero diagonal entries. *)
  let a =
    Csr.of_dense (Matrix.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |])
  in
  Alcotest.(check bool) "fail raises" true
    (match
       Block_jacobi.create ~variant:Block_jacobi.Scalar
         ~policy:Block_jacobi.Fail a
     with
    | exception
        Block_jacobi.Singular_block
          { block = 0; variant = Block_jacobi.Scalar } ->
      true
    | _ -> false);
  let p_id, info_id = Block_jacobi.create ~variant:Block_jacobi.Scalar a in
  Alcotest.(check (list int)) "both entries degraded" [ 0; 1 ]
    info_id.Block_jacobi.degraded_blocks;
  check_float "identity apply" 7.0 (Preconditioner.apply p_id [| 7.0; 2.0 |]).(0);
  let p_pe, info_pe =
    Block_jacobi.create ~variant:Block_jacobi.Scalar
      ~policy:(Block_jacobi.Perturb 0.5) a
  in
  Alcotest.(check (list int)) "both entries perturbed" [ 0; 1 ]
    info_pe.Block_jacobi.perturbed_blocks;
  check_float "1/eps apply" 14.0 (Preconditioner.apply p_pe [| 7.0; 2.0 |]).(0)

(* One parser pair serves both front ends: every spelling [policy_name] /
   [recovery_name] print parses back to the same policy, and rejections
   carry the messages the CLI prints. *)
let test_policy_strings () =
  let module Bj = Block_jacobi in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Bj.policy_name p ^ " round-trips")
        true
        (Bj.policy_of_string (Bj.policy_name p) = Ok p))
    [ Bj.Fail; Bj.Identity_block; Bj.Perturb 1e-8; Bj.Perturb 0.5 ];
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Bj.recovery_name r ^ " round-trips")
        true
        (Bj.recovery_of_string (Bj.recovery_name r) = Ok r))
    [ Bj.Recompute 1; Bj.Recompute 7; Bj.Degrade_to_identity;
      (Bj.Fail : Bj.recovery_policy) ];
  Alcotest.(check bool) "case-insensitive" true
    (Bj.policy_of_string "Identity" = Ok Bj.Identity_block);
  Alcotest.(check bool) "bare recompute = recompute:1" true
    (Bj.recovery_of_string "recompute" = Ok (Bj.Recompute 1));
  let err = function Ok _ -> "accepted" | Error m -> m in
  Alcotest.(check string) "non-positive eps"
    "perturb epsilon must be a positive number"
    (err (Bj.policy_of_string "perturb:0"));
  Alcotest.(check string) "unknown policy"
    "invalid breakdown policy \"bogus\": expected fail, identity, or \
     perturb:EPS"
    (err (Bj.policy_of_string "bogus"));
  Alcotest.(check string) "non-positive retries"
    "recompute retry count must be a positive integer"
    (err (Bj.recovery_of_string "recompute:0"));
  Alcotest.(check string) "unknown recovery"
    "invalid recovery policy \"Skip\": expected recompute[:N], degrade, or \
     fail"
    (err (Bj.recovery_of_string "Skip"))

let test_breakdown_deterministic_across_domains () =
  (* The outcome lists and the preconditioned solve are identical whatever
     the domain count (the per-block outcomes are recorded race-free). *)
  let a = singular_block_matrix () in
  let b = [| 5.0; 7.0; 3.0; 6.0 |] in
  let run domains =
    let pool = Vblu_par.Pool.create ~num_domains:domains () in
    let precond, info = Block_jacobi.create ~pool ~blocking:uniform2 a in
    (info.Block_jacobi.degraded_blocks, Preconditioner.apply precond b)
  in
  let d1, y1 = run 1 in
  List.iter
    (fun domains ->
      let d, y = run domains in
      Alcotest.(check (list int)) "same degraded list" d1 d;
      check_float "bit-identical apply" 0.0 (Vector.max_abs_diff y1 y))
    [ 2; 4 ]

let test_variants_agree () =
  let a =
    Vblu_workloads.Generators.fem_blocks
      ~state:(Random.State.make [| 105 |])
      ~nodes:30 ~vars_per_node:4 ()
  in
  let n, _ = Csr.dims a in
  let r = Vector.random ~state:(Random.State.make [| 9 |]) n in
  let apply variant =
    let p, _ = Block_jacobi.create ~variant ~max_block_size:8 a in
    Preconditioner.apply p r
  in
  let lu = apply Block_jacobi.Lu in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Block_jacobi.variant_name v ^ " close to lu")
        true
        (Vector.max_abs_diff lu (apply v) /. (1.0 +. Vector.norm_inf lu) < 1e-10))
    [ Block_jacobi.Gh; Block_jacobi.Ght; Block_jacobi.Gje_inverse ]

let test_dimension_checks () =
  let a = Vblu_workloads.Generators.laplacian_2d ~nx:4 ~ny:4 () in
  let precond, _ = Block_jacobi.create a in
  Alcotest.check_raises "apply dimension"
    (Invalid_argument "Preconditioner.apply: dimension mismatch") (fun () ->
      ignore (Preconditioner.apply precond [| 1.0 |]));
  Alcotest.(check bool) "invalid blocking rejected" true
    (match
       Block_jacobi.create
         ~blocking:{ Supervariable.starts = [| 0 |]; sizes = [| 3 |] }
         a
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cholesky_variant_on_nonsym_falls_back () =
  (* Nonsymmetric blocks fail the SPD test; the variant falls back to LU
     per block and still produces a working preconditioner. *)
  let a =
    Vblu_workloads.Generators.fem_blocks
      ~state:(Random.State.make [| 106 |])
      ~nodes:20 ~vars_per_node:4 ()
  in
  let n, _ = Csr.dims a in
  let p, info =
    Block_jacobi.create ~variant:Block_jacobi.Cholesky ~max_block_size:8 a
  in
  Alcotest.(check (list int)) "no identity fallbacks" []
    info.Block_jacobi.singular_blocks;
  let r = Vector.random ~state:(Random.State.make [| 2 |]) n in
  let p_lu, _ = Block_jacobi.create ~variant:Block_jacobi.Lu ~max_block_size:8 a in
  Alcotest.(check bool) "equals lu apply" true
    (Vector.max_abs_diff (Preconditioner.apply p r) (Preconditioner.apply p_lu r)
     /. (1.0 +. Vector.norm_inf r)
    < 1e-10)

(* The Cholesky variant applies the batched Cholesky kernel's bits: on a
   block-diagonal SPD system with blocks of every order 1..32, its apply
   equals [Batched_cholesky.factor] plus [solve] on the extracted blocks,
   bit for bit, whether the kernels run interpreted (cache off) or on the
   direct path (a warm cache).  Values are pre-rounded to the precision,
   as the kernels stage them. *)
let test_cholesky_variant_is_the_kernel () =
  let module C = Vblu_simt.Launch.Cache in
  let module Batch = Vblu_core.Batch in
  let module Bc = Vblu_core.Batched_cholesky in
  let sizes = Array.init 32 (fun i -> i + 1) in
  let starts = Array.make 32 0 in
  for i = 1 to 31 do
    starts.(i) <- starts.(i - 1) + sizes.(i - 1)
  done;
  let n = starts.(31) + sizes.(31) in
  let bitwise x y =
    Array.length x = Array.length y
    && Array.for_all2
         (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
         x y
  in
  List.iter
    (fun prec ->
      let st = Random.State.make [| 107 |] in
      let draw () = Precision.round prec (Random.State.float st 2.0 -. 1.0) in
      (* Symmetric with a dominant positive diagonal: SPD. *)
      let dense = Matrix.create n n in
      Array.iteri
        (fun b s ->
          let o = starts.(b) in
          for j = 0 to s - 1 do
            let d = float_of_int s +. Random.State.float st 1.0 in
            Matrix.set dense (o + j) (o + j) (Precision.round prec d);
            for i = j + 1 to s - 1 do
              let v = draw () in
              Matrix.set dense (o + i) (o + j) v;
              Matrix.set dense (o + j) (o + i) v
            done
          done)
        sizes;
      let a = Csr.of_dense dense in
      let r = Array.init n (fun _ -> draw ()) in
      let p, info =
        Block_jacobi.create ~prec ~variant:Block_jacobi.Cholesky
          ~blocking:{ Supervariable.starts; sizes } a
      in
      Alcotest.(check (list int)) "no singular blocks" []
        info.Block_jacobi.singular_blocks;
      let y = Preconditioner.apply p r in
      let kernels () =
        let blocks =
          Batch.of_matrices
            (Array.mapi
               (fun i s -> Csr.extract_block a ~row_start:starts.(i) ~size:s)
               sizes)
        in
        let f = Bc.factor ~prec blocks in
        Alcotest.(check bool) "every block factors" true
          (Array.for_all (( = ) 0) f.Bc.info);
        let rhs =
          Batch.vec_of_vectors
            (Array.mapi (fun i s -> Array.sub r starts.(i) s) sizes)
        in
        let x = Bc.solve ~prec ~factors:f.Bc.factors rhs in
        let x = x.Vblu_core.Batched_trsv.solutions in
        Array.concat (List.init 32 (Batch.vec_get x))
      in
      let name = Precision.to_string prec in
      C.set_enabled false;
      let interpreted =
        Fun.protect ~finally:(fun () -> C.set_enabled true) kernels
      in
      Alcotest.(check bool) (name ^ " apply = interpreted kernels") true
        (bitwise y interpreted);
      ignore (kernels ());
      let d0 = C.direct_hits () in
      let direct = kernels () in
      Alcotest.(check bool) (name ^ " warm kernels run direct") true
        (C.direct_hits () > d0);
      Alcotest.(check bool) (name ^ " apply = direct kernels") true
        (bitwise y direct))
    [ Precision.Double; Precision.Single ]

let test_identity_preconditioner () =
  let p = Preconditioner.identity 3 in
  let r = [| 1.0; 2.0; 3.0 |] in
  let y = Preconditioner.apply p r in
  check_float "copy" 0.0 (Vector.max_abs_diff r y);
  Alcotest.(check bool) "fresh array" true (y != r)

(* ------------------------------------------------------------------ *)
(* ILU(0)                                                              *)

let test_ilu0_exact_when_no_fill () =
  (* On a tridiagonal matrix ILU(0) has no discarded fill: it IS the LU
     factorization and the solve is exact. *)
  let n = 12 in
  let dense =
    Matrix.init n n (fun i j ->
        if i = j then 3.0
        else if abs (i - j) = 1 then -1.0 +. (0.1 *. float_of_int (min i j))
        else 0.0)
  in
  let a = Csr.of_dense dense in
  let f, finfo = Ilu0.factorize a in
  Alcotest.(check int) "clean factorization" 0 finfo;
  let x_true = Vector.random ~state:(Random.State.make [| 5 |]) n in
  let b = Csr.spmv a x_true in
  let x = Ilu0.solve f b in
  Alcotest.(check bool) "exact on tridiagonal" true
    (Vector.max_abs_diff x x_true < 1e-10)

let test_ilu0_preconditions () =
  let a = Vblu_workloads.Generators.laplacian_2d ~nx:20 ~ny:20 () in
  let n, _ = Csr.dims a in
  let b = Array.make n 1.0 in
  let p = Ilu0.preconditioner a in
  let _, plain = Vblu_krylov.Idr.solve a b in
  let _, pre = Vblu_krylov.Idr.solve ~precond:p a b in
  Alcotest.(check bool) "both converge" true
    (Vblu_krylov.Solver.converged plain && Vblu_krylov.Solver.converged pre);
  Alcotest.(check bool)
    (Printf.sprintf "ilu0 stronger than nothing (%d vs %d)"
       pre.Vblu_krylov.Solver.iterations plain.Vblu_krylov.Solver.iterations)
    true
    (pre.Vblu_krylov.Solver.iterations < plain.Vblu_krylov.Solver.iterations)

let test_ilu0_errors () =
  (* Structurally missing diagonal is rejected. *)
  let a =
    Csr.create ~n_rows:2 ~n_cols:2 ~row_ptr:[| 0; 1; 2 |] ~col_idx:[| 1; 0 |]
      ~values:[| 1.0; 1.0 |]
  in
  Alcotest.(check bool) "missing diagonal" true
    (match Ilu0.factorize a with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let z = Csr.of_dense (Matrix.identity 3) in
  let zf, zinfo = Ilu0.factorize z in
  Alcotest.(check int) "identity factors cleanly" 0 zinfo;
  Alcotest.(check bool) "identity works" true
    (Vector.max_abs_diff (Ilu0.solve zf [| 1.0; 2.0; 3.0 |]) [| 1.0; 2.0; 3.0 |]
    = 0.0)

(* ------------------------------------------------------------------ *)
(* Tracing keeps the direct path                                       *)

(* A handle's build, update and apply for both block families on a warm
   launch cache, traced and untraced: the results must be bitwise equal,
   and the cache must count the same hits, misses and direct hits — so a
   traced setup runs the same direct path as an untraced one. *)
let test_traced_handles_stay_direct () =
  let module C = Vblu_simt.Launch.Cache in
  let a =
    Vblu_workloads.Generators.fem_blocks ~state:(Random.State.make [| 23 |])
      ~nodes:40 ~vars_per_node:4 ()
  in
  let n, _ = Csr.dims a in
  let a' =
    let values = Array.copy a.Csr.values in
    for r = n / 3 to (n / 3) + 7 do
      for p = a.Csr.row_ptr.(r) to a.Csr.row_ptr.(r + 1) - 1 do
        values.(p) <- values.(p) *. 1.5
      done
    done;
    Csr.create ~n_rows:n ~n_cols:n ~row_ptr:a.Csr.row_ptr ~col_idx:a.Csr.col_idx
      ~values
  in
  let r = Array.init n (fun i -> 1.0 +. float_of_int (i mod 5)) in
  let run ?obs () =
    let hj = Block_jacobi.handle ?obs ~max_block_size:8 a in
    let sj = Block_jacobi.update hj a' in
    let yj = Preconditioner.apply (Block_jacobi.precond hj) r in
    let hi = Block_ilu0.handle ?obs ~max_block_size:8 a in
    let si = Block_ilu0.update hi a' in
    let yi = Preconditioner.apply (Block_ilu0.precond hi) r in
    ((sj.Block_jacobi.refactored, si.Block_jacobi.refactored), yj, yi)
  in
  let counted ?obs () =
    let (h0, m0), d0 = (C.stats (), C.direct_hits ()) in
    let out = run ?obs () in
    let (h1, m1), d1 = (C.stats (), C.direct_hits ()) in
    (out, (h1 - h0, m1 - m0, d1 - d0))
  in
  C.clear ();
  ignore (run ());
  let (refac_u, yj_u, yi_u), (hu, mu, du) = counted () in
  let obs =
    Vblu_obs.Ctx.v ~trace:(Vblu_obs.Trace.create ())
      ~metrics:(Vblu_obs.Metrics.create ()) ()
  in
  let (refac_t, yj_t, yi_t), (ht, mt, dt) = counted ~obs () in
  C.clear ();
  let bitwise x y =
    Array.for_all2
      (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
      x y
  in
  Alcotest.(check (pair int int)) "same refactored blocks" refac_u refac_t;
  Alcotest.(check bool) "jacobi apply bitwise" true (bitwise yj_u yj_t);
  Alcotest.(check bool) "ilu0 apply bitwise" true (bitwise yi_u yi_t);
  Alcotest.(check int) "hits" hu ht;
  Alcotest.(check int) "misses" mu mt;
  Alcotest.(check int) "direct hits" du dt;
  Alcotest.(check bool) "the warm pass is served directly" true (du > 0)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let qcheck_tests =
  [
    QCheck.Test.make ~count:20
      ~name:"lower similarity never yields more supervariables"
      QCheck.(pair (int_bound 1000) (int_range 5 20))
      (fun (seed, nodes) ->
        let a =
          Vblu_workloads.Generators.fem_blocks
            ~state:(Random.State.make [| seed |])
            ~nodes ~vars_per_node:3 ()
        in
        let count t =
          Array.length
            (Supervariable.supervariables ~similarity:t a).Supervariable.starts
        in
        count 0.5 <= count 0.9 && count 0.9 <= count 1.0);
    QCheck.Test.make ~count:30 ~name:"blocking always tiles the matrix"
      QCheck.(pair (int_range 1 32) (int_range 5 40))
      (fun (bound, nodes) ->
        let a =
          Vblu_workloads.Generators.fem_blocks
            ~state:(Random.State.make [| nodes |])
            ~nodes ~vars_per_node:3 ()
        in
        let n, _ = Csr.dims a in
        let blk = Supervariable.blocking ~max_block_size:bound a in
        Supervariable.validate ~n blk
        && Array.for_all (fun s -> s <= max bound 1) blk.Supervariable.sizes);
    QCheck.Test.make ~count:100
      ~name:"policy spellings round-trip through the one parser pair"
      QCheck.(
        triple (int_range 1 999_999) (int_range (-12) 3) (int_range 1 10_000))
      (fun (mantissa, exp, retries) ->
        let module Bj = Block_jacobi in
        let eps = float_of_string (Printf.sprintf "%de%d" mantissa exp) in
        let p = Bj.Perturb eps in
        let r = Bj.Recompute retries in
        Bj.policy_of_string (Bj.policy_name p) = Ok p
        && Bj.recovery_of_string (Bj.recovery_name r) = Ok r);
    QCheck.Test.make ~count:20
      ~name:"block-jacobi apply is linear (M⁻¹(αr) = αM⁻¹r)"
      QCheck.(int_bound 1000)
      (fun seed ->
        let a =
          Vblu_workloads.Generators.fem_blocks
            ~state:(Random.State.make [| seed |])
            ~nodes:20 ~vars_per_node:4 ()
        in
        let n, _ = Csr.dims a in
        let p, _ = Block_jacobi.create ~max_block_size:8 a in
        let r = Vector.random ~state:(Random.State.make [| seed + 1 |]) n in
        let y1 = Preconditioner.apply p r in
        let r2 = Array.map (fun v -> 3.0 *. v) r in
        let y2 = Preconditioner.apply p r2 in
        let scaled = Array.map (fun v -> 3.0 *. v) y1 in
        Vector.max_abs_diff y2 scaled /. (1.0 +. Vector.norm_inf scaled) < 1e-10);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "precond"
    [
      ( "supervariable",
        [
          Alcotest.test_case "fem nodes" `Quick test_supervariables_fem;
          Alcotest.test_case "scalar fallback" `Quick test_supervariables_scalar;
          Alcotest.test_case "bound respected" `Quick test_blocking_respects_bound;
          Alcotest.test_case "agglomeration" `Quick test_blocking_agglomerates;
          Alcotest.test_case "oversize split" `Quick test_blocking_splits_oversize;
          Alcotest.test_case "uniform" `Quick test_uniform_blocking;
          Alcotest.test_case "validate" `Quick test_validate_rejects;
          Alcotest.test_case "relaxed similarity" `Quick test_similarity_relaxed;
        ] );
      ( "block-jacobi",
        [
          Alcotest.test_case "exact on block diagonal" `Quick
            test_exact_on_block_diagonal;
          Alcotest.test_case "scalar jacobi" `Quick test_scalar_jacobi;
          Alcotest.test_case "singular fallback" `Quick
            test_singular_block_fallback;
          Alcotest.test_case "policy: fail" `Quick test_breakdown_policy_fail;
          Alcotest.test_case "policy: identity" `Quick
            test_breakdown_policy_identity;
          Alcotest.test_case "policy: perturb" `Quick
            test_breakdown_policy_perturb;
          Alcotest.test_case "policy: scalar variant" `Quick
            test_breakdown_policy_scalar;
          Alcotest.test_case "policy: string round-trip" `Quick
            test_policy_strings;
          Alcotest.test_case "policy: deterministic across domains" `Quick
            test_breakdown_deterministic_across_domains;
          Alcotest.test_case "variants agree" `Quick test_variants_agree;
          Alcotest.test_case "dimension checks" `Quick test_dimension_checks;
          Alcotest.test_case "identity" `Quick test_identity_preconditioner;
          Alcotest.test_case "cholesky is the batched kernel" `Quick
            test_cholesky_variant_is_the_kernel;
          Alcotest.test_case "cholesky fallback" `Quick
            test_cholesky_variant_on_nonsym_falls_back;
        ] );
      ( "ilu0",
        [
          Alcotest.test_case "exact without fill" `Quick
            test_ilu0_exact_when_no_fill;
          Alcotest.test_case "preconditions idr" `Quick test_ilu0_preconditions;
          Alcotest.test_case "errors" `Quick test_ilu0_errors;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "traced handles stay direct" `Quick
            test_traced_handles_stay_direct;
        ] );
      ("properties", qcheck_tests);
    ]
