(* Tests for the amortized preconditioner setup: handle/update dirty-block
   refresh on both families, and the Timestep driver policies. *)

open Vblu_sparse
open Vblu_precond
open Vblu_workloads
module Pool = Vblu_par.Pool
module Batch = Vblu_core.Batch

let bits_equal xs ys =
  Array.length xs = Array.length ys
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       xs ys

let matrix_bits_equal (m1 : Vblu_smallblas.Matrix.t)
    (m2 : Vblu_smallblas.Matrix.t) =
  m1.Vblu_smallblas.Matrix.rows = m2.Vblu_smallblas.Matrix.rows
  && m1.Vblu_smallblas.Matrix.cols = m2.Vblu_smallblas.Matrix.cols
  && bits_equal m1.Vblu_smallblas.Matrix.a m2.Vblu_smallblas.Matrix.a

let with_pool domains f =
  if domains <= 1 then f None
  else begin
    let pool = Pool.create ~num_domains:domains () in
    Fun.protect ~finally:(fun () -> ignore (Sys.opaque_identity pool))
      (fun () -> f (Some pool))
  end

(* A drifted pair sharing one sparsity pattern. *)
let drift_pair () =
  (Timestep.matrix ~nx:12 ~ny:12 ~step:0 (), Timestep.matrix ~nx:12 ~ny:12 ~step:5 ())

(* {1 Jacobi handles} *)

let check_jacobi_matches_fresh updated fresh =
  let fu = Block_jacobi.handle_factors updated in
  let ff = Block_jacobi.handle_factors fresh in
  Alcotest.(check int) "same block count" (Array.length ff) (Array.length fu);
  Array.iteri
    (fun i f ->
      match (f, ff.(i)) with
      | None, None -> ()
      | Some u, Some v ->
        Alcotest.(check bool)
          (Printf.sprintf "block %d lu bitwise" i)
          true
          (matrix_bits_equal u.Vblu_smallblas.Lu.lu v.Vblu_smallblas.Lu.lu);
        Alcotest.(check (array int))
          (Printf.sprintf "block %d perm" i)
          v.Vblu_smallblas.Lu.perm u.Vblu_smallblas.Lu.perm
      | _ -> Alcotest.failf "block %d outcome differs" i)
    fu;
  let iu = Block_jacobi.handle_info updated in
  let if_ = Block_jacobi.handle_info fresh in
  Alcotest.(check (list int))
    "degraded" if_.Block_jacobi.degraded_blocks iu.Block_jacobi.degraded_blocks

let test_jacobi_update_tol0 ~domains ~layout () =
  with_pool domains @@ fun pool ->
  let a0, a1 = drift_pair () in
  let h = Block_jacobi.handle ?pool ~layout ~max_block_size:8 a0 in
  let stats = Block_jacobi.update ~tol:0.0 h a1 in
  let fresh = Block_jacobi.handle ?pool ~layout ~max_block_size:8 a1 in
  Alcotest.(check bool) "some blocks dirty" true (stats.Block_jacobi.refactored > 0);
  Alcotest.(check bool) "some blocks reused" true (stats.Block_jacobi.reused > 0);
  check_jacobi_matches_fresh h fresh

(* {1 ILU0 handles} *)

let check_ilu0_matches_fresh updated fresh =
  let fu = Block_ilu0.handle_factors updated in
  let ff = Block_ilu0.handle_factors fresh in
  Alcotest.(check int) "same row count" (Array.length ff) (Array.length fu);
  Array.iteri
    (fun i (lu, piv) ->
      let lu', piv' = ff.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "row %d flu bitwise" i)
        true (matrix_bits_equal lu lu');
      Alcotest.(check (array int)) (Printf.sprintf "row %d fpiv" i) piv' piv)
    fu;
  let iu = Block_ilu0.handle_info updated in
  let if_ = Block_ilu0.handle_info fresh in
  Alcotest.(check int) "factor_info" if_.Block_ilu0.factor_info
    iu.Block_ilu0.factor_info;
  Alcotest.(check (list int))
    "degraded" if_.Block_ilu0.degraded_blocks iu.Block_ilu0.degraded_blocks

let test_ilu0_update_tol0 ~domains ~layout () =
  with_pool domains @@ fun pool ->
  let a0, a1 = drift_pair () in
  let h = Block_ilu0.handle ?pool ~layout ~max_block_size:8 a0 in
  let stats = Block_ilu0.update ~tol:0.0 h a1 in
  let fresh = Block_ilu0.handle ?pool ~layout ~max_block_size:8 a1 in
  Alcotest.(check bool) "some rows dirty" true (stats.Block_jacobi.refactored > 0);
  check_ilu0_matches_fresh h fresh

(* A handle updated along the whole drifting trajectory still matches a
   fresh setup on the final operator — errors cannot accumulate. *)
let test_ilu0_trajectory () =
  let a0 = Timestep.matrix ~nx:10 ~ny:10 ~step:0 () in
  let h = Block_ilu0.handle ~max_block_size:8 a0 in
  for step = 1 to 6 do
    let a = Timestep.matrix ~nx:10 ~ny:10 ~step () in
    ignore (Block_ilu0.update ~tol:0.0 h a)
  done;
  let a6 = Timestep.matrix ~nx:10 ~ny:10 ~step:6 () in
  let fresh = Block_ilu0.handle ~max_block_size:8 a6 in
  check_ilu0_matches_fresh h fresh

(* {1 Dirty-set exactness} *)

let perturb_block_diag (a : Csr.t) ~(blk : Supervariable.blocking) k =
  let lo = blk.Supervariable.starts.(k) in
  let hi = lo + blk.Supervariable.sizes.(k) in
  let values = Array.copy a.Csr.values in
  for row = lo to hi - 1 do
    for p = a.Csr.row_ptr.(row) to a.Csr.row_ptr.(row + 1) - 1 do
      let col = a.Csr.col_idx.(p) in
      if col >= lo && col < hi then values.(p) <- values.(p) *. 1.0001
    done
  done;
  Csr.create ~n_rows:a.Csr.n_rows ~n_cols:a.Csr.n_cols ~row_ptr:a.Csr.row_ptr
    ~col_idx:a.Csr.col_idx ~values

let test_jacobi_dirty_exact () =
  let a = Timestep.matrix ~nx:12 ~ny:12 ~step:0 () in
  let h = Block_jacobi.handle ~max_block_size:8 a in
  let blk = Block_jacobi.handle_blocking h in
  let k = Array.length blk.Supervariable.starts / 2 in
  let before = Array.copy (Block_jacobi.handle_factors h) in
  let a' = perturb_block_diag a ~blk k in
  let stats = Block_jacobi.update ~tol:0.0 h a' in
  Alcotest.(check (list int)) "exactly block k dirty" [ k ]
    stats.Block_jacobi.dirty_blocks;
  Alcotest.(check int) "one launch" 1 stats.Block_jacobi.launches;
  let after = Block_jacobi.handle_factors h in
  Array.iteri
    (fun i f ->
      if i <> k then
        Alcotest.(check bool)
          (Printf.sprintf "block %d physically reused" i)
          true
          (match (f, before.(i)) with
          | Some f, Some f' -> f == f'
          | None, None -> true
          | _ -> false))
    after

(* Off-diagonal drift does not touch Jacobi's diagonal blocks: zero dirty,
   zero launches. *)
let test_jacobi_offdiag_clean () =
  let a = Timestep.matrix ~nx:12 ~ny:12 ~step:0 () in
  let h = Block_jacobi.handle ~max_block_size:8 a in
  let blk = Block_jacobi.handle_blocking h in
  let values = Array.copy a.Csr.values in
  let touched = ref false in
  Array.iteri
    (fun row _ ->
      if row < a.Csr.n_rows then
        for p = a.Csr.row_ptr.(row) to a.Csr.row_ptr.(row + 1) - 1 do
          let col = a.Csr.col_idx.(p) in
          (* outside every diagonal block? *)
          let inside =
            Array.exists
              (fun k ->
                let lo = blk.Supervariable.starts.(k) in
                let hi = lo + blk.Supervariable.sizes.(k) in
                row >= lo && row < hi && col >= lo && col < hi)
              (Array.init (Array.length blk.Supervariable.starts) Fun.id)
          in
          if (not inside) && not !touched then begin
            values.(p) <- values.(p) *. 2.0;
            touched := true
          end
        done)
    (Array.make a.Csr.n_rows ());
  Alcotest.(check bool) "found an off-diagonal entry" true !touched;
  let a' =
    Csr.create ~n_rows:a.Csr.n_rows ~n_cols:a.Csr.n_cols ~row_ptr:a.Csr.row_ptr
      ~col_idx:a.Csr.col_idx ~values
  in
  let stats = Block_jacobi.update ~tol:0.0 h a' in
  Alcotest.(check (list int)) "no dirty blocks" [] stats.Block_jacobi.dirty_blocks;
  Alcotest.(check int) "no launches" 0 stats.Block_jacobi.launches

(* ILU0 dirty closure: perturbing one block row re-eliminates that row and
   its DAG descendants, never fewer rows than Jacobi's pointwise set. *)
let test_ilu0_dirty_closure () =
  let a = Timestep.matrix ~nx:12 ~ny:12 ~step:0 () in
  let h = Block_ilu0.handle ~max_block_size:8 a in
  let info = Block_ilu0.handle_info h in
  let blk = info.Block_ilu0.blocking in
  let k = Array.length blk.Supervariable.starts / 2 in
  let a' = perturb_block_diag a ~blk k in
  let stats = Block_ilu0.update ~tol:0.0 h a' in
  Alcotest.(check bool) "block k in dirty set" true
    (List.mem k stats.Block_jacobi.dirty_blocks);
  Alcotest.(check bool) "dirty set is a strict subset" true
    (stats.Block_jacobi.reused > 0);
  (* And the refreshed handle matches a fresh build on a'. *)
  check_ilu0_matches_fresh h (Block_ilu0.handle ~max_block_size:8 a')

(* A no-op update (same values) issues no launches for either family. *)
let test_noop_update () =
  let a = Timestep.matrix ~nx:10 ~ny:10 ~step:0 () in
  let hj = Block_jacobi.handle ~max_block_size:8 a in
  let sj = Block_jacobi.update ~tol:0.0 hj a in
  Alcotest.(check int) "jacobi launches" 0 sj.Block_jacobi.launches;
  Alcotest.(check int) "jacobi dirty" 0 sj.Block_jacobi.refactored;
  let hi = Block_ilu0.handle ~max_block_size:8 a in
  let si = Block_ilu0.update ~tol:0.0 hi a in
  Alcotest.(check int) "ilu0 launches" 0 si.Block_jacobi.launches;
  Alcotest.(check int) "ilu0 dirty" 0 si.Block_jacobi.refactored

let test_pattern_mismatch () =
  let a = Timestep.matrix ~nx:10 ~ny:10 ~step:0 () in
  let b = Timestep.matrix ~nx:11 ~ny:10 ~step:0 () in
  let h = Block_jacobi.handle ~max_block_size:8 a in
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Block_jacobi.update: dimension mismatch") (fun () ->
      ignore (Block_jacobi.update h b))

(* {1 Timestep driver} *)

let quick_cfg =
  { Vblu_krylov.Solver.max_iters = 400; rtol = 1e-8 }

let run_ts ?(family = Timestep.Jacobi) ?(refresh = Timestep.Every_step)
    ?(mode = Timestep.Partial 0.0) () =
  Timestep.run ~nx:10 ~ny:10 ~steps:8 ~family ~refresh ~mode ~config:quick_cfg
    ()

(* Partial refresh at tol 0 against a full refresh, for both families:
   strictly fewer setup transactions at a bit-identical solution
   trajectory and equal iteration counts. *)
let check_partial_cheaper label run =
  List.iter
    (fun family ->
      let name = Printf.sprintf "%s %s" label (Timestep.family_name family) in
      let partial = run ~family ~mode:(Timestep.Partial 0.0) in
      let full = run ~family ~mode:Timestep.Full in
      Alcotest.(check bool)
        (name ^ " partial fewer setup transactions")
        true
        (partial.Timestep.total_setup_transactions
        < full.Timestep.total_setup_transactions);
      Alcotest.(check bool)
        (name ^ " checksum bitwise")
        true
        (Int64.equal
           (Int64.bits_of_float partial.Timestep.solution_checksum)
           (Int64.bits_of_float full.Timestep.solution_checksum));
      Alcotest.(check int)
        (name ^ " iterations equal")
        full.Timestep.total_iterations partial.Timestep.total_iterations)
    [ Timestep.Jacobi; Timestep.Ilu0 ]

let test_partial_cheaper_than_full () =
  check_partial_cheaper "8 steps at 10x10" (fun ~family ~mode ->
      run_ts ~family ~mode ());
  (* The amortized-setup gate: a 16x16 grid over 10 steps at the default
     solver config, on a one-domain pool; a two-domain pool must then
     reproduce the partial run's checksum bits and setup transactions. *)
  let gate ~domains ~family ~mode =
    Timestep.run
      ~pool:(Pool.create ~num_domains:domains ())
      ~nx:16 ~ny:16 ~steps:10 ~family ~refresh:Timestep.Every_step ~mode ()
  in
  check_partial_cheaper "10 steps at 16x16" (gate ~domains:1);
  List.iter
    (fun family ->
      let name = Timestep.family_name family ^ " domains=2" in
      let p1 = gate ~domains:1 ~family ~mode:(Timestep.Partial 0.0) in
      let p2 = gate ~domains:2 ~family ~mode:(Timestep.Partial 0.0) in
      Alcotest.(check int64)
        (name ^ " checksum bits")
        (Int64.bits_of_float p1.Timestep.solution_checksum)
        (Int64.bits_of_float p2.Timestep.solution_checksum);
      Alcotest.(check int)
        (name ^ " setup transactions")
        p1.Timestep.total_setup_transactions p2.Timestep.total_setup_transactions)
    [ Timestep.Jacobi; Timestep.Ilu0 ]

let test_every_k_refresh_count () =
  let r = run_ts ~refresh:(Timestep.Every_k 4) () in
  (* build + steps 4 (8 steps: refresh at 4 only among 1..7). *)
  Alcotest.(check int) "refreshes" 2 r.Timestep.refreshes;
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "step %d refreshed flag" i)
        (i = 0 || i = 4) s.Timestep.refreshed)
    r.Timestep.steps

let test_on_stall_deterministic () =
  let refresh = Timestep.On_stall { iters_growth = 0 } in
  let r1 = run_ts ~refresh () and r2 = run_ts ~refresh () in
  Alcotest.(check int) "same refreshes" r1.Timestep.refreshes
    r2.Timestep.refreshes;
  Alcotest.(check bool) "same per-step stats" true
    (r1.Timestep.steps = r2.Timestep.steps);
  Alcotest.(check bool) "same checksum bitwise" true
    (Int64.equal
       (Int64.bits_of_float r1.Timestep.solution_checksum)
       (Int64.bits_of_float r2.Timestep.solution_checksum))

let test_driver_converges () =
  List.iter
    (fun family ->
      let r = run_ts ~family () in
      Array.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s step %d converged" (Timestep.family_name family)
               s.Timestep.step)
            true s.Timestep.converged)
        r.Timestep.steps)
    [ Timestep.Jacobi; Timestep.Ilu0 ]

let test_string_roundtrips () =
  List.iter
    (fun r ->
      match Timestep.refresh_of_string (Timestep.refresh_name r) with
      | Ok r' -> Alcotest.(check bool) "refresh roundtrip" true (r = r')
      | Error e -> Alcotest.fail e)
    [
      Timestep.Every_step;
      Timestep.Every_k 3;
      Timestep.On_stall { iters_growth = 5 };
    ];
  List.iter
    (fun f ->
      match Timestep.family_of_string (Timestep.family_name f) with
      | Ok f' -> Alcotest.(check bool) "family roundtrip" true (f = f')
      | Error e -> Alcotest.fail e)
    [ Timestep.Jacobi; Timestep.Ilu0 ]

(* {1 QCheck properties} *)

let prop_update_equals_fresh =
  QCheck.Test.make ~count:12 ~name:"jacobi update tol:0 == fresh handle"
    QCheck.(pair (int_bound 9) (int_bound 50))
    (fun (step, seed) ->
      let drift = 0.01 +. (0.02 *. float_of_int seed) in
      let a0 = Timestep.matrix ~nx:8 ~ny:8 ~drift ~step:0 () in
      let a1 = Timestep.matrix ~nx:8 ~ny:8 ~drift ~step:(1 + step) () in
      let h = Block_jacobi.handle ~max_block_size:8 a0 in
      ignore (Block_jacobi.update ~tol:0.0 h a1);
      let fresh = Block_jacobi.handle ~max_block_size:8 a1 in
      let fu = Block_jacobi.handle_factors h in
      let ff = Block_jacobi.handle_factors fresh in
      Array.for_all2
        (fun u v ->
          match (u, v) with
          | None, None -> true
          | Some u, Some v ->
            matrix_bits_equal u.Vblu_smallblas.Lu.lu v.Vblu_smallblas.Lu.lu
            && u.Vblu_smallblas.Lu.perm = v.Vblu_smallblas.Lu.perm
          | _ -> false)
        fu ff)

let prop_tolerance_monotone =
  QCheck.Test.make ~count:12 ~name:"larger tol never dirties more blocks"
    QCheck.(int_bound 9)
    (fun step ->
      let a0 = Timestep.matrix ~nx:8 ~ny:8 ~step:0 () in
      let a1 = Timestep.matrix ~nx:8 ~ny:8 ~step:(1 + step) () in
      let h1 = Block_jacobi.handle ~max_block_size:8 a0 in
      let h2 = Block_jacobi.handle ~max_block_size:8 a0 in
      let s1 = Block_jacobi.update ~tol:0.0 h1 a1 in
      let s2 = Block_jacobi.update ~tol:0.05 h2 a1 in
      s2.Block_jacobi.refactored <= s1.Block_jacobi.refactored)

let domain_layout_cases mk =
  List.concat_map
    (fun domains ->
      List.map
        (fun (lname, layout) ->
          Alcotest.test_case
            (Printf.sprintf "domains=%d %s" domains lname)
            `Quick
            (mk ~domains ~layout))
        [ ("blocked", Batch.Blocked); ("interleaved", Batch.Interleaved) ])
    [ 1; 2; 4 ]

let () =
  Alcotest.run "timestep"
    [
      ("jacobi update tol:0 == fresh", domain_layout_cases test_jacobi_update_tol0);
      ("ilu0 update tol:0 == fresh", domain_layout_cases test_ilu0_update_tol0);
      ( "dirty tracking",
        [
          Alcotest.test_case "ilu0 trajectory" `Quick test_ilu0_trajectory;
          Alcotest.test_case "jacobi dirty set exact" `Quick
            test_jacobi_dirty_exact;
          Alcotest.test_case "jacobi off-diagonal clean" `Quick
            test_jacobi_offdiag_clean;
          Alcotest.test_case "ilu0 dirty closure" `Quick test_ilu0_dirty_closure;
          Alcotest.test_case "no-op update launches nothing" `Quick
            test_noop_update;
          Alcotest.test_case "pattern mismatch rejected" `Quick
            test_pattern_mismatch;
        ] );
      ( "driver",
        [
          Alcotest.test_case "partial cheaper than full" `Quick
            test_partial_cheaper_than_full;
          Alcotest.test_case "every:4 refresh count" `Quick
            test_every_k_refresh_count;
          Alcotest.test_case "on-stall deterministic" `Quick
            test_on_stall_deterministic;
          Alcotest.test_case "all steps converge" `Quick test_driver_converges;
          Alcotest.test_case "string roundtrips" `Quick test_string_roundtrips;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_update_equals_fresh; prop_tolerance_monotone ] );
    ]
