(* Diagonal-block extraction on an unbalanced sparsity pattern: compares
   the naive row-per-thread strategy against the paper's shared-memory
   strategy (Section III-C / Figure 3) on a circuit-like matrix with a few
   very dense hub rows, then runs the full preconditioned solve to show
   that block-Jacobi still pays off on such systems.

   Run with:  dune exec examples/circuit_extraction.exe *)

open Vblu_sparse
open Vblu_core
open Vblu_precond
open Vblu_krylov
module L = Vblu_simt.Launch

let () =
  let a =
    Vblu_workloads.Generators.circuit_like
      ~state:(Random.State.make [| 0x5eed; 0x304ad5 |])
      ~n:2048 ~hubs:16 ~hub_degree:500 ()
  in
  Format.printf "circuit-like system: %a@." Csr.pp_stats a;

  (* A uniform 16-wide partition for the kernel comparison. *)
  let n, _ = Csr.dims a in
  let blocking = Supervariable.uniform ~n ~block_size:16 in
  let starts = blocking.Supervariable.starts
  and sizes = blocking.Supervariable.sizes in

  let naive =
    Extraction.extract ~strategy:Extraction.Row_per_thread a
      ~block_starts:starts ~block_sizes:sizes
  in
  let shared =
    Extraction.extract ~strategy:Extraction.Shared_memory a
      ~block_starts:starts ~block_sizes:sizes
  in
  Format.printf "row-per-thread: %a@." L.pp_stats naive.Extraction.stats;
  Format.printf "shared-memory : %a@." L.pp_stats shared.Extraction.stats;
  Format.printf "modelled speed-up of the shared-memory strategy: %.2fx@."
    (naive.Extraction.stats.L.time_us /. shared.Extraction.stats.L.time_us);

  (* Both strategies must extract identical blocks. *)
  let equal = ref true in
  for i = 0 to Array.length starts - 1 do
    let x = Batch.get_matrix naive.Extraction.blocks i in
    let y = Batch.get_matrix shared.Extraction.blocks i in
    if Vblu_smallblas.Matrix.max_abs_diff x y <> 0.0 then equal := false
  done;
  Format.printf "strategies agree on all %d blocks: %b@." (Array.length starts)
    !equal;

  (* And on a balanced matrix the gap closes — the imbalance is the point. *)
  let b = Vblu_workloads.Generators.laplacian_2d ~nx:32 ~ny:32 () in
  let nb, _ = Csr.dims b in
  let blk = Supervariable.uniform ~n:nb ~block_size:16 in
  let run strategy =
    (Extraction.extract ~strategy b
       ~block_starts:blk.Supervariable.starts ~block_sizes:blk.Supervariable.sizes)
      .Extraction.stats
  in
  let t_naive = (run Extraction.Row_per_thread).L.time_us in
  let t_shared = (run Extraction.Shared_memory).L.time_us in
  Format.printf
    "balanced Laplacian for contrast: row-per-thread %.1fus, shared %.1fus (%.2fx)@."
    t_naive t_shared (t_naive /. t_shared);

  (* End to end: the unbalanced system is still a fine block-Jacobi
     target. *)
  let rhs = Array.make n 1.0 in
  let precond, _ = Block_jacobi.create ~max_block_size:16 a in
  let _, with_bj = Idr.solve ~precond ~s:4 a rhs in
  let _, without = Idr.solve ~s:4 a rhs in
  Format.printf "IDR(4) with block-Jacobi(16): %a@." Solver.pp_stats with_bj;
  Format.printf "IDR(4) unpreconditioned:      %a@." Solver.pp_stats without
