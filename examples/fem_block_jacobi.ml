(* End-to-end block-Jacobi preconditioning on a finite-element-style
   system: supervariable blocking discovers the node blocks, the batched
   LU factorizes them, and IDR(4) consumes the preconditioner — the
   pipeline of the paper's Section IV-D, on one matrix.

   Run with:  dune exec examples/fem_block_jacobi.exe *)

open Vblu_sparse
open Vblu_precond
open Vblu_krylov
open Vblu_workloads

let () =
  (* A system with 300 nodes of 5 variables each: every node's variables
     share a column pattern, so each node is one supervariable. *)
  let a =
    Generators.fem_blocks
      ~state:(Random.State.make [| 0x5eed; 0x304ad5 |])
      ~nodes:300 ~vars_per_node:5 ~coupling:0.3 ()
  in
  let n, _ = Csr.dims a in
  let b = Array.make n 1.0 in
  Format.printf "system: %a@." Csr.pp_stats a;

  (* What the blocking finds. *)
  let sv = Supervariable.supervariables a in
  Format.printf "supervariables: %d (sizes %d..%d)@."
    (Array.length sv.Supervariable.starts)
    (Array.fold_left min max_int sv.Supervariable.sizes)
    (Array.fold_left max 0 sv.Supervariable.sizes);

  (* Sweep the agglomeration bound, as Table I does. *)
  List.iter
    (fun bound ->
      let precond, info = Block_jacobi.create ~max_block_size:bound a in
      let _, stats = Idr.solve ~precond ~s:4 a b in
      Format.printf "bound %2d: %4d blocks, setup %.4fs — %a@." bound
        (Array.length info.Block_jacobi.blocking.Supervariable.starts)
        precond.Preconditioner.setup_seconds Solver.pp_stats stats)
    [ 5; 10; 20; 30 ];

  (* Contrast with scalar Jacobi and with no preconditioning. *)
  let scalar, _ = Block_jacobi.create ~variant:Block_jacobi.Scalar a in
  let _, s_scalar = Idr.solve ~precond:scalar ~s:4 a b in
  Format.printf "scalar Jacobi: %a@." Solver.pp_stats s_scalar;
  let _, s_none = Idr.solve ~s:4 a b in
  Format.printf "unpreconditioned: %a@." Solver.pp_stats s_none;

  (* IDR(s) at other shadow-space dimensions: a larger s costs more work
     per cycle and usually takes fewer iterations. *)
  let precond, _ = Block_jacobi.create ~max_block_size:30 a in
  List.iter
    (fun s ->
      let _, stats = Idr.solve ~precond ~s a b in
      Format.printf "IDR(%d), bound 30: %a@." s Solver.pp_stats stats)
    [ 2; 8 ];

  (* Contrast with the classic global ILU(0): usually fewer iterations per
     solve, but its setup and its triangular sweeps are sequential over
     the whole system — the trade block-Jacobi's batched parallelism
     buys out of. *)
  let ilu = Ilu0.preconditioner a in
  let _, s_ilu = Idr.solve ~precond:ilu ~s:4 a b in
  Format.printf "ILU(0) for contrast (setup %.4fs): %a@."
    ilu.Preconditioner.setup_seconds Solver.pp_stats s_ilu
