(** A model of NVIDIA's cuBLAS batched LU ([getrfBatched] /
    [getrsBatched]) — the vendor baseline of Figures 4–7.

    cuBLAS is closed source, so this is the paper's own characterization
    turned into a model, written in the conventional batched style the
    paper contrasts with its register kernels:

    - the block is staged in {e shared memory}, not registers, so every
      elimination step re-reads and re-writes its operands (three
      shared-memory slots per updated element instead of zero);
    - pivoting is {e explicit}: a physical two-row exchange through shared
      memory at every step;
    - the kernel is compiled for fixed {e tile sizes} (8, 16, 32 here);
      a batch of order [s] runs in the smallest tile that fits, so the
      GFLOPS-vs-size curve shows local peaks at tile-friendly sizes and
      cliffs just past them — the size-specific optimization the paper
      observes at 8/16/29 (SP) and 8/20 (DP);
    - only {e uniform} batches are supported: [factor] rejects
      variable-size input exactly as the real API does (which is why the
      paper's block-Jacobi comparison cannot include cuBLAS);
    - the solve stages nothing: right-hand sides stay in global memory and
      are re-touched at every step, and the permutation runs as its own
      pass.

    An overall slowdown factor (documented in the implementation) absorbs
    what the structural model cannot see of a closed-source library; it is
    calibrated once against the paper's size-32 gap and applied uniformly
    across sizes and precisions.  Numerics come from the explicit-pivot CPU
    reference. *)

open Vblu_smallblas
open Vblu_simt

type result = {
  factors : Batch.t;
  pivots : int array array;
  info : int array;
      (** per-problem status, LAPACK [getrfBatched] convention: [0] on
          success, [k + 1] for the first zero pivot column at (0-based)
          step [k].  Flagged blocks hold frozen partial factors.  In
          [Sampled] mode only class representatives are flagged. *)
  stats : Launch.stats;
}

type solve_result = {
  solutions : Batch.vec;
  solve_info : int array;
      (** [0] on success; [k + 1] when the triangular solve of problem [i]
          met a zero diagonal at step [k]. *)
  solve_stats : Launch.stats;
}

val factor :
  ?cfg:Config.t ->
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?mode:Sampling.mode ->
  ?obs:Vblu_obs.Ctx.t ->
  Batch.t ->
  result
(** [getrfBatched].  An empty batch is a defined no-op.  Numerically
    singular blocks never raise — they are flagged in [info], exactly as
    the real API reports them.
    @raise Invalid_argument if the batch is not uniform in size or exceeds
    the largest tile. *)

val solve :
  ?cfg:Config.t ->
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?mode:Sampling.mode ->
  ?obs:Vblu_obs.Ctx.t ->
  result ->
  Batch.vec ->
  solve_result
(** [getrsBatched]: permutation pass, then the two triangular solves. *)
