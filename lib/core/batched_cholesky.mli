(** Variable-size batched Cholesky — the paper's future-work kernel
    (Section V) realized in the same register style as the batched LU.

    One warp per SPD block, one row per thread.  No pivoting is needed, so
    the kernel is the implicit-pivoting LU minus the pivot search and the
    write-back scatter, with a lanewise square root per step and the
    trailing update restricted to the lower triangle (half the register
    work of LU).  Like the LU kernel, a block of size [k < 32] pads to the
    full register width and performs only the first [k] steps. *)

open Vblu_smallblas
open Vblu_simt

type result = {
  factors : Batch.t;
      (** lower-triangular Cholesky factors, packed like the input
          (upper parts zero).  Complete in [Exact] mode. *)
  info : int array;
      (** per-problem status: [0] for an SPD block factored cleanly,
          [k + 1] when the pivot at (0-based) step [k] was not strictly
          positive (the block is not SPD).  The flagged block holds the
          frozen partial factor; the warp completes without raising.  In
          [Sampled] mode only class representatives are flagged. *)
  stats : Launch.stats;
}

val factor :
  ?cfg:Config.t ->
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?mode:Sampling.mode ->
  ?obs:Vblu_obs.Ctx.t ->
  Batch.t ->
  result
(** Factorize every (assumed SPD) block; only lower triangles are read.
    Non-SPD blocks never raise — they are flagged in [info].
    @raise Invalid_argument if a block exceeds the warp width. *)

val solve :
  ?cfg:Config.t ->
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?mode:Sampling.mode ->
  ?obs:Vblu_obs.Ctx.t ->
  factors:Batch.t ->
  Batch.vec ->
  Batched_trsv.result
(** Batched [L·Lᵀ] solves: a forward sweep over the columns of [L]
    (coalesced) and a backward sweep reading the same columns as rows of
    [Lᵀ] — on the simulated hardware both passes stream each factor
    element exactly once.  A zero diagonal (factors of a block flagged by
    {!factor}) is reported through the result's [info], never raised. *)
