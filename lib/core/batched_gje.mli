(** Batched Gauss-Jordan elimination: the inversion-based block-Jacobi
    variant [Anzt et al., PMAM 2017].

    Setup explicitly inverts every diagonal block ([2 n³] flops — three
    times the LU cost) so the per-iteration preconditioner application
    becomes a dense matrix–vector product: no triangular dependency chain,
    perfectly parallel, but potentially less stable than the
    factorization-based approach.  This is the trade-off the paper's
    Section II-C discusses; the ablation bench quantifies it.

    Numerics via {!Vblu_smallblas.Gauss_jordan}; counters charged
    analytically for the register GJE kernel (lane = row, implicit
    pivoting, every step updates the full padded register tile). *)

open Vblu_smallblas
open Vblu_simt

type result = {
  inverses : Matrix.t array;
  info : int array;
      (** per-problem status: [0] on success, [k + 1] for the first zero
          pivot at (0-based) step [k].  A flagged entry of [inverses] holds
          a frozen partial transform and must be discarded. *)
  stats : Launch.stats;
}

type apply_result = {
  products : Batch.vec;
  apply_stats : Launch.stats;
}

val invert :
  ?cfg:Config.t ->
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?obs:Vblu_obs.Ctx.t ->
  Batch.t ->
  result
(** Invert every block.  Singular blocks never raise — they are flagged
    in [info].  (The GEMV of {!apply} cannot break down, so
    {!apply_result} carries no status.) *)

val apply :
  ?cfg:Config.t ->
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?obs:Vblu_obs.Ctx.t ->
  result ->
  Batch.vec ->
  apply_result
(** Batched GEMV with the precomputed inverses. *)
