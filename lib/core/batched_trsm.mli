(** Batched triangular solves with multiple right-hand sides.

    LAPACK's GETRS (and the cuBLAS batched equivalent) accepts [nrhs]
    right-hand sides per system.  For the register kernel this is where
    the triangular factors finally get data reuse: the warp holds all
    [nrhs] vectors in registers (one element of each per lane) and every
    factor column is loaded from memory {e once}, then applied to each
    vector with one shuffle + FNMA pair — so the memory-bound solve cost
    is amortized and throughput grows with [nrhs] until the issue slots
    dominate.  This module generalizes {!Batched_trsv} (which is the
    [nrhs = 1] special case, kept separate because the paper benchmarks
    it). *)

open Vblu_smallblas
open Vblu_simt

type result = {
  solutions : Batch.vec array;  (** one solution set per input set. *)
  info : int array;
      (** per-problem status, shared by all right-hand-side sets of a
          block: [0] on success, [k + 1] for a zero diagonal at (0-based)
          step [k] of the upper sweep (see {!Batched_trsv.result}). *)
  stats : Launch.stats;
}

val solve :
  ?cfg:Config.t ->
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?obs:Vblu_obs.Ctx.t ->
  factors:Batch.t ->
  pivots:int array array ->
  Batch.vec array ->
  result
(** [solve ~factors ~pivots rhs_sets] solves every block system for every
    right-hand-side set ([rhs_sets.(r)] holds the [r]-th vector of every
    block).  All sets must share the factors' block sizes.  A zero
    diagonal never raises — the problem is flagged in [info] and its
    partial solutions stored.
    @raise Invalid_argument on shape mismatch, an empty set array, or a
    [pivots] array without exactly one (possibly empty) entry per block. *)

val charge :
  ?cfg:Config.t ->
  ?obs:Vblu_obs.Ctx.t ->
  prec:Precision.t ->
  layout:Batch.layout ->
  nrhs:int ->
  int array ->
  Launch.stats option
(** [charge ~prec ~layout ~nrhs sizes] is {!Sampling.charge} for the
    {!solve} launch of [nrhs] right-hand-side sets over blocks of [sizes]
    in [layout], or [None] — nothing counted — when the caller must
    solve instead.  A zero diagonal would break the launch down, so the
    caller must only take the charge for factors with none. *)
