(** Variable-size batched GEMM for small square blocks.

    The paper's introduction frames batched kernels as the future of BLAS
    functionality ("batched routines … expected to cover a significant
    fraction of the functionality currently supported by BLAS"); this is
    the level-3 representative in the same register style as the LU
    kernel: one warp per problem, thread [i] holds row [i] of [a], [b] and
    [c] in registers, and every multiply-accumulate operand arrives
    through one shuffle — [2 m³] flops from [3 m²] memory traffic.

    Inside this project it also serves the inversion-based block-Jacobi
    variant when preconditioned blocks must be composed (e.g. building
    [D⁻¹·E] coupling products in ablation studies). *)

open Vblu_smallblas
open Vblu_simt

type result = {
  products : Batch.t;
      (** per-block [alpha·a·b + beta·c]. *)
  stats : Launch.stats;
}

val multiply :
  ?cfg:Config.t ->
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?obs:Vblu_obs.Ctx.t ->
  ?alpha:float ->
  ?beta:float ->
  a:Batch.t ->
  b:Batch.t ->
  ?c:Batch.t ->
  unit ->
  result
(** [multiply ~a ~b ()] computes [alpha·aᵢ·bᵢ + beta·cᵢ] for every block
    [i] (defaults [alpha = 1], [beta = 0], [c] zero).  All batches must
    share sizes.  @raise Invalid_argument otherwise. *)

val charge :
  ?cfg:Config.t ->
  ?obs:Vblu_obs.Ctx.t ->
  prec:Precision.t ->
  layout:Batch.layout ->
  with_c:bool ->
  int array ->
  Launch.stats option
(** [charge ~prec ~layout ~with_c sizes] is {!Sampling.charge} for the
    {!multiply} launch over batches of [sizes] in [layout] (with [c]
    when [with_c]): its stats, with the launch cache counted and [?obs]
    recorded as the launch would, or [None] — nothing counted — when a
    key is not certified and the caller must multiply instead. *)
