(** ILU(0): incomplete LU factorization with zero fill-in.

    The classic global preconditioner [Saad 2003, ch. 10] the paper's
    introduction positions block-Jacobi against: stronger per iteration
    (it couples the whole matrix), but inherently sequential in both setup
    and application.  {!Block_ilu0} is its batched, level-scheduled block
    generalization; this scalar version is kept as the comparison baseline
    and as the size-1-block reference the block path must reproduce
    bitwise.

    Numerics contract: the pattern-restricted update
    [a_ij := a_ij - l_ik * a_kj] rounds the product and the subtraction
    {e separately} (multiply-then-subtract), matching the batched GEMM
    wave the block path issues for the same update — so a block-ILU(0)
    with size-1 blocks reproduces these factors bit for bit in either
    precision.

    The factorization keeps exactly the sparsity pattern of [A] (no
    fill-in) and requires structurally present diagonal entries.  Zero
    pivots never raise: they are reported LAPACK-style through the [info]
    status and handled by the same {!Block_jacobi.breakdown_policy} the
    block preconditioners use. *)

open Vblu_smallblas
open Vblu_sparse

type factors

val factorize :
  ?prec:Precision.t ->
  ?policy:Block_jacobi.breakdown_policy ->
  Csr.t ->
  factors * int
(** IKJ-variant ILU(0).  The second component is the LAPACK-style status:
    [0] when every pivot was nonzero, [k + 1] when the first zero pivot
    appeared on (0-based) row [k].  What happens to a zero pivot is the
    [policy] (default {!Block_jacobi.Identity_block}, matching
    {!Block_jacobi.create}):

    - [Identity_block]: the pivot is replaced by [1.0] — that row of the
      factorization acts as the identity (the size-1 instance of the
      block identity fallback);
    - [Perturb eps]: the pivot is replaced by [eps] (the size-1 instance
      of the [eps * scale] diagonal shift — a 1x1 breakdown block is all
      zero, so [scale = 1.0]);
    - [Fail]: elimination stops at the breakdown row; the factors hold
      the frozen partial state (rows [0 .. k-1] final), like the batched
      kernels' non-raising breakdown convention.  Callers wanting the old
      exception behaviour test [info] themselves.

    @raise Invalid_argument if the matrix is not square or a diagonal
    entry is structurally missing. *)

val solve : ?prec:Precision.t -> factors -> Vector.t -> Vector.t
(** Apply [((LU)⁻¹ ≈ A⁻¹)]: one sparse forward and one sparse backward
    substitution (multiply-then-subtract sweeps, diagonal division last —
    the scalar shadow of the block path's GEMM + TRSV waves). *)

val preconditioner :
  ?prec:Precision.t ->
  ?policy:Block_jacobi.breakdown_policy ->
  Csr.t ->
  Preconditioner.t
(** Package as a {!Preconditioner.t} (setup time measured like the
    block-Jacobi variants).
    @raise Vblu_smallblas.Error.Singular under the [Fail] policy when the
    factorization broke down ([info - 1] is the offending row). *)
