(** LU factorization with partial pivoting for small dense blocks.

    Two algorithmic variants of the same factorization are provided, both
    right-looking ("eager"), mirroring Figure 1 of the paper:

    - {!factor_explicit} performs classic partial pivoting with physical
      row swaps at every step (Figure 1, top) — the reference algorithm;
    - {!factor_implicit} performs the paper's {e implicit pivoting}
      (Figure 1, bottom): no rows move during the factorization; each row
      merely remembers at which step it was chosen as pivot, and the
      combined permutation is applied once at the end, fused with the
      write-back.

    Both produce identical factors in exact arithmetic {e and} in floating
    point (the operations performed on each row are the same, in the same
    order), which the test suite verifies. *)

type factors = {
  lu : Matrix.t;
      (** The packed factors: unit lower triangle of [L] strictly below the
          diagonal, [U] on and above it, rows already in pivoted order. *)
  perm : int array;
      (** [perm.(k)] is the original row index selected as the [k]-th pivot,
          so that [(PA)(k,:) = A(perm.(k),:)] and [PA = LU]. *)
}

exception Singular of int
(** [Singular k] signals a zero (or subnormal-tiny) pivot at elimination
    step [k]: the block is numerically singular. *)

(** {2 Status-returning factorizations}

    The [_status] variants never raise on numerical breakdown.  They
    return [(factors, info)] with the LAPACK convention: [info = 0] on
    success, [info = k + 1] when the first zero pivot was met at (0-based)
    elimination step [k].  On breakdown the elimination {e freezes}: steps
    [0 .. k-1] are fully applied and nothing after, and for the implicit
    variant the still-unpivoted rows take the remaining steps in
    increasing row order so [perm] is always a total permutation.  The
    batched register kernels implement the identical rule, keeping kernel
    and reference bit-for-bit comparable even on singular blocks. *)

val factor_explicit_status : ?prec:Precision.t -> Matrix.t -> factors * int

val factor_implicit_status : ?prec:Precision.t -> Matrix.t -> factors * int

val factor_explicit : ?prec:Precision.t -> Matrix.t -> factors
(** Reference LU with explicit partial pivoting.  The input matrix is not
    modified.  @raise Singular on pivot breakdown.
    @raise Invalid_argument if the matrix is not square. *)

val factor_implicit : ?prec:Precision.t -> Matrix.t -> factors
(** The paper's implicit-pivoting LU.  Same contract and — by construction —
    same result as {!factor_explicit}.  It is {!factor_implicit_view} into
    a fresh matrix, so its bits are the batched kernel's. *)

val factor_nopivot : ?prec:Precision.t -> Matrix.t -> factors
(** LU without any pivoting ([perm] is the identity).  Only safe for
    matrices that are known to need no pivoting (e.g. diagonally dominant);
    used by stability ablations.  It is {!factor_nopivot_view} into a
    fresh matrix.  @raise Singular on a zero pivot. *)

(** {2 Batch-view variants}

    Allocation-free restatements of the [_status] factorizations over a
    column-major [n]×[n] block stored at element offset [off] of a batch
    value array — the storage layout of {!Vblu_core.Batch} — for the
    direct-execution fast path.  [stride] (default 1) is the batch's
    element stride: 1 addresses a blocked batch, the cohort width
    addresses an interleaved one (element [e] lives at
    [off + stride*e]).  Outputs are bitwise identical to the batched warp
    kernels, including the frozen partial state and [info = k + 1] on a
    breakdown at step [k]. *)

val factor_implicit_view :
  ?prec:Precision.t ->
  ?stride:int ->
  src:float array ->
  dst:float array ->
  off:int ->
  n:int ->
  tile:float array ->
  step:int array ->
  perm:int array ->
  unit ->
  int
(** Implicit-pivoting factorization of the block at [src.(off ...)], written
    to [dst.(off ...)] packed in pivot order (the fused write-back row swap
    of the batched kernel).  [tile] (length ≥ [n²]) and [step] (length ≥
    [n]) are caller-owned scratch; the elimination runs on [tile] holding
    the block row-major.  [perm] (length ≥ [n]) receives the
    step-to-original-row permutation, and serves as the list of
    unpivoted rows until then.  [src] and [dst] must be distinct
    arrays.  Returns [info]. *)

val factor_nopivot_view :
  ?prec:Precision.t -> ?stride:int -> src:float array -> dst:float array ->
  off:int -> n:int -> unit -> int
(** Unpivoted factorization, eliminating in place inside [dst] after a block
    copy from [src]; no scratch needed.  Returns [info]. *)

val solve : ?prec:Precision.t -> factors -> Vector.t -> Vector.t
(** [solve f b] returns [x] with [A x = b], i.e. applies the permutation to
    [b] then performs the two triangular solves (both "eager"/AXPY variant,
    as the batched kernel does).  The input vector is not modified. *)

val solve_status : ?prec:Precision.t -> factors -> Vector.t -> Vector.t * int
(** Non-raising {!solve}: [(x, info)] with [info = 0] on success or
    [k + 1] for a zero diagonal of [U] at step [k] (see
    {!Trsv.solve_status}). *)

val reconstruct : factors -> Matrix.t
(** [L*U] — equals [P*A] up to roundoff; used by tests. *)
