(** Cholesky factorization for symmetric positive definite blocks.

    The paper's stated future work (Section V): "a Cholesky-based variant
    for symmetric positive definite problems".  For an SPD block the
    factorization [A = L·Lᵀ] needs no pivoting, half the LU flop count,
    and half the register/storage traffic — the natural upgrade for the
    block-Jacobi setup when the system is SPD. *)

exception Not_positive_definite of int
(** Raised at step [k] when the pivot [a_kk - Σ l_kj²] is not strictly
    positive: the block is not SPD (or too ill-conditioned to tell). *)

type factors = {
  l : Matrix.t;  (** lower triangular Cholesky factor (upper part zero). *)
}

val factor : ?prec:Precision.t -> Matrix.t -> factors
(** Right-looking Cholesky of a square block; only the lower triangle of
    the input is read (the upper is assumed symmetric).  It is
    {!factor_view} into a fresh matrix, so its bits are the batched
    kernel's.
    @raise Not_positive_definite on breakdown.
    @raise Invalid_argument if the matrix is not square. *)

val factor_status : ?prec:Precision.t -> Matrix.t -> factors * int
(** Non-raising {!factor} with the LAPACK [info] convention: [info = 0] on
    success, [k + 1] when the pivot at (0-based) step [k] is not strictly
    positive (the block is not SPD).  On breakdown the factor holds the
    frozen partial state — steps [0 .. k-1] applied. *)

val solve : ?prec:Precision.t -> factors -> Vector.t -> Vector.t
(** [solve f b] returns [x] with [L·Lᵀ·x = b]: {!solve_view} on a copy
    of [b] (an eager forward sweep, then a DOT backward sweep through the
    columns of [L]).  A zero diagonal, which only a corrupted factor has,
    freezes the sweep as in {!solve_view}. *)

val solve_in_place : ?prec:Precision.t -> factors -> Vector.t -> unit
(** Allocation-free {!solve}: overwrites [b] with the solution. *)

(** {2 Batch-view variants}

    Allocation-free factor/solve over a column-major [n]×[n] block at an
    element offset of a batch value array — the direct-execution
    counterparts of the batched Cholesky kernels, bitwise identical to them
    including the frozen partial state and [info = k + 1] on a non-positive
    pivot (factor) or zero diagonal (solve) at step [k]. *)

val factor_view :
  ?prec:Precision.t -> ?stride:int -> src:float array -> dst:float array ->
  off:int -> n:int -> unit -> int
(** Copies the lower triangle of the block at [src.(off ...)] into [dst]
    and factors it in place; the strict upper triangle of [dst] is left
    untouched (the kernel never stores it).  [stride] (default 1) is the
    batch's element stride — the cohort width for interleaved storage.
    Returns [info]. *)

val solve_view :
  ?prec:Precision.t -> ?mstride:int -> ?bstride:int ->
  m:float array -> moff:int -> n:int -> b:float array -> boff:int ->
  unit -> int
(** Solves [L·Lᵀ·x = b] in place on the segment [b.(boff ...)] against the
    packed lower factor at [m.(moff ...)].  Returns [info]. *)

val flops : int -> float
(** Useful flops of the factorization: [n³/3 + O(n²)]. *)
