(** Dense matrices in column-major (Fortran/LAPACK) storage.

    These represent the small diagonal blocks the paper factorizes
    (typically 4×4 … 32×32) as well as the small auxiliary matrices of the
    IDR(s) solver.  Storage is column-major because the paper's memory
    access analysis (coalesced column loads, one row per GPU thread) is
    phrased for that layout, and the simulated kernels replicate it. *)

type t = private {
  rows : int;
  cols : int;
  a : float array;  (** element (i,j) at [a.(i + j*rows)]. *)
}

val create : int -> int -> t
(** [create m n] is the [m]×[n] zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init m n f] fills element (i,j) with [f i j]. *)

val identity : int -> t

val of_rows : float array array -> t
(** Builds a matrix from an array of rows (each a [float array] of equal
    length).  @raise Invalid_argument if the rows are ragged or empty. *)

val copy : t -> t

val dims : t -> int * int

val get : t -> int -> int -> float
(** Bounds-checked element access. *)

val set : t -> int -> int -> float -> unit

val unsafe_get : t -> int -> int -> float
val unsafe_set : t -> int -> int -> float -> unit

val transpose : t -> t

val scale : ?prec:Precision.t -> float -> t -> t

val add : ?prec:Precision.t -> t -> t -> t
val sub : ?prec:Precision.t -> t -> t -> t

val matmul : ?prec:Precision.t -> t -> t -> t
(** Dense product; dimensions must agree. *)

val gemv : ?prec:Precision.t -> ?trans:bool -> t -> Vector.t -> Vector.t
(** [gemv a x] is [a * x]; with [~trans:true], [aᵀ * x]. *)

val gemv_into : ?prec:Precision.t -> t -> Vector.t -> Vector.t -> unit
(** [gemv_into a x y] overwrites [y] with [a * x] — the allocation-free
    [gemv], bitwise identical to it (same accumulation order). *)

val gemm_col_view :
  ?prec:Precision.t ->
  ?stride:int ->
  alpha:float ->
  beta:float ->
  ?c:float array ->
  a:float array ->
  b:float array ->
  dst:float array ->
  off:int ->
  n:int ->
  unit ->
  unit
(** Batch-view GEMM for the direct-execution fast path:
    [dst ← alpha·A·B (+ beta·C when ?c is given)] over column-major
    [n]×[n] blocks all stored at element offset [off] of their respective
    batch value arrays, every element [stride] apart (default 1; the
    cohort width for interleaved storage).  [beta] is ignored without
    [?c].  Bitwise identical to the batched GEMM warp kernel (same
    rounded-FMA accumulation order). *)

val permute_rows : t -> int array -> t
(** [permute_rows a perm] builds the matrix whose row [k] is row
    [perm.(k)] of [a] — the explicit application of the permutation matrix
    [P] of partial pivoting ([PA]).  @raise Invalid_argument if [perm] is
    not a permutation of [0..rows-1]. *)

val random : state:Random.State.t -> ?lo:float -> ?hi:float -> int -> int -> t
(** [random ~state m n] draws every entry uniformly from [\[lo, hi)]
    (default [\[-1, 1)]).  This and the two generators below read only
    [state]: there is no shared default stream, so a result depends on
    nothing that ran before. *)

val random_diagdom : state:Random.State.t -> int -> t
(** A random strictly row-diagonally-dominant matrix of order [n]:
    guaranteed nonsingular, LU-factorizable without pivoting breakdown,
    and well conditioned — the standard workload for batched-kernel
    benchmarks. *)

val random_general : state:Random.State.t -> int -> t
(** A random dense matrix with entries in [\[-1,1)] but a guaranteed
    nonzero pivot structure (resampled until the explicit-pivot LU
    succeeds); exercises non-trivial pivoting paths. *)

val norm_frobenius : t -> float
val norm_inf : t -> float
(** Maximum absolute row sum. *)

val max_abs : t -> float

val max_abs_diff : t -> t -> float
(** Infinity distance between same-shaped matrices; handy in tests. *)
