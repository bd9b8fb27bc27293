(** Gauss-Huard factorization with column pivoting.

    The Gauss-Huard (GH) algorithm [Huard 1979; Dekker, Hoffmann & Potma
    1997] solves a dense linear system with the same [2/3 n^3] cost and the
    same practical stability as LU with partial pivoting, but organizes the
    elimination differently: at step [k] it {e lazily} updates row [k]
    against all previous rows, pivots by {e column} exchange, and then
    {e eagerly} annihilates the entries of column [k] {e above} the
    diagonal.  This is the algorithm behind the paper's "Gauss-Huard" and
    "Gauss-Huard-T" baselines [Anzt et al., ICCS 2017].

    The "-T" variant performs the identical factorization but writes the
    factors back transposed, trading non-coalesced writes in the (one-off)
    factorization for coalesced reads in the (per-iteration) solve; on the
    CPU reference path the two variants are numerically identical, and the
    distinction matters only to the simulated kernels. *)

type storage =
  | Normal      (** factors stored as computed (column-major). *)
  | Transposed  (** factors stored transposed — the "GH-T" layout. *)

type factors = {
  gh : Matrix.t;
      (** Packed transformed matrix: multipliers of the lazy row update in
          the strict lower triangle, pivots on the diagonal, multipliers of
          the eager column elimination in the strict upper triangle.
          Stored according to {!field-storage}. *)
  cperm : int array;
      (** [cperm.(j)] is the original column (unknown) index sitting at
          permuted position [j] after the column exchanges, so the solution
          satisfies [x.(cperm.(j)) = y.(j)]. *)
  storage : storage;
}

val factor : ?prec:Precision.t -> ?storage:storage -> Matrix.t -> factors
(** Factorize a square block.  The input is not modified.
    @raise Error.Singular on a zero pivot (structurally singular block).
    @raise Invalid_argument if the matrix is not square. *)

val factor_status :
  ?prec:Precision.t -> ?storage:storage -> Matrix.t -> factors * int
(** Non-raising {!factor} with the LAPACK [info] convention: [info = 0] on
    success, [k + 1] when the first zero pivot (after the column exchange)
    appears at (0-based) step [k].  On breakdown the elimination freezes —
    steps [0 .. k-1] applied, the partial factors returned as-is. *)

val solve : ?prec:Precision.t -> factors -> Vector.t -> Vector.t
(** [solve f b] returns [x] with [A x = b]: a forward sweep combining a DOT
    against the lower multipliers with the pivot division, interleaved with
    AXPY updates against the upper multipliers, then the inverse column
    permutation.  Cost [2 n^2] flops, like a pair of triangular solves. *)

val solve_status : ?prec:Precision.t -> factors -> Vector.t -> Vector.t * int
(** Non-raising {!solve} for possibly-degenerate factors (e.g. from a
    frozen {!factor_status}): on a zero diagonal at step [k] the sweep
    stops, [info = k + 1], and the unpermuted tail of the solution keeps
    its frozen partial values. *)
