(** Compressed Sparse Row matrices.

    CSR is the storage format the paper assumes for the system matrix: the
    diagonal-block extraction kernel (Section III-C) is specifically about
    pulling dense blocks out of this layout.  Rows keep their column
    indices sorted; duplicate entries are disallowed by construction. *)

open Vblu_smallblas

type t = private {
  n_rows : int;
  n_cols : int;
  row_ptr : int array;  (** length [n_rows + 1]; row [i] occupies
                            [row_ptr.(i) .. row_ptr.(i+1) - 1]. *)
  col_idx : int array;  (** column index of each stored entry, sorted
                            within each row. *)
  values : float array;
}

val create :
  n_rows:int -> n_cols:int -> row_ptr:int array -> col_idx:int array ->
  values:float array -> t
(** Builds a CSR matrix after validating the invariants (monotone
    [row_ptr], in-range and strictly increasing column indices per row,
    matching array lengths).  @raise Invalid_argument if any fails. *)

val nnz : t -> int

val dims : t -> int * int

val get : t -> int -> int -> float
(** [get a i j] is the stored value at (i,j), or [0.] — binary search
    within the row. *)

val of_dense : ?threshold:float -> Matrix.t -> t
(** Keeps entries with magnitude above [threshold] (default: exact
    zeros dropped). *)

val to_dense : t -> Matrix.t
(** For tests and small examples only. *)

val spmv : ?prec:Precision.t -> t -> Vector.t -> Vector.t
(** Sparse matrix–vector product [y = A·x]. *)

val spmv_into : ?prec:Precision.t -> t -> Vector.t -> Vector.t -> unit
(** [spmv_into a x y] overwrites [y] with [A·x] without allocating. *)

val spmv_dots_into :
  ?prec:Precision.t -> y_left:bool -> t -> Vector.t -> Vector.t ->
  ws:Vector.t array -> woff:int -> nd:int -> out:float array -> ooff:int ->
  unit
(** [spmv_into a x y] followed by
    [Vector.dots_into ~y_left y ~ws ~woff ~nd ~out ~ooff], bit for bit, in
    one pass over the rows for up to four dots (more take one further
    pass over [y] per four).  [spmv_into] is its zero-dot case.
    @raise Invalid_argument on a dimension or range mismatch. *)

val diagonal : t -> Vector.t
(** The main diagonal (zeros where absent). *)

val extract_block : t -> row_start:int -> size:int -> Matrix.t
(** Dense copy of the square diagonal block
    [a(row_start .. row_start+size-1, row_start .. row_start+size-1)] —
    the reference against which the extraction kernels are validated. *)

val row_imbalance : t -> float
(** [max row nnz / mean row nnz] — the load-imbalance statistic motivating
    the shared-memory extraction strategy (≫1 for circuit-like systems). *)

val is_symmetric_pattern : t -> bool

val equal : ?tol:float -> t -> t -> bool
(** Same dimensions and elementwise agreement within [tol] (default 0). *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: dimensions, nnz, imbalance, bandwidth. *)
