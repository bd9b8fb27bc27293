(** Coordinate-format builder for sparse matrices.

    The matrix generators assemble entries in arbitrary order (finite
    elements touch each node several times); this builder accumulates
    [(row, col, value)] triplets, sums duplicates, and converts to
    {!Csr.t}. *)

type t

val create : n_rows:int -> n_cols:int -> t

val add : t -> int -> int -> float -> unit
(** [add t i j v] accumulates [v] into entry (i,j).
    @raise Invalid_argument if out of range. *)

val to_csr : ?drop_zeros:bool -> t -> Csr.t
(** Sort, merge duplicates by summation, and build the CSR matrix.
    [drop_zeros] (default false) removes entries that cancelled to 0. *)
