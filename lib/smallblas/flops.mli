(** Floating-point operation counts for the small-block kernels.

    These are the {e useful} flop counts by which the paper normalizes its
    GFLOPS plots (Section II-C): a kernel that performs extra work — e.g.
    padding a [k]-sized problem to a 32-wide register tile — still gets
    credited only for the useful flops, which is exactly how the padding
    penalty becomes visible in Figures 4–5. *)

val getrf : int -> float
(** LU factorization of an [n]×[n] block: [2/3 n³ - n²/2 - n/6] multiplies
    and adds plus [n(n-1)/2] divisions — the exact count of the
    right-looking algorithm. *)

val trsv_pair : int -> float
(** One unit-lower plus one upper triangular solve: [2 n²] flops. *)

val gauss_huard_factor : int -> float
(** Same leading term as {!getrf} (the paper: "the same properties ...
    distinct algorithms"). *)

val gauss_huard_solve : int -> float
(** [2 n²] flops, like {!trsv_pair}. *)

val invert : int -> float
(** Explicit inversion by Gauss-Jordan: [2 n³] flops. *)

val gemv : int -> float
(** Dense matrix-vector product: [2 n²] flops. *)
