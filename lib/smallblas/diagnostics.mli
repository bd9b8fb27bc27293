(** Numerical-quality diagnostics for factorizations and solves.

    Used by the test suite and by the stability ablation (implicit vs
    explicit pivoting vs no pivoting). *)

val factor_residual : Matrix.t -> Lu.factors -> float
(** [factor_residual a f] is [‖P·a − L·U‖_F / ‖a‖_F] — the normwise backward
    error of the factorization (≈ machine epsilon for a stable LU). *)

val solve_residual : Matrix.t -> Vector.t -> Vector.t -> float
(** [solve_residual a x b] is [‖a·x − b‖∞ / (‖a‖∞ ‖x‖∞ + ‖b‖∞)] — the
    normwise relative residual of a computed solution. *)

val growth_factor : Matrix.t -> Lu.factors -> float
(** The element-growth factor [max|U| / max|A|] of the factorization; the
    quantity partial pivoting keeps small in practice. *)
