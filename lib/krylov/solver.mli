(** Configuration and result types of the IDR(s) solve ({!Idr}).

    The stopping rule matches the paper's experiments: start from a zero
    initial guess, stop once the 2-norm of the residual has dropped by
    [rtol] relative to the right-hand side (10⁻⁶ in Table I), give up after
    [max_iters] (10,000 in Table I). *)

type config = {
  max_iters : int;
  rtol : float;  (** relative residual reduction target. *)
}

val default_config : config
(** 10,000 iterations, [rtol = 1e-6]. *)

type outcome =
  | Converged
  | Max_iterations
  | Breakdown of string
      (** the solver hit a zero denominator or stagnated irrecoverably. *)

type stats = {
  outcome : outcome;
  iterations : int;  (** matrix-vector products with [A] consumed. *)
  residual_norm : float;  (** final true-residual 2-norm. *)
  rhs_norm : float;
  solve_seconds : float;
}

val converged : stats -> bool

val pp_stats : Format.formatter -> stats -> unit
