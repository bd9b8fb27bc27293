(** Reporting drivers for the solver experiments: Figure 8 (convergence
    histogram), Figure 9 (total time per matrix), Table I (iterations and
    runtimes per matrix and block-size bound), and the
    factorization-vs-inversion ablation.  All consume one
    {!Study.t} pass over {!Study.sweep}. *)

val fig8 : Format.formatter -> Study.t -> unit
(** Histogram of IDR(4) iteration overhead: for each block-size bound, how
    often the LU-based preconditioner converged in fewer iterations than
    the GH-based one (left of centre) or vice versa, bucketed by overhead
    percentage — the paper's symmetry argument. *)

val fig9 : Format.formatter -> Study.t -> unit
(** Total time (setup + solve) of IDR(4) with LU / GH / GH-T block-Jacobi
    at bound 32, matrices sorted by total runtime; non-converged cases are
    dropped, as in the paper. *)

val table1 : Format.formatter -> Study.t -> unit
(** Table I: per matrix — size, nnz, ID, then iterations and time for
    scalar Jacobi and LU-based block-Jacobi at each bound ("-" where the
    solver did not converge). *)

val ablation_variants : Format.formatter -> Study.t -> unit
(** Factorization-based (LU) vs inversion-based (GJE) block-Jacobi at
    bound 32: setup/solve split and iteration counts (Section II-C's
    trade-off). *)
