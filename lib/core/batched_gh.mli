(** Batched Gauss-Huard factorization and solve — the paper's primary
    comparison kernels ("Gauss-Huard" and "Gauss-Huard-T", from the
    companion ICCS'17 paper).

    Numerics come from the {!Vblu_smallblas.Gauss_huard} reference (the
    same algorithm the GPU kernel executes); the performance counters are
    charged analytically following the kernel structure:

    {b Factorization} (lane = column, registers hold one column each,
    implicit {e column} pivoting): step [k] performs the lazy update of row
    [k] and the eager elimination of column [k] above the diagonal — both
    are rank-1 register updates driven by one shuffled scalar per processed
    step, so the executed work grows with [k] (lazy), not with the padded
    width (eager): the reason GH beats LU on small blocks in Figure 5.  GH
    pivoting additionally replicates the pivot-index list in every thread
    (one bookkeeping op per step — the overhead the paper notes implicit LU
    avoids).  The "-T" variant writes the factors back transposed:
    non-coalesced stores, charged accordingly.

    {b Solve}: the natural GH solve replays the row transformations — a
    DOT against row [k]'s lower multipliers plus the pivot division, then
    the unit-upper backward sweep, all reading the matrix {e by rows}:
    non-coalesced loads in normal storage (slow, Figure 7), coalesced in
    the "-T" layout (the payoff). *)

open Vblu_smallblas
open Vblu_simt
open Vblu_fault

type result = {
  factors : Gauss_huard.factors array;
      (** complete in [Exact] mode; representatives only in [Sampled]. *)
  info : int array;
      (** per-problem status: [0] on success, [k + 1] for the first zero
          pivot at (0-based) step [k] ({!Vblu_smallblas.Gauss_huard.factor_status});
          flagged blocks hold frozen partial factors. *)
  verdicts : Fault.verdict array;
      (** per-problem ABFT verdict ([Unchecked] unless [~abft:true]): a
          checksum solve against the row-sum vector [A·e], accepted iff
          the residual stays within the backward-stable envelope. *)
  stats : Launch.stats;
}

type solve_result = {
  solutions : Batch.vec;
  solve_info : int array;
      (** [0] on success; [k + 1] when the forward sweep of problem [i]
          met a zero diagonal at step [k] (degenerate factors from a
          flagged factorization). *)
  solve_verdicts : Fault.verdict array;
      (** per-problem verdict ([Unchecked] unless [~abft:true]): dual
          modular redundancy — the deterministic reference solve is redone
          and compared bitwise, so any mismatch is corruption. *)
  solve_stats : Launch.stats;
}

val factor :
  ?cfg:Config.t ->
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?mode:Sampling.mode ->
  ?storage:Gauss_huard.storage ->
  ?faults:Fault.Plan.t ->
  ?abft:bool ->
  ?obs:Vblu_obs.Ctx.t ->
  Batch.t ->
  result
(** Factorize every block.  [storage] selects GH (default) or GH-T.
    Singular blocks never raise — they are flagged in [info].

    GH numerics run on the CPU reference with analytically charged
    counters, so [?faults] injects at the same level: each claimed site
    corrupts one factor entry (row = site lane, column = site step)
    after factorization; claims are one-shot, so a retry runs clean.
    [~abft:true] fills [verdicts] via the checksum solve, whose cost is
    charged to [stats] like the kernel's own work. *)

val solve :
  ?cfg:Config.t ->
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?mode:Sampling.mode ->
  ?faults:Fault.Plan.t ->
  ?abft:bool ->
  ?obs:Vblu_obs.Ctx.t ->
  result ->
  Batch.vec ->
  solve_result
(** Apply the factors to a batch of right-hand sides.  [?faults] corrupts
    one solution entry per claimed site; [~abft:true] re-runs the solve
    and compares bitwise (charged as a second solve in [solve_stats]). *)
