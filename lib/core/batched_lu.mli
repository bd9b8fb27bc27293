(** The paper's variable-size batched LU factorization (Section III-A).

    One warp per block: thread (lane) [r] holds row [r] of the block in its
    registers, the matrix is read from global memory exactly once (one
    coalesced load per column), the whole factorization runs in registers
    with warp shuffles providing pivot search and pivot-row broadcast, and
    the factors are written back once.

    Blocks smaller than the warp width are padded with zero rows/columns to
    the full 32-wide register tile; the elimination performs only the first
    [size] steps, but every step's trailing update spans the padded width —
    the "eager" overhead the paper measures against lazy Gauss-Huard in
    Figure 5 and promises to remove in future work.

    Three pivoting modes mirror the paper's discussion:
    - {!Implicit} (the contribution): rows never move; each thread tracks
      whether its row has been pivoted, and the accumulated permutation is
      applied for free by scattering rows to their pivot positions during
      the write-back.
    - {!Explicit}: textbook partial pivoting with physical row exchanges —
      two threads swap register contents through shuffles at every step
      while the rest of the warp idles; the ablation baseline.
    - {!No_pivoting}: for blocks known to need none.

    All modes produce identical packed factors ([perm] differs only in how
    it was obtained); the result layout matches
    {!Vblu_smallblas.Lu.factors}. *)

open Vblu_smallblas
open Vblu_simt
open Vblu_fault

type pivoting =
  | Implicit
  | Explicit
  | No_pivoting

type result = {
  factors : Batch.t;
      (** packed LU factors per block, rows in pivot order.  Complete in
          [Exact] mode; in [Sampled] mode only the representative block of
          each size class is populated. *)
  pivots : int array array;
      (** per-block permutation: [pivots.(i).(k)] is the original row index
          of block [i]'s [k]-th pivot row. *)
  info : int array;
      (** LAPACK-style per-problem status: [info.(i) = 0] if block [i]
          factored cleanly, [k + 1] if its first zero pivot appeared at
          (0-based) elimination step [k].  The warp predicates the dead
          problem off and completes deterministically — no exception is
          raised, and the flagged block holds the frozen partial factors
          (steps [0 .. k-1] applied; for implicit pivoting the remaining
          rows take the remaining pivot steps in increasing row order so
          [pivots.(i)] is still a total permutation).  In [Sampled] mode
          only the representative block of each size class is flagged,
          like [factors]. *)
  verdicts : Fault.verdict array;
      (** per-problem ABFT verdict.  [Unchecked] unless [~abft:true] was
          passed (or when the block broke down — a nonzero [info] already
          flags it); [Passed]/[Failed] report whether the factors
          reproduce the row checksums encoded before elimination.  A
          fault injected by [?faults] into a checked problem flips its
          verdict to [Failed]; clean problems stay [Passed]. *)
  stats : Launch.stats;  (** modelled kernel performance. *)
}

val factor :
  ?cfg:Config.t ->
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?mode:Sampling.mode ->
  ?pivoting:pivoting ->
  ?faults:Fault.Plan.t ->
  ?abft:bool ->
  ?obs:Vblu_obs.Ctx.t ->
  Batch.t ->
  result
(** Factorize every block of the batch.  Defaults: P100 model, double
    precision, [Exact] execution, [Implicit] pivoting.  [?pool] fans the
    independent blocks out over domains ({!Vblu_simt.Sampling.run});
    results are bit-identical to the sequential run (including [info]).
    An empty batch is a no-op returning empty factors and zero-time stats.
    Numerically singular blocks never raise — they are flagged in [info].

    [?faults] (default none) arms a deterministic fault plan: targeted
    problems get bit flips / perturbations during elimination, claims are
    one-shot per (problem, step) so a retry of the same plan runs clean.
    [~abft:true] (default false) encodes row checksums before elimination
    and verifies them from registers at write-back, filling [verdicts];
    the checksum work goes through the normal warp ops so its cost shows
    up in [stats].  With both absent the kernels are bit-identical to the
    unprotected path — no overhead when disabled.

    [?obs] records the launch (a ["getrf.*"] span of the modelled time,
    plus registry counters and ABFT verdict totals) into an observability
    context; absent means nothing is recorded and behaviour is
    bit-identical to the uninstrumented path.
    @raise Invalid_argument if any block exceeds the warp width (32). *)

val charge :
  ?cfg:Config.t ->
  ?obs:Vblu_obs.Ctx.t ->
  prec:Precision.t ->
  layout:Batch.layout ->
  int array ->
  Launch.stats option
(** [charge ~prec ~layout sizes] is {!Sampling.charge} for the implicit,
    unprotected {!factor} launch over blocks of [sizes] in [layout]; with
    [Some], [?obs] also records the launch's (all [Unchecked]) verdicts.
    [None] — nothing counted — means the caller must factor instead.  A
    breakdown would take the launch off the cached path, so the caller
    must only take the charge for blocks it factored with [info = 0]. *)
