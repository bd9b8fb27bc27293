(** The paper's variable-size batched triangular solves (Section III-B).

    One warp per block; thread [k] holds element [k] of the right-hand
    side in a register.  The triangular factors offer no reuse, so each
    matrix element is read exactly once — one coalesced column load per
    elimination step (the "eager"/AXPY variant; column-major storage makes
    the column reads coalesced, which is why the paper selects it).  The
    pivoting permutation of the factorization is applied {e while reading}
    the right-hand side: each lane simply loads its permuted element, at no
    extra cost.

    The DOT-based "lazy" variant is provided for the paper's Figure 2
    ablation: it reads one {e row} per step (non-coalesced) and needs a
    warp reduction per step. *)

open Vblu_smallblas
open Vblu_simt
open Vblu_fault

type variant =
  | Eager  (** AXPY-based, column reads; the paper's kernel. *)
  | Lazy   (** DOT-based, row reads; ablation baseline. *)

type result = {
  solutions : Batch.vec;
      (** per-block solutions; complete in [Exact] mode, representatives
          only in [Sampled] mode. *)
  info : int array;
      (** per-problem status: [0] on success, [k + 1] when the upper sweep
          of problem [i] hit a zero diagonal at (0-based) step [k].  The
          flagged problem's solution holds the frozen partial state (steps
          [s-1 .. k+1] applied); other problems are unaffected.  In
          [Sampled] mode only class representatives are flagged. *)
  verdicts : Fault.verdict array;
      (** per-problem ABFT verdict; [Unchecked] unless [~abft:true] was
          passed (or when the sweep broke down — a nonzero [info] already
          flags it).  The check re-evaluates [L·(U·x)] from fresh factor
          reads and compares it against the permuted right-hand side
          captured at load time. *)
  stats : Launch.stats;
}

val solve :
  ?cfg:Config.t ->
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?mode:Sampling.mode ->
  ?variant:variant ->
  ?faults:Fault.Plan.t ->
  ?abft:bool ->
  ?obs:Vblu_obs.Ctx.t ->
  factors:Batch.t ->
  pivots:int array array ->
  Batch.vec ->
  result
(** [solve ~factors ~pivots rhs] solves every block system using the packed
    LU factors and pivot permutations of {!Batched_lu.factor} (GETRS:
    permute, unit-lower solve, upper solve).  [?pool] distributes blocks
    over domains with bit-identical results (including [info]); an empty
    batch is a no-op.  A zero diagonal never raises — it is flagged in
    [info].

    [?faults] arms a deterministic fault plan for the targeted problems
    (one-shot claims; see {!Vblu_fault.Fault.Plan}).  [~abft:true]
    verifies each clean solution against the right-hand side by
    re-reading the factors (roughly doubling the traffic — the honest
    cost of solve-phase detection) and fills [verdicts]; both default
    off, leaving the kernels bit-identical to the unprotected path.
    @raise Invalid_argument on shape mismatch between factors and rhs, or
    when [pivots] does not have exactly one (possibly empty) entry per
    block. *)
