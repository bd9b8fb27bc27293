(** Coalesced batch execution for the solver service.

    Takes many independent preconditioner setup+apply problems and runs
    the block-Jacobi ones as {e one} shared variable-size batch launch
    pair (block-ILU(0) requests ride the same wave through their own
    batched setups).  Every block-Jacobi problem gets a
    {!Vblu_precond.Block_jacobi.handle} — the {!Setup_cache}d one when its
    fingerprint recurs, else a new one — and one multi-handle
    {!Vblu_precond.Block_jacobi.refresh} factors the dirty blocks of all
    of them in a single {!Vblu_core.Batched_lu.factor} launch.  The
    batcher itself only adds one {!Vblu_core.Batched_trsv.solve} launch
    over every block of the wave, read from the handles' packed factors,
    and the scatter of the solution segments — the amortization the
    paper's batched kernels exist for.

    Bit-identity contract: blocking, extraction and factorization are
    [Block_jacobi]'s own, and the batched warp kernels replicate the
    {!Vblu_smallblas} reference op schedules exactly, so the per-problem
    solutions scattered out of the shared launch are bitwise identical
    to a direct [Block_jacobi.create ~variant:Lu |> apply] on the same
    problem — including the identity fallback for blocks whose LU broke
    down (the rhs segment is copied through unchanged, exactly like
    [Block_jacobi]'s identity solver). *)

open Vblu_smallblas
open Vblu_sparse

(** Which preconditioner family a request asks the service to apply. *)
type precond =
  | Jacobi
      (** decoupled diagonal-block solve — coalesced with every other
          [Jacobi] problem of the wave into one shared LU+TRSV launch
          pair. *)
  | Ilu0
      (** coupled block-ILU(0): per-problem setup whose elimination and
          level-scheduled apply are themselves batched waves (see
          {!Vblu_precond.Block_ilu0}), executed alongside the wave's
          coalesced Jacobi launch. *)

type problem = {
  a : Csr.t;  (** square system matrix. *)
  rhs : Vector.t;  (** right-hand side, length = dimension of [a]. *)
  max_block_size : int;  (** supervariable agglomeration bound, 1..32. *)
  precond : precond;  (** preconditioner family to apply. *)
}

val validate : problem -> (unit, string) result
(** Admission-time check: square matrix, matching rhs length, block bound
    within the warp width, and finite matrix values and rhs (a NaN or
    ±Inf is reported with its position).  Returns the rejection reason —
    the service refuses invalid work at submit, never mid-launch. *)

type outcome = {
  y : Vector.t;  (** the preconditioner application [M^{-1} rhs]. *)
  blocks : int;  (** diagonal blocks this problem contributed. *)
  degraded_blocks : int list;
      (** problem-local indices of blocks that hit an LU/TRSV breakdown
          and fell back to the identity (rhs copied through). *)
  faulted_blocks : int list;
      (** problem-local indices of blocks whose ABFT verdict came back
          [Failed] — the transient-fault signal the service retries
          on. *)
}

type launch_report = {
  outcomes : outcome array;  (** one per problem, in submission order. *)
  problems : int;
  coalesced_blocks : int;  (** total blocks across the shared batch. *)
  setup_fresh_blocks : int;
      (** blocks (Jacobi) / block rows (ILU0) factored by this wave's
          launches. *)
  setup_reused_blocks : int;
      (** blocks whose cached factors (or identity fallback, for a block
          that broke down) were reused bitwise — 0 without a
          {!Setup_cache}. *)
  modelled_seconds : float;
      (** modelled kernel time of the shared LU + TRSV launches — what
          the service's virtual clock advances by. *)
}

val empty_report : launch_report

val run :
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?faults:Vblu_fault.Fault.Plan.t ->
  ?abft:bool ->
  ?cache:Setup_cache.t ->
  ?obs:Vblu_obs.Ctx.t ->
  problem array ->
  launch_report
(** Execute every problem in the wave: the [Jacobi] problems through one
    coalesced launch pair, each [Ilu0] problem through its own batched
    block-ILU(0) setup and level-scheduled apply (bitwise identical to a
    direct {!Vblu_precond.Block_ilu0.create} + apply).  An empty array
    is a no-op returning {!empty_report}.  Fault plans address [Jacobi]
    problems by {e global block index} within the coalesced batch and
    each [Ilu0] setup independently; claims are one-shot, so re-running
    a faulted request comes back clean.

    [?cache] enables cross-wave setup reuse for recurring problems (see
    {!Setup_cache}): blocks whose fingerprinted setup is bitwise current
    skip the factorization launch, without changing any returned [y] —
    reused factors are the bits a fresh launch would compute.  A
    fingerprint that recurs within one wave gives each later problem a
    {!Vblu_precond.Block_jacobi.copy} of the cached handle, so every
    occurrence reuses the blocks it left bitwise unchanged, and the
    wave's last occurrence owns the cache entry afterwards.  One bypass
    rule covers both families: with a fault plan armed the cache is
    neither read nor written; otherwise each problem refreshes its
    cached handle or builds one (under the wave's [abft], as an uncached
    run would) and stores it.  A Jacobi block flagged by either launch's
    ABFT verdict, and an ILU(0) block row ABFT left corrupt, is
    refactored on its next wave.  Records [precond.setup.*] metrics once
    per family and wave when [?obs] is given.
    @raise Invalid_argument on an invalid problem — callers are expected
    to have {!validate}d at admission. *)
