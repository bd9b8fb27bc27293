(** Block-ILU(0): pattern-restricted block incomplete LU with
    level-scheduled batched triangular solves.

    The second preconditioner family.  Where
    block-Jacobi factorizes the diagonal blocks and ignores everything
    else, block-ILU(0) keeps the whole matrix coupled [Bollhöfer et al.,
    "High Performance Block Incomplete LU Factorization"]: the rows are
    partitioned with the same {!Supervariable} blocking, and a block
    elimination restricted to the {e block} sparsity pattern computes

    - [L_ik = A_ik · A_kk⁻¹] for every strictly-lower pattern block, and
    - [A_ij := A_ij - L_ik · A_kj] for the pattern-restricted trailing
      updates,

    with every diagonal block factored by {e one} variable-size
    {!Vblu_core.Batched_lu.factor} launch per elimination wave (a level
    set of the lower block DAG from {!Vblu_sparse.Levels}), every right
    division by one {!Vblu_core.Batched_trsm} wave (via the transposed
    factors: [L_ikᵀ = solve(lu(A_kkᵀ), A_ikᵀ)]), and every trailing
    update by one {!Vblu_core.Batched_gemm} wave — no per-block scalar
    factorizations anywhere.

    Application solves [M x = r] with [M = L·U] ([L] unit block lower,
    [U] block upper whose diagonal blocks carry their LU factors) as
    {e level-scheduled sparse block-triangular solves} [Li & Saad]: each
    level of the dependency DAG is priced as batched GEMM waves (the
    off-diagonal couplings) plus one batched TRSV wave (the diagonal
    solves of the backward sweep), so the simulator's coalescing and
    transaction model prices the real parallel cost of every level.
    The charges depend only on the pattern: the first apply launches the
    waves once (the {e charge pass}) and memoises them, and every apply
    runs one host sweep per triangle in the kernels' rounding sequences —
    bitwise the wave sequence — then publishes (under [?obs], replays)
    the memo.  With every block of size 1 the whole construction
    collapses bitwise onto the scalar {!Ilu0} factorization and solve.
    Apply is bit-identical across domain counts and storage layouts.

    Each wave's diagonal factorizations settle through
    {!Block_jacobi.settle}, as block-Jacobi handles do: an ABFT fault
    goes to the {!Block_jacobi.recovery_policy}, a breakdown to the
    {!Block_jacobi.breakdown_policy}, and a [Fail] raises after setup.

    Concurrency caveat (same as {!Block_jacobi}): one preconditioner
    value must not be applied from several threads at once — the sweep
    reuses one buffer for its diagonal solves. *)

open Vblu_smallblas
open Vblu_sparse

(** Modelled cost of one batched wave of the most recent apply. *)
type wave = {
  sweep : string;  (** ["forward"] or ["backward"]. *)
  level : int;  (** DAG level the wave belongs to. *)
  kernel : string;  (** ["gemm"] or ["trsv"]. *)
  problems : int;  (** batch occupancy of the wave. *)
  transactions : int;  (** 32-byte global-memory transactions. *)
  modelled_us : float;
}

type apply_stats = {
  waves : wave array;  (** in execution order. *)
  modelled_seconds : float;  (** sum of the wave times. *)
}

type info = {
  blocking : Supervariable.blocking;
  lower : Levels.schedule;  (** forward-sweep dependency DAG. *)
  upper : Levels.schedule;  (** backward-sweep dependency DAG. *)
  factor_info : int;
      (** LAPACK-style first-breakdown status: [0] when every diagonal
          block factored cleanly, [i + 1] when block [i] was the first
          to break down (whatever the policy then did about it). *)
  degraded_blocks : int list;
      (** blocks whose diagonal factors fell back to the identity,
          ascending (singular blocks plus exhausted-recovery corrupt
          ones). *)
  perturbed_blocks : int list;
      (** blocks salvaged by the [Perturb] diagonal shift, ascending. *)
  recovered_blocks : int list;
      (** blocks whose ABFT failure a [Recompute] refactorization
          repaired, ascending. *)
  corrupt_blocks : int list;
      (** blocks ABFT flagged that recovery left at the identity,
          ascending; also counted in [degraded_blocks]. *)
  abft_failures : int;
      (** failed ABFT verdicts over the LU launches of the most recent
          build or update, rescues included.  A block is two
          factorization problems (normal and transposed), so this counts
          detections in the unit a fault plan fires in. *)
  setup_launches : int;  (** batched kernel launches issued by setup. *)
  setup_modelled_seconds : float;
      (** summed modelled time of the setup launches. *)
  last_apply : apply_stats option ref;
      (** per-wave breakdown of the most recent apply (modelled numbers:
          bit-identical across runs, domains and layouts). *)
}

val create :
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?layout:Vblu_core.Batch.layout ->
  ?policy:Block_jacobi.breakdown_policy ->
  ?recovery:Block_jacobi.recovery_policy ->
  ?faults:Vblu_fault.Fault.Plan.t ->
  ?abft:bool ->
  ?max_block_size:int ->
  ?blocking:Supervariable.blocking ->
  ?obs:Vblu_obs.Ctx.t ->
  Csr.t ->
  Preconditioner.t * info
(** [create a] is [(precond h, handle_info h)] of [h = handle a]: the
    one setup path, for callers that never refresh. *)

(** {1 Amortized setup}

    The sparsity pattern — hence the blocking, both level schedules, and
    every dependency list — is invariant under value drift, so a
    {!handle} keeps the elimination state alive across time steps and
    {!update} re-runs only the dirty part: block rows whose own entries
    moved past the tolerance, closed over the lower elimination DAG (a
    row whose dependency re-eliminated has changed inputs and must
    re-eliminate too).  Elimination waves with no dirty rows issue no
    launches.  Clean rows keep their post-elimination blocks and factors
    bitwise, so [update ~tol:0.] is bit-identical to a fresh setup. *)

type handle

val handle :
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?layout:Vblu_core.Batch.layout ->
  ?policy:Block_jacobi.breakdown_policy ->
  ?recovery:Block_jacobi.recovery_policy ->
  ?faults:Vblu_fault.Fault.Plan.t ->
  ?abft:bool ->
  ?max_block_size:int ->
  ?blocking:Supervariable.blocking ->
  ?obs:Vblu_obs.Ctx.t ->
  Csr.t ->
  handle
(** [handle a] partitions and eliminates [a], and keeps the working
    state for later {!update} calls: dense arenas for every block of the
    pattern and per-row factor storage, allocated once here and refilled
    in place by every update.  The returned {!precond} stays valid across
    refreshes, and keeps its memoised apply charges.
    [max_block_size] (default 32) bounds the supervariable agglomeration;
    [blocking] overrides the partition; [layout] (default [Blocked])
    selects the storage layout of every batched launch; [policy] (default
    [Identity_block]) handles singular diagonal blocks.  [?faults] arms
    a fault plan on the elimination's LU launches, and [~abft:true]
    (default false) checks them under [recovery] (default
    [Recompute 1]); all three hold for every {!update}.

    [?obs] records the build (an ["ilu0.setup"] span, the
    [precond.ilu0.*] labelled registry metrics — modelled setup seconds,
    level counts, per-level occupancy, degraded blocks — plus every kernel
    launch) and wraps the apply in an ["ilu0.apply"] span.
    @raise Invalid_argument if [a] is not square, a diagonal block
    exceeds the warp width, or the blocking is invalid.
    @raise Block_jacobi.Singular_block or [Block_jacobi.Fault_detected]
    (variant [Lu], first block) under a [Fail] breakdown or recovery
    policy. *)

val update :
  ?tol:float -> ?force_all:bool -> handle -> Csr.t -> Block_jacobi.update_stats
(** [update h a] re-extracts values from [a] (same pattern as the handle
    matrix), marks dirty the block rows whose entries changed by more
    than [tol] (default [0.] — any bitwise change; see
    {!Block_jacobi.range_dirty}) or that ABFT left corrupt, plus the DAG
    closure, and re-eliminates exactly those rows through the filtered
    batched waves.  [~force_all:true] re-eliminates everything (full-refresh
    baseline).  [dirty_blocks]/[refactored]/[reused] in the returned
    stats count block rows; [launches]/[setup_transactions]/
    [modelled_seconds] cover the TRSM/GEMM/LU waves of those rows, each
    charged in full.  A wave whose cache keys are all certified takes
    its charge from the launch cache and runs its numerics as a host
    sweep over the arenas, without staging or launching; the others
    (cold keys, host LU breakdowns, a fault plan or ABFT) launch.  Stats,
    factors and cache tallies are bitwise those of launching every
    wave.
    @raise Invalid_argument on a dimension or sparsity-pattern mismatch.
    @raise Block_jacobi.Singular_block under the [Fail] breakdown policy
    when a dirty row breaks down, and [Block_jacobi.Fault_detected] under
    the [Fail] recovery policy when ABFT flags one.  The value snapshot
    does not advance (as in {!Block_jacobi.update}), so an update with
    the same matrix raises again; the handle's factors hold the failed
    elimination, and the rows it re-eliminated are re-eliminated by the
    next update, whatever its matrix. *)

val charge_pass :
  ?obs:Vblu_obs.Ctx.t -> handle -> float array -> float array * apply_stats
(** [charge_pass h r] runs the level-wave launches of one apply of [r]
    (recorded into [?obs]) and returns their solution and charges,
    leaving the memo alone: the reference a test holds the sweep to. *)

val precond : handle -> Preconditioner.t
val last_update : handle -> Block_jacobi.update_stats
(** Stats of the most recent build or refresh. *)

val handle_info : handle -> info
(** The {!info} record rebuilt from the current per-row state;
    [setup_launches]/[setup_modelled_seconds] cover the most recent
    build or refresh. *)

val handle_factors : handle -> (Matrix.t * int array) array
(** Copies of the per-block-row diagonal factors (normal storage) and
    pivots, exposed so tests can assert fresh/update identity. *)

type ras_info = {
  subdomains : int;
  overlap : int;  (** rows of one-sided overlap. *)
  owned : (int * int) array;  (** per-subdomain owned range [lo, hi). *)
  extended : (int * int) array;  (** overlapped range actually solved. *)
  local_info : info array;  (** per-subdomain block-ILU(0) info. *)
}

val ras :
  ?pool:Vblu_par.Pool.t ->
  ?prec:Precision.t ->
  ?layout:Vblu_core.Batch.layout ->
  ?policy:Block_jacobi.breakdown_policy ->
  ?recovery:Block_jacobi.recovery_policy ->
  ?faults:Vblu_fault.Fault.Plan.t ->
  ?abft:bool ->
  ?max_block_size:int ->
  ?subdomains:int ->
  ?overlap:int ->
  ?obs:Vblu_obs.Ctx.t ->
  Csr.t ->
  Preconditioner.t * ras_info
(** Restricted additive Schwarz over block-ILU(0) local solves (the
    ChiDG production pattern): the rows are split into [subdomains]
    (default 4) contiguous owned ranges, each extended by [overlap]
    (default 8) rows on both sides; a block-ILU(0) preconditioner is
    built on every extended principal submatrix, and apply restricts the
    residual to each extended range, solves locally, and scatters {e
    only the owned rows} back — the restricted variant, whose disjoint
    writes keep the result deterministic and domain-count independent.
    With [subdomains = 1] and [overlap = 0] this is exactly {!create}.
    @raise Invalid_argument on [subdomains < 1], [overlap < 0], or a
    non-square matrix. *)
