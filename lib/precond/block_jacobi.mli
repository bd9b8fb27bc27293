(** The factorization-based block-Jacobi preconditioner — the paper's
    target application (Sections II-A, III-C, IV-D).

    Setup: partition the unknowns with supervariable blocking, extract the
    dense diagonal blocks from the CSR matrix, and factorize the whole
    collection with a batched routine.  Application (once per Krylov
    iteration): solve the small triangular systems block by block.

    The [variant] selects the batched factorization the paper compares:

    - {!Lu}: the small-size batched LU with implicit partial pivoting plus
      batched eager triangular solves — the paper's contribution;
    - {!Gh} / {!Ght}: Gauss-Huard with column pivoting (normal and
      transpose-friendly storage);
    - {!Gje_inverse}: the inversion-based variant — Gauss-Jordan explicit
      inverses at setup, dense GEMV at application;
    - {!Cholesky}: the paper's future-work variant for SPD systems — LLᵀ
      factors at half the LU cost; blocks that fail the positivity test
      fall back to pivoted LU;
    - {!Scalar}: plain (point) Jacobi — Table I's leftmost baseline.

    All variants run on the CPU reference path (the numerics are identical
    to the simulated kernels, which the test suite cross-checks).  Block
    factorizations use the non-raising status API, so a singular diagonal
    block never aborts the parallel setup — what happens to it is decided
    by the {!breakdown_policy}, and the affected indices are reported in
    {!info}. *)

open Vblu_smallblas
open Vblu_sparse
open Vblu_par
open Vblu_fault

type variant =
  | Lu
  | Gh
  | Ght
  | Gje_inverse
  | Cholesky
  | Scalar

val variant_name : variant -> string

(** What to do with a diagonal block whose ABFT check fails after setup
    (only reachable with [~abft:true]):

    - [Recompute n]: re-factorize the block, up to [n] times — fault-plan
      claims are one-shot per (problem, step), so the retry runs clean
      and restores bit-identical factors; a block whose retries are
      exhausted degrades to the identity and is reported corrupt;
    - {!Degrade_to_identity}: give up immediately — identity on that
      block, reported corrupt;
    - [Fail]: raise {!Fault_detected} (after the parallel setup joins, so
      the reported block index is the smallest and deterministic).

    Declared before {!breakdown_policy} so that the unqualified [Fail]
    constructor keeps meaning "breakdown" everywhere else. *)
type recovery_policy = Recompute of int | Degrade_to_identity | Fail

val recovery_name : recovery_policy -> string
(** ["recompute:N"], ["degrade"], or ["fail"] — the spelling the CLI
    accepts. *)

val recovery_of_string : string -> (recovery_policy, string) result
(** Inverse of {!recovery_name} (case-insensitive; bare ["recompute"]
    means [Recompute 1]); [Error] carries the message the front ends
    print. *)

(** What to do with a diagonal block whose factorization breaks down:

    - {!Fail}: raise {!Singular_block} (after the parallel setup joins, so
      the reported block index is the smallest one and deterministic);
    - {!Identity_block} (the default): use the identity on that block —
      the preconditioner stays well-defined, the block is merely not
      preconditioned (mirrors MAGMA-sparse);
    - [Perturb eps]: retry after adding [eps * scale] to the block's
      diagonal ([scale] = largest absolute entry of the block, [1.0] if
      the block is all zero); if the shifted block still breaks down, fall
      back to the identity as in {!Identity_block}. *)
type breakdown_policy = Fail | Identity_block | Perturb of float

val policy_name : breakdown_policy -> string
(** ["fail"], ["identity"], or ["perturb:EPS"] — the spelling the CLI
    accepts. *)

val policy_of_string : string -> (breakdown_policy, string) result
(** Inverse of {!policy_name} (case-insensitive, [EPS > 0]); [Error]
    carries the message the front ends print. *)

exception Singular_block of { block : int; variant : variant }
(** Raised by {!create} under the {!Fail} policy for the first (smallest
    index) block whose factorization broke down. *)

exception Fault_detected of { block : int; variant : variant }
(** Raised by {!create} under recovery policy [Fail] for the first
    (smallest index) block whose ABFT check failed. *)

type info = {
  blocking : Supervariable.blocking;
  singular_blocks : int list;
      (** back-compatible alias of the singular part of
          [degraded_blocks]. *)
  degraded_blocks : int list;
      (** indices that fell back to the identity, ascending — singular
          blocks plus blocks left corrupt after exhausted recovery. *)
  perturbed_blocks : int list;
      (** indices salvaged by a [Perturb] diagonal shift, ascending. *)
  recovered_blocks : int list;
      (** indices whose detected fault was repaired by a [Recompute]
          retry, ascending. *)
  corrupt_blocks : int list;
      (** indices whose ABFT check still failed after recovery (identity
          fallback), ascending; also counted in [degraded_blocks]. *)
  abft_failures : int;
      (** failed ABFT checks of the setup, retries included: of {!create},
          or of a handle's blocks in its most recent refresh. *)
}

(** Per-block setup outcome, shared by both preconditioner families
    ({!Block_ilu0} records one per block row).  [Pending] marks a handle
    block not factored yet. *)
type outcome = Healthy | Degraded | Perturbed | Recovered | Corrupt | Pending

val info_of_outcomes :
  abft_failures:int -> Supervariable.blocking -> outcome array -> info
(** The outcome lists, folded in block order (ascending whatever the
    domain count).  [Healthy] and [Pending] blocks appear in none. *)

val rejection :
  policy:breakdown_policy ->
  recovery:recovery_policy ->
  variant ->
  outcome array ->
  exn option
(** What a [Fail] policy raises once every block has settled, on every
    setup path: {!Singular_block} for the first [Degraded] block under the
    breakdown policy [Fail], else {!Fault_detected} for the first [Corrupt]
    one under the recovery policy [Fail].  Blocks are array indices. *)

val resolve_blocking :
  who:string ->
  max_block_size:int ->
  Supervariable.blocking option ->
  Csr.t ->
  Supervariable.blocking
(** The caller's blocking, or the supervariable partition of [a] under
    [max_block_size] when there is none.
    @raise Invalid_argument ["WHO: invalid blocking"] if the given
    blocking does not tile [a]'s rows. *)

val range_dirty :
  tol:float -> float array -> float array -> int -> int -> bool
(** [range_dirty ~tol old cur lo hi]: the refresh dirty test of both
    families over the CSR value range [\[lo, hi)].  At [tol = 0.] an
    entry is dirty when its bit pattern changed; at [tol > 0.] when
    [|cur - old| > tol] or the difference is NaN.  Allocates nothing. *)

val create :
  ?pool:Pool.t ->
  ?prec:Precision.t ->
  ?variant:variant ->
  ?policy:breakdown_policy ->
  ?faults:Fault.Plan.t ->
  ?abft:bool ->
  ?recovery:recovery_policy ->
  ?max_block_size:int ->
  ?blocking:Supervariable.blocking ->
  ?obs:Vblu_obs.Ctx.t ->
  Csr.t ->
  Preconditioner.t * info
(** [create a] builds the preconditioner.  [blocking] overrides the
    supervariable partition (e.g. {!Supervariable.uniform} for the kernel
    studies); [max_block_size] (default 32) is the supervariable
    agglomeration bound otherwise; [policy] (default {!Identity_block})
    decides what happens to singular blocks.
    [Preconditioner.t.setup_seconds] covers blocking + extraction +
    factorization.

    [?obs] records setup into an observability context — a zero-duration
    ["bj.setup"] span (the CPU reference path carries no modelled kernel
    time; wall-clock never enters a trace) with block/outcome counts as
    args, per-outcome registry counters and a block-size histogram — and
    wraps the returned [apply] so every application records a ["bj.apply"]
    span and bumps [bj.apply.count].  Absent means no recording and a
    closure identical to the uninstrumented one.

    Every block settles by {!settle}'s rule, each round a pool task per
    pending block running [variant]'s host factorization.  [?faults]
    lets each claimed site corrupt one entry of the block's stored
    factors right after it is factored (claims are one-shot, keyed by
    block index, so injection is deterministic across domain counts and a
    retry runs clean; {!Scalar} has no factor storage and ignores it).
    [~abft:true] verifies every factored block by a residual check
    against the matrix actually factored and applies [?recovery]
    (default [Recompute 1]) to the blocks that fail.  Without [abft], a
    fault that zeroes a pivot is a breakdown and [policy] settles it.
    With both left at their defaults the setup is bit-identical to the
    unprotected path.
    @raise Invalid_argument if [a] is not square or the blocking invalid.
    @raise Singular_block under the {!Fail} breakdown policy.
    @raise Fault_detected under the [Fail] recovery policy. *)

(** {1 Settling a batched factorization} *)

type settlement = {
  factors : Lu.factors array array;
      (** [factors.(c).(q)]: copy [c] of site [q] from the launch that
          settled it; a [Degraded] or [Corrupt] site keeps its first
          launch's (frozen or faulted) factors. *)
  outcomes : outcome array;  (** per site, never [Pending]. *)
  failures : int array;  (** per site, [Failed] verdicts of every launch. *)
  launch_stats : Vblu_simt.Launch.stats list;  (** in launch order. *)
}

val settle :
  ?pool:Pool.t ->
  prec:Precision.t ->
  layout:Vblu_core.Batch.layout ->
  ?obs:Vblu_obs.Ctx.t ->
  ?faults:Fault.Plan.t ->
  abft:bool ->
  recovery:recovery_policy ->
  policy:(int -> breakdown_policy) ->
  Matrix.t array array ->
  settlement
(** The one outcome rule of every block setup.  {!create}, {!refresh}
    and block-ILU(0)'s elimination waves settle their blocks through the
    same rounds; they differ only in what a round factors with, and
    [settle] is the batched one: [settle ~recovery ~policy copies]
    factors every site's copies ([copies.(c).(q)], at least one copy: the
    block for block-Jacobi, the block and its transpose for block-ILU(0))
    in one {!Vblu_core.Batched_lu.factor} launch, copy-major, [?faults]
    armed, and classifies each site in this order:
    + any copy's ABFT check failed (only under [abft]): a fault, retried
      up to [n] times under [Recompute n] ([Recovered] once clean), else
      [Corrupt];
    + any copy with [info <> 0] or a zero on the factor diagonal an apply
      divides by: a breakdown, retried once on copies shifted by
      [eps * scale] ([scale] = largest absolute entry, [1.0] for an
      all-zero block) under [policy q = Perturb eps] ([Perturbed] once
      clean), else [Degraded];
    + else [Healthy].
    Each retry round is one launch over the sites still pending, plan
    armed.  Nothing raises: the callers apply {!rejection}. *)

(** {1 Amortized setup}

    Time-stepping drivers and the serving layer re-solve systems whose
    sparsity pattern — hence the supervariable blocking — is fixed.  A
    {!handle} keeps the value snapshot and per-block factors alive so a
    {!refresh} only refactors the dirty blocks: blocks whose entries
    moved (bitwise, or by more than {!update}'s tolerance), blocks never
    factored yet, and blocks flagged by an ABFT check.  The dirty blocks of every
    handle in one refresh are gathered into one small variable-size
    batched-LU launch; clean blocks keep their factors, pivots and
    outcome bitwise — including a broken-down block, which keeps its
    identity fallback until its values move.  Because the batched kernel
    is bit-identical to the CPU reference factorization per problem, a
    bitwise refresh is bit-identical to a fresh setup.  {!handle} and
    {!update} are the one-handle case.  Handles cover the {!Lu}
    variant. *)

type handle

type update_stats = {
  dirty_blocks : int list;
      (** indices refactored by this refresh, ascending; over several
          handles, blocks are numbered consecutively in (handle, block)
          order. *)
  refactored : int;  (** [List.length dirty_blocks]. *)
  reused : int;  (** blocks whose factors were reused bitwise. *)
  launches : int;
      (** batched LU launches issued: 0 when nothing moved, 1 for a
          clean refresh, 2 when a [Perturb] rescue pass ran. *)
  setup_transactions : int;
      (** modelled 32-byte global-memory transactions of those
          launches. *)
  modelled_seconds : float;  (** modelled kernel time of those launches. *)
}

val handle :
  ?pool:Pool.t ->
  ?prec:Precision.t ->
  ?policy:breakdown_policy ->
  ?layout:Vblu_core.Batch.layout ->
  ?max_block_size:int ->
  ?blocking:Supervariable.blocking ->
  ?obs:Vblu_obs.Ctx.t ->
  Csr.t ->
  handle
(** [handle a] builds a reusable block-Jacobi setup: every diagonal block
    is factored through one variable-size batched LU launch (bit-identical
    to {!create}[ ~variant:Lu] by the kernel/reference parity contract).
    The returned {!precond} stays valid across refreshes — it applies
    each block from the factors the last refresh installed.  The handle keeps [a]'s pattern arrays
    by reference (not a copy): they must not be mutated afterwards.
    @raise Invalid_argument if [a] is not square or the blocking invalid.
    @raise Singular_block under the {!Fail} breakdown policy. *)

val unfactored :
  ?pool:Pool.t ->
  ?prec:Precision.t ->
  ?policy:breakdown_policy ->
  ?layout:Vblu_core.Batch.layout ->
  ?max_block_size:int ->
  ?blocking:Supervariable.blocking ->
  ?obs:Vblu_obs.Ctx.t ->
  Csr.t ->
  handle
(** [unfactored a] is {!handle} without the launch: blocked, but with no
    block factored (each applies the identity) until the next {!refresh},
    which factors all of them — so several new handles can share one
    launch. *)

val copy : handle -> handle
(** [copy h] is an independent handle in [h]'s current state: refreshing
    or invalidating either leaves the other as it was. *)

val refresh :
  ?faults:Fault.Plan.t ->
  ?abft:bool ->
  (handle * Csr.t) array ->
  update_stats * float
(** [refresh [| (h1, a1); ... |]] refreshes every handle from its matrix
    (same pattern as the one it was built from): their dirty blocks, in
    (handle, block) order, go through one {!settle} call on the first
    handle's pool and observability context, so [?faults] sites address
    blocks by launch position.  All handles must share precision and
    layout, and none may appear twice.  Dirty means: any entry changed
    bitwise, never factored, or flagged by ABFT.  A handle settles under
    [Degrade_to_identity]: with [~abft:true] (default false) a [Failed]
    verdict leaves the block corrupt (identity fallback, in
    [corrupt_blocks]) and dirty, and the next refresh is its retry.
    Returns the stats and the launches' summed modelled time in
    microseconds.  Does not touch {!last_update}.
    @raise Invalid_argument on a dimension or pattern mismatch, a
    repeated handle, or mixed precision/layout.
    @raise Singular_block for the first handle under the {!Fail} policy
    with a [Degraded] block (handles are left partially refreshed). *)

val update : ?tol:float -> ?force_all:bool -> handle -> Csr.t -> update_stats
(** [update h a] is the one-handle {!refresh}, with entries dirty when
    they moved by more than [tol] (default [0.], any bitwise change);
    [~force_all:true] refactors every block regardless of the tolerance
    (the full-refresh baseline; also the guard-rebuild path).  With
    [tol = 0.] the handle's factors, pivots and outcomes afterwards are
    bit-identical to a fresh {!handle} on [a].
    @raise Invalid_argument on a dimension or sparsity-pattern mismatch.
    @raise Singular_block under the {!Fail} breakdown policy when a block
    is [Degraded] (the handle is left partially refreshed). *)

val invalidate : handle -> int -> unit
(** [invalidate h i] marks block [i] corrupt — a caller's own check
    rejected its factors: it applies the identity, is reported in
    [corrupt_blocks], and refactors on the next refresh. *)

val precond : handle -> Preconditioner.t
(** The live preconditioner; [setup_seconds] covers the initial build. *)

val handle_blocking : handle -> Supervariable.blocking
val last_update : handle -> update_stats
(** Stats of the most recent {!handle} build or {!update}. *)

val handle_info : handle -> info
(** Outcome lists rebuilt from the current per-block state: breakdowns,
    [Perturb] rescues and ABFT-flagged blocks (no recovery outcomes: a
    handle retries a flagged block on its next refresh instead). *)

val is_singular : handle -> int -> bool
(** [is_singular h i]: block [i] broke down (is in [singular_blocks]). *)

val is_corrupt : handle -> int -> bool
(** [is_corrupt h i]: block [i] is flagged by ABFT or {!invalidate} (is
    in [corrupt_blocks]). *)

val handle_factors : handle -> Lu.factors option array
(** Per-block factors ([None] = identity fallback), in a fresh array
    whose factors are the handle's own — read-only; exposed so tests can
    assert bitwise reuse and fresh/update identity. *)

val handle_packed : handle -> Lu.factors array
(** Per-block packed factors and pivots as the last launch left them —
    read-only.  Unlike {!handle_factors}, a broken-down block holds the
    frozen partial factors of its elimination, so a triangular-solve
    launch over these reads exactly what it would read from the raw LU
    output.  Meaningful once every block has been refreshed. *)
