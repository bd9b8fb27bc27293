(** The IDR(4) solve study behind Figures 8–9, Table I, Ablation D and
    the preconditioner-family head-to-head.

    For every suite matrix it runs IDR(4) under each preconditioner
    {!spec} and records one {!run}: iterations, setup and solve
    wall-clock, the block outcome counts, and the {e modelled} cost of
    one application.  Block-ILU(0) and RAS are priced by the per-level
    batched waves of {!Vblu_precond.Block_ilu0.apply_stats}; block-Jacobi
    by one batched TRSV launch over its diagonal blocks (its whole
    application is a single wave), whatever the variant.  The
    numerics are the CPU reference path. *)

open Vblu_workloads
open Vblu_precond

type spec =
  | Block_jacobi of Block_jacobi.variant * int
      (** a variant at a block-size bound (1 for scalar Jacobi). *)
  | Ilu0 of int  (** block-ILU(0) at a bound, level-scheduled apply. *)
  | Ras of { bound : int; subdomains : int; overlap : int }
      (** restricted additive Schwarz over block-ILU(0) locals. *)

val label : spec -> string
(** ["block-jacobi" | "block-ilu0" | "ras-ilu0"]: the CLI spelling and
    the [BENCH_precond.json] key. *)

val sweep : quick:bool -> spec list
(** The block-Jacobi sweep of Figures 8–9, Table I and Ablation D:
    scalar Jacobi, then GH and LU at each bound 8/12/16/24/32 ([quick]:
    8/32), then GJE and GH-T at 32 — the order the jobs run in. *)

val families : bound:int -> subdomains:int -> overlap:int -> spec list
(** The head-to-head: LU block-Jacobi, block-ILU(0) and RAS-ILU(0), all
    at [bound]. *)

type info =
  | Jacobi_info of Block_jacobi.info
  | Ilu0_info of Block_ilu0.info
  | Ras_info of Block_ilu0.ras_info

val build :
  ?pool:Vblu_par.Pool.t ->
  ?policy:Block_jacobi.breakdown_policy ->
  ?faults:Vblu_fault.Fault.Plan.t ->
  ?abft:bool ->
  ?recovery:Block_jacobi.recovery_policy ->
  ?obs:Vblu_obs.Ctx.t ->
  spec ->
  Vblu_sparse.Csr.t ->
  Preconditioner.t * info
(** The preconditioner a spec names, built over [a].  [policy],
    [faults], [abft] and [recovery] go to every family.
    @raise Vblu_precond.Block_jacobi.Singular_block or
    [Vblu_precond.Block_jacobi.Fault_detected] under a [Fail] policy. *)

type run = {
  entry : Suite.entry;
  spec : spec;
  converged : bool;
  iterations : int;
  setup_seconds : float;  (** host wall-clock of the setup. *)
  solve_seconds : float;
  blocks : int;  (** diagonal blocks of the partition (summed over RAS
                     subdomains). *)
  degraded : int;
      (** identity-fallback blocks: singular under the breakdown policy,
          or left corrupt after ABFT recovery. *)
  perturbed : int;  (** blocks salvaged by a [Perturb] diagonal shift. *)
  lower_levels : int;  (** forward-sweep DAG depth (1 for block-Jacobi). *)
  upper_levels : int;  (** backward-sweep DAG depth (1 for block-Jacobi). *)
  apply_waves : int;  (** batched kernel waves per application. *)
  apply_transactions : int;
      (** modelled 32-byte transactions summed over one application's
          waves. *)
  modelled_apply_seconds : float;
      (** modelled kernel time of one application. *)
}

type t = { specs : spec list; runs : run list }

val run :
  ?quick:bool ->
  ?entries:Suite.entry list ->
  ?pool:Vblu_par.Pool.t ->
  ?policy:Block_jacobi.breakdown_policy ->
  ?faults:Vblu_fault.Fault.Plan.t ->
  ?abft:bool ->
  ?recovery:Block_jacobi.recovery_policy ->
  ?obs:Vblu_obs.Ctx.t ->
  ?progress:(string -> unit) ->
  spec list ->
  t
(** Run every spec on every matrix.  [quick] restricts to the first 12
    suite matrices; [entries] overrides the matrix list entirely.
    [policy] (default [Identity_block]) is the breakdown policy of every
    run.  [faults], [abft] and [recovery] go to {!build}; with [abft]
    each solve also gets a [refresh_precond] soft-error guard that
    rebuilds through the same {!build} (fault-plan claims are one-shot,
    so the rebuild is clean).  [progress] receives one message per
    matrix.

    Each matrix is built once; then one job per (matrix × spec), in
    matrix-major, spec order, fans out across [pool]'s domains, each job
    building its preconditioner sequentially.  Every field but the
    wall-clock seconds is bit-identical for any domain count.  [obs]
    records every setup, kernel launch and Krylov iteration: each job
    records into its own {!Vblu_obs.Ctx.sub} child, grafted back in job
    order, so traces and metrics are identical for any domain count too.
    [runs] follows the job order. *)

val find : t -> Suite.entry -> spec -> run option

val total_seconds : run -> float
(** setup + solve — Figure 9's y-axis. *)

type verdict = {
  improved : int;  (** matrices where block-ILU(0) took fewer iterations. *)
  compared : int;
      (** matrices with both an [Ilu0 b] and a [Block_jacobi (Lu, b)] run. *)
  convection_improved : int;
  convection : int;  (** the same two counts on the convection subset. *)
}

val ilu0_verdict : t -> verdict
(** The head-to-head verdict: did the coupled factorization buy IDR(4)
    iterations over LU block-Jacobi at the same bound? *)
