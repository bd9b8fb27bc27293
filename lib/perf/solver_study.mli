(** The full IDR(4) solver sweep behind Figures 8–9 and Table I.

    For every matrix of the 48-entry suite, runs IDR(4) preconditioned
    with:
    - scalar Jacobi,
    - LU-based block-Jacobi with block-size bounds 8/12/16/24/32,
    - GH-based block-Jacobi with the same bounds,
    - GH-T-based and GJE-inversion-based block-Jacobi with bound 32,

    recording iteration counts, setup time, and solve time for each —
    one pass that the three reporting drivers share.  Runs on the CPU
    reference path (real numerics, host wall-clock). *)

open Vblu_workloads
open Vblu_precond

type run = {
  entry : Suite.entry;
  variant : Block_jacobi.variant;
  bound : int;  (** block-size upper bound (1 for scalar Jacobi). *)
  converged : bool;
  iterations : int;
  setup_seconds : float;
  solve_seconds : float;
  blocks : int;  (** diagonal blocks in the partition. *)
  degraded : int;
      (** blocks that fell back to the identity (singular under the active
          breakdown policy). *)
  perturbed : int;
      (** blocks salvaged by a [Perturb] diagonal shift. *)
  recovered : int;
      (** blocks whose ABFT check failed and that a [Recompute] recovery
          refactored successfully (0 unless faults + ABFT are active). *)
  corrupt : int;
      (** blocks left corrupt after recovery was exhausted (replaced by
          the identity). *)
}

type t = {
  runs : run list;
  bounds : int list;  (** the block-size bounds swept (Table I columns). *)
}

val run_suite :
  ?quick:bool ->
  ?pool:Vblu_par.Pool.t ->
  ?policy:Block_jacobi.breakdown_policy ->
  ?faults:Vblu_fault.Fault.Plan.t ->
  ?abft:bool ->
  ?recovery:Block_jacobi.recovery_policy ->
  ?obs:Vblu_obs.Ctx.t ->
  ?progress:(string -> unit) ->
  unit ->
  t
(** Execute the sweep.  [quick] restricts to the first 12 matrices and
    bounds [8; 32].  [policy] (default [Identity_block]) is the
    block-Jacobi breakdown policy for every run; the per-run [degraded]
    and [perturbed] counts record its effect.  [faults], [abft], and
    [recovery] are forwarded to {!Block_jacobi.create} for every run
    (the per-run [recovered] and [corrupt] counts record their effect);
    when [abft] is set, each IDR solve additionally gets a
    [refresh_precond] soft-error guard.  [progress] receives one
    message per matrix (messages may interleave when [pool] has several
    domains).

    With [pool], the 48 matrices run embarrassingly parallel, one task per
    entry.  Iteration counts, convergence flags, and run order are
    identical for any domain count; only the recorded wall-clock seconds
    differ.

    [obs] records every preconditioner setup, kernel launch, and Krylov
    iteration of the sweep; each matrix runs in its own child context and
    the children are grafted back in entry order after the parallel join,
    so the trace and metrics are also identical for any domain count
    (wall-clock never enters them). *)

val find : t -> Suite.entry -> Block_jacobi.variant -> int -> run option

val total_seconds : run -> float
(** setup + solve — Figure 9's y-axis. *)
