(** Preconditioner-family head-to-head: block-Jacobi vs block-ILU(0) vs
    RAS-ILU(0).

    Where {!Solver_study} sweeps block-Jacobi variants and block sizes,
    this study fixes one blocking bound and compares the {e families}
    (ROADMAP item 3): for every suite matrix it runs IDR(4) under each
    preconditioner and records iterations, setup/solve wall-clock, and
    the {e modelled} per-application cost — for block-ILU(0) the actual
    per-level batched wave times and transaction counts of
    {!Vblu_precond.Block_ilu0.apply_stats}, for block-Jacobi one batched
    TRSV launch over its diagonal blocks (the whole application is a
    single wave), so time-per-iteration compares like for like.  The
    trade the table exposes is the paper's: the coupled factorization
    buys fewer iterations, the level-scheduled solve pays more waves per
    iteration. *)

open Vblu_workloads
open Vblu_precond

type family =
  | Jacobi  (** LU-variant block-Jacobi — the baseline. *)
  | Ilu0  (** block-ILU(0), level-scheduled apply. *)
  | Ras  (** restricted additive Schwarz over block-ILU(0) locals. *)

val family_label : family -> string
(** ["block-jacobi" | "block-ilu0" | "ras-ilu0"] — CLI spelling. *)

type run = {
  entry : Suite.entry;
  family : family;
  converged : bool;
  iterations : int;
  setup_seconds : float;  (** host wall-clock of the setup. *)
  solve_seconds : float;
  blocks : int;  (** diagonal blocks of the partition. *)
  degraded : int;  (** identity-fallback blocks. *)
  lower_levels : int;  (** forward-sweep DAG depth (1 for Jacobi). *)
  upper_levels : int;  (** backward-sweep DAG depth (1 for Jacobi). *)
  apply_waves : int;  (** batched kernel waves per application. *)
  apply_transactions : int;
      (** modelled 32-byte transactions summed over one application's
          waves. *)
  modelled_apply_seconds : float;
      (** modelled kernel time of one application. *)
}

type t = {
  runs : run list;
  max_block_size : int;
  subdomains : int;
  overlap : int;
}

val run_suite :
  ?quick:bool ->
  ?entries:Suite.entry list ->
  ?families:family list ->
  ?max_block_size:int ->
  ?subdomains:int ->
  ?overlap:int ->
  ?pool:Vblu_par.Pool.t ->
  ?policy:Block_jacobi.breakdown_policy ->
  ?obs:Vblu_obs.Ctx.t ->
  ?progress:(string -> unit) ->
  unit ->
  t
(** Execute the comparison.  [quick] restricts to the first 12 suite
    matrices; [entries] overrides the matrix list entirely (e.g. the
    convection–diffusion subset the CI gate asserts on); [families]
    defaults to all three; [max_block_size]
    (default 16) is the shared supervariable bound; [subdomains]/[overlap]
    (defaults 4/8) parameterize the RAS runs.  [pool] (default
    sequential): with one domain it is handed to every preconditioner as
    before; with more, the {e study loop itself} fans the
    (entry × family) jobs across the domains, each job running its
    preconditioner sequentially.  Iteration counts and modelled numbers
    are bit-identical for any domain count — only the wall-clock fields
    vary (the cross-domain assertion the CI precond gate makes).  [obs]
    records every setup and kernel launch; parallel jobs record into
    {!Vblu_obs.Ctx.sub} children grafted back in job order, so the
    registry and traces stay deterministic too. *)

val find : t -> Suite.entry -> family -> run option

val iteration_improvements : t -> (run * run) list
(** Pairs [(jacobi, ilu0)] over entries where both ran: the raw material
    of the head-to-head table, in suite order. *)

val total_seconds : run -> float
