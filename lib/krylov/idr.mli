(** IDR(s) — Induced Dimension Reduction — the paper's outer solver and
    the only Krylov solver here.

    Implementation of the IDR(s) variant with biorthogonalization
    [van Gijzen & Sonneveld, ACM TOMS 2011 ("Algorithm 913")], with
    preconditioned recurrences and the usual ω-stabilization (the
    |ρ| < 0.7 kappa test).  The paper evaluates IDR(4) from MAGMA-sparse;
    [s = 4] is the default here too.

    IDR(s) draws its shadow space [P] (an [n × s] orthonormalized random
    block) from a deterministic RNG by default so experiments are
    reproducible; pass [~seed] to vary it.

    Each solve allocates its n-vectors and its small arrays once; per
    iteration the only fresh n-vector is the preconditioner's result.
    The cycle's vector work runs as {!Fused} passes and
    [Csr.spmv_dots_into]: each vector a step writes is written once, with
    the dots read from it, and the iterates keep the bits of one
    [Vector] call per term. *)

open Vblu_smallblas
open Vblu_precond
open Vblu_sparse

val solve :
  ?prec:Precision.t ->
  ?precond:Preconditioner.t ->
  ?s:int ->
  ?seed:int ->
  ?config:Solver.config ->
  ?refresh_precond:(unit -> Preconditioner.t) ->
  ?obs:Vblu_obs.Ctx.t ->
  Csr.t ->
  Vector.t ->
  Vector.t * Solver.stats
(** [solve a b] runs preconditioned IDR(s) from a zero initial guess and
    returns the approximate solution with solve statistics
    ([stats.iterations] counts applications of [A]).

    [?refresh_precond] arms a soft-error guard: on a non-finite residual
    norm, or on no meaningful residual improvement across 200 consecutive
    checks, the preconditioner is rebuilt once via the callback and the
    recurrences restart from the current iterate (iterations keep
    accumulating); a second trip ends the solve with
    [Breakdown "guard: ..."].  The guard only reads the residual norm, so
    arming it over a healthy solve changes no bit.

    [?obs] records an ["idr.residual"] sample per iteration, an
    ["idr.done"] instant and the [krylov.*] counters, plus a
    ["guard.restart"] / ["guard.break"] instant per guard trip.  Without
    it the solve records nothing and its numerics are the same.
    @raise Invalid_argument on dimension mismatches or [s < 1]. *)
