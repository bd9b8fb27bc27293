(** Cross-wave preconditioner-setup cache for recurring requests.

    Time-stepping tenants resubmit the same problem with drifted values
    wave after wave.  The cache keys each problem by its {e structural
    fingerprint} — dimension, sparsity pattern, blocking bound, family —
    and keeps that problem's setup handle alive
    ({!Vblu_precond.Block_jacobi.handle} or
    {!Vblu_precond.Block_ilu0.handle}), so the next wave's refresh of
    that handle refactors only what moved: the dirty diagonal blocks for
    block-Jacobi, the dirty DAG closure for block-ILU(0).

    Reused factors are bitwise the ones a fresh setup would compute, so
    cached waves keep the service's bit-identity contract.  Eviction is
    FIFO at 256 fingerprints.  One cache serves one precision and
    one pool.  Not thread-safe — callers hold the service lock. *)

open Vblu_sparse

type t

val create : unit -> t

(** The preconditioner family an entry belongs to, indexed by the type
    of its handle: one entry per fingerprint and family. *)
type _ family =
  | Jacobi : Vblu_precond.Block_jacobi.handle family
      (** a handle refreshed by the wave's coalesced multi-handle
          {!Vblu_precond.Block_jacobi.refresh}. *)
  | Ilu0 : Vblu_precond.Block_ilu0.handle family
      (** a handle whose [update ~tol:0.] re-eliminates only the dirty
          DAG closure. *)

val find : t -> 'h family -> a:Csr.t -> max_block_size:int -> 'h option
(** The live handle stored for [a]'s fingerprint, if any. *)

val store : t -> 'h family -> a:Csr.t -> max_block_size:int -> 'h -> unit
(** Keep [h] for [a]'s fingerprint, replacing any handle stored there. *)

