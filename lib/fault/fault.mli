(** Deterministic soft-error injection and ABFT verdicts.

    GPUs running the paper's kernels are exposed to soft errors — bit
    flips in registers, shared memory and DRAM that silently corrupt a
    factor and, through a block-Jacobi preconditioner, a whole Krylov
    solve.  This module provides the machinery the rest of the stack
    threads through: a seedable {e fault plan} describing where faults
    land (problem index × elimination step × lane × storage class), the
    per-warp {e injector} that fires them inside the simulated kernels,
    and the per-problem {e verdict} ABFT verification reports next to the
    [info] breakdown array.

    Two invariants make fault campaigns reproducible and recoverable:

    - {b Determinism}: the sites of a plan are a pure function of
      [(seed, problem, size)].  Two runs with the same plan fault the
      same lanes at the same steps, whatever the domain count.
    - {b One-shot firing}: each [(problem, step)] site fires at most once
      per plan lifetime (claims are serialized under a mutex, and the
      key space is partitioned by problem, so claiming is race-free and
      deterministic under parallel execution).  A recovery policy that
      recomputes a flagged problem therefore converges: the retry runs
      clean. *)

(** Where the corrupted value lives. *)
type target =
  | Register  (** a register operand — fires on the next arithmetic result. *)
  | Shared    (** a shared-memory tile — fires on the next smem access. *)
  | Global    (** global memory — fires on the next gmem load/store. *)

(** How the value is corrupted. *)
type kind =
  | Bit_flip of int
      (** XOR the given bit (0–63) of the IEEE-754 representation.  The
          default plan flips bit 55 — an exponent bit, scaling the value
          by 2^±8 so the corruption is far outside rounding noise. *)
  | Scale of float   (** multiply by the factor. *)
  | Set_value of float  (** overwrite outright. *)

type site = {
  problem : int;  (** batch problem (or diagonal-block) index. *)
  step : int;  (** elimination step at which the fault arms. *)
  lane : int;  (** lane (thread/row) whose value is corrupted. *)
  target : target;
  kind : kind;
}

(** Per-problem ABFT verdict, reported alongside the [info] array. *)
type verdict =
  | Unchecked  (** verification was off, or the problem broke down. *)
  | Passed
  | Failed  (** the checksum test flagged a corrupted result. *)

val corrupt : kind -> float -> float
(** Apply a corruption to a value ([Bit_flip] works on the raw IEEE
    bits, bypassing any precision rounding). *)

module Plan : sig
  type t

  val make :
    ?seed:int ->
    ?every:int ->
    ?phase:int ->
    ?target:target ->
    ?kind:kind ->
    ?at:site list ->
    unit ->
    t
  (** A plan faults problem [i] iff [i mod every = phase] (defaults:
      [every = 1], [phase = 0], i.e. every problem), placing one site per
      faulted problem at a step/lane derived deterministically from
      [(seed, i)] and clamped to the problem size, with the given
      [target] (default [Register]) and [kind] (default [Bit_flip 55]).
      [at] adds explicit sites on top (their step/lane are clamped to the
      problem size when the sites are materialized); when [at] is
      non-empty and [every = 0], only the explicit sites fire.
      @raise Invalid_argument if [every < 0], [phase < 0] or
      [phase >= every] (for [every > 0]). *)

  val of_spec : string -> (t, string) result
  (** Parse a CLI spec: comma-separated [key=value] settings among
      [seed=N], [every=N], [phase=N], [target=reg|smem|gmem],
      [kind=flip:BIT|scale:F|set:F], and any number of
      [at=PROBLEM.STEP.LANE] explicit sites.  Examples:
      ["seed=7,every=3"], ["every=0,at=2.1.0,target=gmem"]. *)

  val to_spec : t -> string
  (** Round-trips through {!of_spec}. *)

  val view : t -> problems:int array -> t
  (** [view p ~problems] is [p] with problem [i] renumbered
      [problems.(i)]: a launch that runs only some of a plan's problems,
      in another order, still meets each one's own sites.  The view
      shares [p]'s claims and its {!injected} count. *)

  val sites_for : t -> problem:int -> size:int -> site list
  (** The sites this plan places in the given problem, step/lane clamped
      to [size]; pure and deterministic.  Empty for [size <= 0]. *)

  val targeted : t -> problems:int -> sizes:int array -> int list
  (** The problem indices [0 .. problems-1] holding at least one site —
      what a test or CI assertion should expect ABFT to flag. *)

  val claim : t -> problem:int -> step:int -> bool
  (** [claim p ~problem ~step] atomically claims the site key; [true]
      exactly once per key per plan lifetime ({e one-shot}). *)

  val injected : t -> int
  (** Number of corruptions actually applied so far (incremented by the
      injector, or by host-level injection sites, after a successful
      claim + corruption). *)

  val note_injected : t -> unit
  (** Count one applied corruption (used by host-level injection paths;
      warp-level injection counts through {!Injector}). *)
end

module Injector : sig
  (** The per-warp view of a plan: created for one problem, it arms the
      problem's sites as the kernel announces elimination steps and
      fires each site on the next operation of the matching target
      class. *)

  type t

  val create : Plan.t -> problem:int -> size:int -> t option
  (** [None] when the plan places no site in this problem — the kernel
      keeps its zero-overhead disabled path. *)

  val step : t -> int -> unit
  (** Announce elimination step [k]: sites with [site.step = k] that win
      their one-shot claim become pending. *)

  val take : t -> target -> (int * kind) option
  (** Consume the pending fault for a target class, if any: returns the
      lane to corrupt and how.  At most one fire per armed site. *)
end
