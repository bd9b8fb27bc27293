(** The solver service: admission, coalescing, dispatch, degradation.

    A long-running front end over the batched kernels.  Clients
    {!submit} independent block-Jacobi problems; the service parks them
    in a bounded priority queue, coalesces waves of them into shared
    {!Batcher} launches, and parks results for asynchronous {!status}
    pickup.  Robustness machinery on the way through:

    - {b admission control}: a full queue or an invalid problem is
      rejected with a queryable reason — never an exception, never a
      silent drop;
    - {b deadlines}: a request whose deadline has passed is shed before
      the launch it would have joined (so overshoot of the completion
      time past a deadline is bounded by one dispatch window plus one
      modelled launch);
    - {b retry with backoff}: a request whose blocks come back with an
      ABFT fault verdict is relaunched after a deterministic jittered
      backoff, up to its retry budget — fault-plan claims are one-shot,
      so the retry runs clean; breakdowns (deterministic) are decided
      immediately by the request's {!Policy.breakdown} policy instead;
    - {b circuit breaker}: sustained queue pressure opens the breaker,
      which zeroes the coalesce-wait (launch every window, maximum
      drain rate) and demotes best-effort requests to the identity
      preconditioner ([y = rhs]) so paying traffic keeps its latency.

    Every request terminates in exactly one of {e completed}, {e
    rejected}, {e shed}, or {e failed} — the conservation invariant the
    CI soak asserts.  Completed (non-demoted) results are bit-identical
    to a direct [Block_jacobi.create ~variant:Lu |> apply].

    Time is read exclusively through {!Clock}: under a manual clock
    every schedule — coalescing, shedding, backoff, breaker — is a pure
    function of the submitted work, reproducible across runs and domain
    counts.  The handle itself is mutex-guarded, so concurrent clients
    may submit while a driver thread steps. *)

open Vblu_smallblas

type config = {
  capacity : int;  (** admission queue bound. *)
  max_batch : int;  (** max problems coalesced into one launch. *)
  min_fill : int;  (** queue depth that triggers a launch. *)
  max_wait : float;
      (** max seconds the oldest queued request coalesces before a
          launch is forced anyway. *)
  window : float;  (** seconds of virtual time per dispatch step. *)
  retry : Policy.retry;
  breaker : Policy.breaker_config;
  seed : int;  (** backoff-jitter seed. *)
  prec : Precision.t;
  abft : bool;
      (** run the launches with ABFT checks (required for fault
          verdicts — without it transient faults go undetected and
          nothing retries). *)
  setup_cache : bool;
      (** keep a {!Setup_cache} across waves so recurring requests
          (fingerprinted by sparsity pattern + blocking bound + family)
          reuse their previous setup and only refactor drifted blocks.
          Results stay bit-identical; only the modelled launch times —
          hence latencies — shrink.  Bypassed while a fault plan is
          armed.  Off by default. *)
}

val default_config : config
(** capacity 256, max_batch 64, min_fill 16, max_wait 2 ms, window
    1 ms, {!Policy.default_retry}, {!Policy.default_breaker}, seed 42,
    double precision, ABFT on, setup cache off. *)

type reject_reason =
  | Queue_full of { depth : int; capacity : int }
  | Invalid_problem of string

val reject_reason_text : reject_reason -> string

type status =
  | Pending  (** queued, awaiting retry, or in flight. *)
  | Completed of {
      y : Vector.t;
      degraded : bool;  (** some block fell back to the identity. *)
      demoted : bool;  (** whole request served as identity under an
                           open breaker. *)
      latency : float;  (** completion time − submission time. *)
      attempts : int;  (** launches consumed (1 = no retries). *)
    }
  | Rejected of reject_reason
  | Shed of { deadline : float }  (** deadline passed before launch. *)
  | Failed of { reason : string; attempts : int }

type t

val create :
  ?pool:Vblu_par.Pool.t ->
  ?faults:Vblu_fault.Fault.Plan.t ->
  ?obs:Vblu_obs.Ctx.t ->
  ?clock:Clock.t ->
  config ->
  t
(** [clock] defaults to a fresh manual clock at 0.
    @raise Invalid_argument on a non-positive capacity/max_batch/window
    or a negative min_fill/max_wait. *)

val submit :
  t ->
  ?tenant:string ->
  ?priority:Policy.priority ->
  ?deadline:float ->
  ?breakdown:Policy.breakdown ->
  Batcher.problem ->
  int
(** Admit a request and return its id (ids are dense, in submission
    order).  Defaults: tenant ["default"], [Standard] priority, no
    deadline, [Identity_block] breakdown policy.  An inadmissible
    request still gets an id — its status is immediately
    [Rejected reason]. *)

val status : t -> int -> status
(** @raise Invalid_argument on an unknown id. *)

val step : ?force:bool -> t -> unit
(** Run one dispatch window: ready retries and queued work coalesce
    into at most one launch, expired requests are shed, the breaker
    observes the window's pressure, and the clock advances by
    [window + modelled launch seconds].  [force] (default false)
    bypasses the coalesce gate and launches whatever is pending — the
    drain path. *)

val drain : t -> unit
(** Step (with [force]) until no request is pending. *)

val now : t -> float

val pending : t -> int
(** Requests submitted but not yet terminal. *)

type health = {
  h_now : float;
  h_queue_depth : int;
  h_pending : int;
  h_breaker : Policy.breaker_state;
  h_steps : int;
  h_launches : int;
  h_coalesced_blocks : int;  (** total blocks over all launches. *)
  h_setup_fresh_blocks : int;
      (** blocks factored by the waves' setup launches. *)
  h_setup_reused_blocks : int;
      (** blocks served from the setup cache (0 with the cache off). *)
  h_mean_occupancy : float;
      (** mean problems-per-launch / max_batch, in [0, 1]. *)
  h_p50_latency : float;  (** nearest-rank over completed requests. *)
  h_p99_latency : float;
  h_max_step_seconds : float;
      (** largest single-step virtual-time advance — the batch window
          that bounds deadline overshoot. *)
  h_cache_hits : int;
  h_cache_misses : int;
  h_cache_direct : int;
  h_totals : Tenant.counts;
}

val health : t -> health

val tenants : t -> (string * Tenant.counts) list
(** Per-tenant accounting snapshot, sorted by tenant. *)

val pp_health : Format.formatter -> health -> unit
