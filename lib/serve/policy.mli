(** Service-level robustness policies.

    Three small state machines the service composes:

    - {b priority classes} decide drain order (and who is demoted first
      under overload);
    - {b retry with deterministic jittered backoff} reruns requests whose
      blocks hit transient fault verdicts — breakdowns are deterministic
      and are {e never} retried, the per-request {!breakdown} policy
      decides those immediately;
    - a {b circuit breaker} watches queue pressure per dispatch window
      and, under sustained overload, degrades the batcher (coalesce-wait
      shrinks to zero, best-effort traffic is demoted to the identity
      preconditioner) instead of letting the queue grow unboundedly.

    Everything here is pure or driven by explicit observations, so the
    service stays deterministic under the manual {!Clock}. *)

(** Drain order under load: [Interactive] first, [Best_effort] last (and
    demoted to the identity fallback while the breaker is open). *)
type priority = Interactive | Standard | Best_effort

val priority_rank : priority -> int
(** [0] for [Interactive], [1] for [Standard], [2] for [Best_effort] —
    smaller drains first. *)

(** What to do with a request one of whose diagonal blocks breaks down
    (a numerically singular block — deterministic, so retrying is
    pointless):

    - {!Identity_block}: keep going with the identity on that block —
      the same degradation {!Vblu_precond.Block_jacobi} applies, and the
      default;
    - {!Fail_request}: fail this request (only this one; batchmates are
      untouched). *)
type breakdown = Identity_block | Fail_request

type retry = {
  budget : int;  (** max retries per request; 0 disables retrying. *)
  base_delay : float;  (** seconds before the first retry. *)
  factor : float;  (** exponential growth per attempt. *)
  jitter : float;
      (** fraction of the delay added as deterministic jitter in
          [\[0, jitter)]. *)
}

val default_retry : retry
(** 2 retries, 1 ms base, ×2 growth, 50% jitter. *)

val backoff : retry -> seed:int -> request:int -> attempt:int -> float
(** Delay before retry [attempt] (1-based) of request [request]:
    [base_delay * factor^(attempt-1) * (1 + jitter * u)] where
    [u ∈ [0,1)] is a pure hash of [(seed, request, attempt)] — jittered
    so synchronized retries spread out, deterministic so every run and
    domain count replays the same schedule.
    @raise Invalid_argument when [attempt < 1]. *)

type breaker_config = {
  high_watermark : float;
      (** queue-fill fraction at or above which a window counts as
          overloaded. *)
  trip_after : int;  (** consecutive overloaded windows before opening. *)
  cool_down : int;
      (** consecutive calm windows (while open) before probing. *)
}

val default_breaker : breaker_config
(** Watermark 0.75, trip after 3, cool down 5. *)

(** [Closed] = healthy, [Open] = degraded (zero coalesce-wait,
    best-effort demoted), [Half_open] = probing after a cool-down: one
    calm window closes it, one overloaded window re-opens it. *)
type breaker_state = Closed | Half_open | Open

val state_name : breaker_state -> string

type breaker

val breaker : breaker_config -> breaker

val breaker_state : breaker -> breaker_state

val breaker_note : breaker -> pressure:float -> breaker_state
(** Feed one window's queue pressure (depth / capacity) and return the
    state after the transition. *)
