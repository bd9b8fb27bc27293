(** Bounded admission queue with priority classes.

    A fixed-capacity buffer between admission control and the batcher.
    Entries drain in (priority rank, FIFO) order — interactive traffic
    coalesces ahead of best-effort — and capacity is enforced at
    {!submit}, which is where the service turns a full queue into a
    reject-with-reason instead of queuing unboundedly.

    The structure itself is {e not} synchronized: the owning service
    serializes every access under its own lock (and the deterministic
    test harness drives it from one thread). *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val length : 'a t -> int

val submit : 'a t -> priority:Policy.priority -> 'a -> bool
(** Enqueue, or return [false] when the queue is at capacity (the caller
    rejects with a reason — nothing is dropped silently). *)

val oldest : 'a t -> 'a option
(** The entry that has waited longest overall (submission order, not
    priority order) — what the batcher's coalesce-wait clock watches. *)

val drain : 'a t -> max:int -> 'a list
(** Remove and return up to [max] entries in (priority rank, FIFO)
    order. *)

val reject_if : 'a t -> ('a -> bool) -> 'a list
(** Remove and return every queued entry satisfying the predicate, in
    submission order — deadline shedding.  Order of the survivors is
    preserved. *)
