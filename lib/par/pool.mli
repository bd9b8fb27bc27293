(** Minimal fork-join parallelism over OCaml 5 domains.

    The batched routines in this project are embarrassingly parallel across
    problem instances.  This module provides the small amount of scheduling
    machinery they need: a domain count probed from the machine, a chunked
    parallel [for], and a parallel [map] over arrays.  On a single-core
    machine every operation degrades to its sequential equivalent with no
    domain spawns, so the numerical results never depend on the topology. *)

type t
(** A handle describing how much parallelism to use. *)

val create : ?num_domains:int -> unit -> t
(** [create ()] probes [Domain.recommended_domain_count] and builds a handle
    that will fan work out over that many domains (including the calling
    one).  [?num_domains] overrides the probe; values [<= 1] force
    sequential execution. *)

val max_domains : int
(** 128, the OCaml runtime's default limit on live domains.  Command
    lines reject a larger [--domains] up front: a pool that tried to
    spawn past the limit would fail part-way through a fan-out. *)

val sequential : t
(** A handle that always runs work in the calling domain. *)

val num_domains : t -> int
(** Number of domains (including the caller) used by [parallel_*]. *)

val chunk_bounds : t -> lo:int -> hi:int -> (int * int) array
(** [chunk_bounds t ~lo ~hi] is the chunking policy used by {!parallel_for}:
    [min (num_domains t) (hi - lo)] contiguous [(clo, chi)] half-open ranges
    that partition [lo, hi) in order.  Every chunk is non-empty and chunk
    sizes differ by at most one (remainder elements go to the leading
    chunks).  Returns [[||]] when [hi <= lo].  Exposed for testing. *)

val parallel_for : t -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for t ~lo ~hi body] runs [body i] for every [lo <= i < hi].
    Iterations must be independent; the order of execution is unspecified.
    Exceptions raised by [body] are re-raised in the caller after all
    domains have joined. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map t f xs] is [Array.map f xs] with independent applications
    of [f] distributed over the domains of [t]. *)

val parallel_init : t -> int -> (int -> 'a) -> 'a array
(** [parallel_init t n f] is [Array.init n f] with the same contract as
    {!parallel_map}. *)
