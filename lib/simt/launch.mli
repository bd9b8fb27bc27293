(** The analytic kernel-timing model.

    Converts the event counts of a kernel's warps into a modelled execution
    time.  The model captures the three effects the paper's performance
    discussion rests on:

    - {b occupancy ramp}: an SM needs many resident warps to hide latency
      and fill its issue slots, so throughput grows with batch size and
      saturates — the left-to-right shape of Figures 4 and 6;
    - {b bandwidth bound}: total transaction bytes divided by memory
      bandwidth floor the runtime — what makes TRSV memory-bound and
      punishes non-coalesced access;
    - {b serial floor}: a single warp's critical path (issue slots plus one
      memory latency per dependent round-trip) bounds tiny batches.

    [time = launch_overhead + max(compute, bandwidth, serial)]. *)

open Vblu_smallblas

type stats = {
  time_us : float;  (** modelled kernel time. *)
  gflops : float;  (** useful flops / time. *)
  bandwidth_gbs : float;  (** achieved transaction bandwidth. *)
  warps : int;
  total : Counter.t;  (** aggregate event counts. *)
  faults_injected : int;
      (** soft errors fired into this launch by a {!Vblu_fault.Fault.Plan}
          ([0] when injection is off — the default). *)
}

val warp_cycles : Config.t -> Precision.t -> Counter.t -> float
(** Issue-slot cycles of one warp's instruction stream (no memory). *)

val time :
  ?cfg:Config.t ->
  ?faults_injected:int ->
  prec:Precision.t ->
  warps:int ->
  total:Counter.t ->
  max_warp:Counter.t ->
  unit ->
  stats
(** [time ~prec ~warps ~total ~max_warp ()] models a kernel launch of
    [warps] warps whose aggregate counters are [total] and whose heaviest
    single warp is [max_warp].
    @raise Invalid_argument when [warps <= 0]; empty batches are handled
    upstream with {!empty_stats}. *)

val empty_stats : unit -> stats
(** The defined result for an empty batch: zero time, zero rates, zero
    warps, and a fresh all-zero counter. *)

val pp_stats : Format.formatter -> stats -> unit

(** Cross-launch per-warp counter cache.

    A cacheable kernel's counters are a pure function of the cache {!Cache.key}
    — kernel name, precision, problem size, device config and an integer
    [salt] encoding option flags that change the charge stream (ABFT
    on/off, number of right-hand sides, …).  [Sampling.run ?cache] runs the
    first warp of each size class charging and stores a snapshot; later
    warps of the class execute charge-free (numerics and faults untouched)
    and receive a copy of the cached counter.  Safety: the warp's
    always-on event signature is compared against the entry's — any
    divergence (a data-dependent path, e.g. a breakdown early-exit)
    triggers a charging rerun of that problem instead of using the cache.
    Injection-armed launches bypass the cache entirely.

    The device config is keyed by its precomputed {!Config.t.fingerprint}
    (one int compare per lookup); {!Config.validate} asserts distinct
    presets get distinct fingerprints.  Entries also record whether the
    kernel's direct-execution closure reproduced the simulator's result
    when the entry was stored ([direct_ok]) — a certified hit may run the
    problem's numerics straight through host loops with no op
    interpretation at all (see [Sampling.run]'s [?direct]).

    The cache is global and thread-safe; entries are never invalidated
    (keys are value-types and the mapping is pure), but {!Cache.clear}
    empties it for tests and {!Cache.set_enabled} turns lookups off. *)
module Cache : sig
  type key = private {
    kernel : string;
    prec : Precision.t;
    size : int;
    salt : int;
    cfg_fp : int;  (** {!Config.t.fingerprint} of the device config. *)
  }

  type entry = {
    counter : Counter.t;
    events : int array;
    direct_ok : bool;
        (** the kernel's direct closure ran clean (returned [info = 0])
            when this entry was stored, certifying direct execution for
            later hits on the key. *)
  }

  val key :
    kernel:string -> prec:Precision.t -> size:int -> salt:int -> cfg:Config.t ->
    key

  val find : key -> entry option
  (** One mutex acquisition; counts its own outcome as a hit or miss (a
      caller whose replay check subsequently fails reclassifies with
      {!demote_hit}).  The returned counter is shared — callers must
      {!Counter.copy} before mutating (as [Sampling] does). *)

  val peek : key -> entry option
  (** {!find} without counting: no hit or miss is recorded.  For callers
      that must see every key of a launch before deciding how to run it
      (see [Sampling.charge]); they count with {!note_hit} afterwards.  The
      returned counter is shared, as with {!find}. *)

  val note_hit : unit -> unit
  (** Count one hit, as a successful {!find} does. *)

  val store : key -> counter:Counter.t -> events:int array -> direct_ok:bool -> unit
  (** [counter] and [events] are owned by the cache after the call; pass
      detached snapshots. *)

  val intern : int array -> int
  (** [intern sg] is a dense id for the signature [sg]: structurally equal
      arrays get one id, distinct arrays distinct ids (a full-array hash
      buckets them, structural equality decides).  For salts of kernels
      whose charge stream depends on more than a few ints — the sparsity
      pattern of a CSR extraction block.  The table keeps [sg], which the
      caller must not mutate afterwards, until {!clear}; ids depend on the
      order of first lookups, so they must only ever feed cache keys, never
      reported output.  Takes the cache mutex. *)

  val enabled : unit -> bool

  val set_enabled : bool -> unit
  (** Default: enabled.  Disabling stops lookups {e and} stores — and with
      them the direct fast path, which only runs off certified entries. *)

  val demote_hit : unit -> unit
  (** Reclassify the most recent provisional hit as a miss (the cached
      signature did not match the replayed stream, or a certified direct
      run hit a breakdown). *)

  val note_direct : unit -> unit

  val stats : unit -> int * int
  (** [(hits, misses)] since start (or the last {!clear}). *)

  val direct_hits : unit -> int
  (** How many hits were served by direct execution (no interpreter);
      always [<= fst (stats ())]. *)

  val entries : unit -> int
  (** Number of distinct keys currently cached. *)

  val export_gauges : Vblu_obs.Metrics.t -> unit
  (** Publish the cache tallies as registry gauges —
      [launch.cache.hits] / [.misses] / [.direct_hits] / [.entries] plus
      the derived [.hit_rate] and [.direct_fraction] — so health
      snapshots and bench artifacts can report cache effectiveness
      without poking internals.  Gauges are last-set-wins: refresh per
      reporting window at will. *)

  val clear : unit -> unit
  (** Empties the entries and the {!intern} table and zeroes the tallies. *)
end
