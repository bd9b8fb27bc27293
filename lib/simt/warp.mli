(** One simulated warp: 32 lanes executing in lockstep.

    Kernels are written exactly as warp-synchronous CUDA: a lane-indexed
    value is a [float array] of length {!size} (the "register" each thread
    holds), operations apply to all lanes at once under an optional
    predication mask, and cross-lane data movement goes through shuffles.
    Every operation charges the warp's {!Counter.t}; predicated-off lanes
    still cost full issue slots (the SIMT execution rule that makes the
    paper's explicit row swap expensive: two active lanes, thirty idle).

    {b Zero-allocation discipline.}  A warp owns a scratch arena —
    preallocated register, mask and address slots plus the internal
    coalescing/bank-conflict scratch — and every operation has an
    [*_into] variant writing a caller-chosen destination.  Kernel inner
    loops run allocation-free: they borrow arena slots ({!reg},
    {!mask_slot}, {!addr_slot}), fill masks/addresses with plain loops,
    and chain [*_into] ops.

    {b Charge-free replay.}  {!set_charging}[ w false] turns off the
    floating-point counter work (including the coalescing segment count)
    while numerics proceed unchanged; the integer {!events} signature keeps
    counting issuing calls in both modes, witnessing that a replayed
    instruction stream matches the one whose counters were cached
    (see [Launch.Cache]). *)

open Vblu_smallblas
open Vblu_fault

type t

val create : ?cfg:Config.t -> ?inject:Fault.Injector.t -> Precision.t -> unit -> t
(** A fresh warp with zeroed counters and its own scratch arena.  [cfg]
    defaults to {!Config.p100}.  [inject] attaches a fault injector
    (default: none — the zero-overhead path; without an injector, results
    and counters are bit-identical to a fault-free build). *)

val reset : ?inject:Fault.Injector.t -> t -> unit
(** Recycle the warp for the next problem: zero the counters and event
    signature, re-enable charging, and replace the injector ([None] when
    omitted).  Arena contents are left stale — kernels overwrite every
    slot lane they read (loads write inactive lanes as 0), so no wiping
    pass is needed. *)

val fault_step : t -> int -> unit
(** Announce elimination step [k] to the attached injector: plan sites
    addressed at [(problem, k)] arm (one-shot) and fire on the next
    operation of their target class — arithmetic results for [Register],
    shared-memory accesses for [Shared], global loads/stores for
    [Global].  A no-op without an injector.  Fired faults corrupt data
    only; they never charge the counters. *)

val size : t -> int

val prec : t -> Precision.t

val counter : t -> Counter.t

val cfg : t -> Config.t

(** {1 Scratch arena} *)

val reg : t -> int -> float array
(** [reg w i] borrows arena register slot [i] (a lane-width float array).
    72 slots exist — enough for two full 32-column tiles plus temporaries.
    Slots keep their contents across operations but are clobbered by
    whoever borrows the same index; a kernel owns the whole arena for the
    duration of its problem.
    @raise Invalid_argument on an out-of-range slot. *)

val mask_slot : t -> int -> bool array
(** Arena predication-mask slot (8 exist); fill with a plain loop. *)

val addr_slot : t -> int -> int array
(** Arena address-vector slot (4 exist). *)

(** {1 Charge-free replay} *)

val set_charging : t -> bool -> unit
(** Enable/disable counter charging.  Charge-free mode skips all float
    counter updates and the coalescing/bank analyses; numerics, faults and
    the {!events} signature are unaffected.  {!reset} re-enables. *)

val events : t -> int array
(** The op-event signature: issuing-call counts
    [|fma; div; shfl; gmem; smem; rounds|], bumped once per API call in
    both charging modes.  Two runs of a data-independent kernel produce
    equal signatures; a divergent (e.g. breakdown) path shows up as a
    mismatch — the safety check behind [Launch.Cache] hits. *)

val events_equal : t -> int array -> bool
(** [events_equal w e] compares the warp's current signature against a
    previously captured {!events} array without allocating — the
    per-problem replay check of [Launch.Cache] hits (an array per problem
    would break the engine's allocation-free hot-path invariant). *)

val acquire : t -> bool
(** Try to mark the warp busy; [false] if it already is (re-entrant use —
    the caller must then fall back to a fresh warp). *)

val release : t -> unit

(** {1 Explicit charging} — for analytically modelled kernels.  Amounts
    are warp-instruction counts; each call also bumps the corresponding
    event once. *)

val charge_fma : t -> float -> unit
val charge_div : t -> float -> unit
val charge_shfl : t -> float -> unit

val charge_smem : t -> float -> unit
(** Shared-memory access slots, conflict serializations included by the
    caller. *)

val charge_gmem : t -> instrs:float -> txns:int -> unit
(** Global-memory issue slots plus [txns] transactions and their bytes. *)

val charge_gmem_frac : t -> instrs:float -> txns:float -> unit
(** Fractional {!charge_gmem} for cohort-amortized analytic charges: one
    problem's [1/width] share of a collective access.  Same event bump. *)

val charge_gmem_elems : t -> int -> unit
(** Logical elements touched (the pre-coalescing data volume). *)

(** {1 Cohort-cooperative coalescing} — interleaved batch layouts.

    With an interleaved (SoA) batch, one modelled warp serves a whole
    same-size cohort, one problem per lane: an element touched by this
    kernel is touched simultaneously for all cohort members, so the
    collective footprint of a lane address [a] is the contiguous strip
    [\[a - slot, a - slot + width)].  While a cohort context is set, the
    coalescing model counts the distinct transaction segments of the
    union of those strips and charges this problem its [1/width] share —
    fewer (often fractional) transactions per problem than the blocked
    layout's scattered accesses.  With [width <= 1] (the default) the
    charge is byte-identical to the classic per-lane model. *)

val set_cohort : t -> width:int -> slot:int -> unit
(** Enter cohort-cooperative charging: this warp computes cohort member
    [slot] of a [width]-member interleaved cohort.
    @raise Invalid_argument on a negative width/slot or [slot >= width]
    (when [width > 1]). *)

val clear_cohort : t -> unit
(** Back to per-lane coalescing (also done by {!reset}). *)

val cohort_width : t -> int
(** Current cohort width; [0] outside a cohort context. *)

val credit_flops : t -> float -> unit
(** Credit useful flops (no event — not an instruction).  A no-op in
    charge-free mode. *)

(** {1 Arithmetic} — one warp instruction each, lanewise, rounded to the
    warp's precision.  [?active] defaults to all lanes; inactive lanes
    pass their [c]/first-operand value through unchanged.  Each op
    writes [~dst], which may alias any operand — lanes are
    independent. *)

val fma_into :
  t -> ?active:bool array -> dst:float array -> float array -> float array ->
  float array -> unit
(** [fma_into w ~dst a b c] is lanewise [dst ← a*b + c] (single rounding);
    inactive lanes get [c]. *)

val fnma_into :
  t -> ?active:bool array -> dst:float array -> float array -> float array ->
  float array -> unit
(** [dst ← c - a*b] (single rounding) — the elimination update. *)

val add_into :
  t -> ?active:bool array -> dst:float array -> float array -> float array -> unit

val mul_into :
  t -> ?active:bool array -> dst:float array -> float array -> float array -> unit

val div_into :
  t -> ?active:bool array -> dst:float array -> float array -> float array -> unit
(** Charged at the hardware model's division expansion cost. *)

val sqrt_into : t -> ?active:bool array -> dst:float array -> float array -> unit
(** Lanewise square root; like division, GPUs expand it into a
    multi-instruction sequence, so it is charged at the division cost. *)

(** {1 Cross-lane communication} *)

val broadcast_into : t -> dst:float array -> float array -> src:int -> unit
(** Every lane of [dst] gets [x.(src)] — [__shfl_sync] from a single
    source lane ([x] is read before [dst] is filled, so aliasing is
    fine); one shuffle instruction. *)

val argmax_abs : t -> ?active:bool array -> float array -> int
(** Index of the lane holding the largest magnitude among active lanes —
    the pivot search, realized as a [log₂ 32]-step butterfly reduction
    (5 shuffles + 5 compare/select pairs are charged; the round count is
    the exact integer ceiling log, not a float round-trip).  Ties resolve
    to the lowest lane index, matching the sequential reference.
    @raise Invalid_argument if no lane is active. *)

(** {1 Global memory} *)

val load_into :
  t -> Gmem.t -> ?active:bool array -> int array -> dst:float array -> unit
(** [load_into w mem addrs ~dst]: active lanes read [mem\[addrs.(lane)\]]
    into [dst], inactive lanes write 0 — every lane of [dst] is written,
    so reused arena slots carry no stale data into the kernel.  Charges
    the coalescing-derived number of transactions and their full bytes. *)

val store : t -> Gmem.t -> ?active:bool array -> int array -> float array -> unit

val round_barrier : t -> unit
(** Marks the end of a dependent global-memory round-trip: the next load
    cannot be overlapped with the previous one.  Adds one latency term to
    this warp's serial critical path. *)

(** {1 Shared memory} *)

type smem
(** A per-thread-block shared-memory tile. *)

val smem_alloc : t -> int -> smem

val smem_store : t -> smem -> ?active:bool array -> int array -> float array -> unit
(** Bank conflicts are detected per access (lanes hitting the same bank at
    different addresses serialize) and charged as extra issue slots. *)

val smem_load_into :
  t -> smem -> ?active:bool array -> int array -> dst:float array -> unit

val smem_read : smem -> int -> float
(** Host-side peek (no cost); for tests. *)
