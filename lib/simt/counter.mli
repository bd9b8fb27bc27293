(** Event counters for one simulated warp.

    Every {!Warp} operation charges the counters; {!Launch} turns the
    totals into modelled kernel time.  [useful_flops] is credited
    explicitly by the kernels with the {!Vblu_smallblas.Flops} formulas, so
    padding and other overheads show up as a gap between executed work and
    useful work — the mechanism behind the paper's Figure 5 crossovers. *)

type t = {
  mutable fma_instrs : float;
      (** warp-wide arithmetic instructions (FMA/add/mul/compare). *)
  mutable div_instrs : float;  (** warp-wide divisions. *)
  mutable shfl_instrs : float;  (** warp shuffles (incl. reductions). *)
  mutable smem_accesses : float;
      (** shared-memory access instructions, bank-conflict serializations
          already included. *)
  mutable gmem_instrs : float;
      (** global load/store instructions issued (issue cost, distinct from
          the transferred bytes). *)
  mutable gmem_transactions : float;
      (** 32-byte global-memory transactions.  Held as a float so that
          size-class scaling ({!scale_into}) stays exact; round once when
          the total is consumed (see {!transactions}). *)
  mutable gmem_bytes : float;
      (** bytes moved over the global-memory interface (float, same
          rationale as [gmem_transactions]). *)
  mutable gmem_elems : float;
      (** matrix/vector elements touched by active lanes, before
          coalescing.  Whereas [gmem_transactions] depends on the access
          pattern (a strided read of [n] elements can cost [n]
          transactions, a unit-stride one far fewer), [gmem_elems] counts
          the logical data volume — the quantity two algorithmic variants
          of the same routine must agree on.  The eager/lazy TRSV parity
          test is stated in these units. *)
  mutable gmem_rounds : int;
      (** dependent global-memory round-trips (each adds a latency term to
          the single-warp critical path).  NOTE: unlike every other field,
          {!add} merges this with [max], not [+] — see {!add}. *)
  mutable useful_flops : float;
}

val create : unit -> t

val copy : t -> t
(** A detached snapshot — used to bank a reused warp's per-problem counts
    before the warp is reset for the next problem, and to hand out private
    copies of cached counters (callers mutate their copy via {!add}). *)

val reset : t -> unit
(** Zero every field in place — the counter half of [Warp.reset]. *)

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc].  Every field sums, with one
    exception: [gmem_rounds] merges with [max], not [+].  Rounds model the
    {e critical-path depth} of dependent memory round-trips within one
    warp; warps in a batch overlap those latencies, so the batch-level
    depth is the deepest single warp, not the sum over warps.  Summing
    would make modelled latency grow linearly with batch size and bury the
    throughput terms.  (For the same reason {!scale_into} leaves
    [gmem_rounds] unscaled.) *)

val scale_into : t -> float -> t
(** [scale_into x f] returns a fresh counter holding [x] scaled by [f] —
    used when one representative warp stands for a whole size class.  The
    scaled transaction/byte counts are kept exact (no per-class rounding),
    so [Sampled] extrapolation matches [Exact] accumulation. *)

val transactions : t -> int
(** Global-memory transaction total, rounded to the nearest integer. *)

val credit_flops : t -> float -> unit
