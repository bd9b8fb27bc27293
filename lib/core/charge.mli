(** Counter charging for analytic kernels.

    The small-size LU and TRSV kernels are simulated functionally, lane by
    lane.  The comparison kernels (Gauss-Huard, Gauss-Jordan, the
    cuBLAS-model baseline) compute their numerics on the CPU reference
    path and charge their instruction and memory-traffic counts through
    these helpers instead — the counts follow the kernels' documented
    structure, and DESIGN.md records them as analytic models. *)

open Vblu_simt

val fma : Warp.t -> float -> unit
(** [fma w n] charges [n] warp-wide FMA/ALU instructions. *)

val div : Warp.t -> float -> unit

val shfl : Warp.t -> float -> unit

val smem : Warp.t -> float -> unit
(** Shared-memory access slots (conflict serializations included by the
    caller). *)

val reduction : Warp.t -> unit
(** A warp tree reduction: [log2 32] shuffle + ALU pairs. *)

val gmem_coalesced : Warp.t -> elems:int -> unit
(** One access instruction touching [elems] consecutive scalars: the
    minimal number of transactions.  Under a warp cohort context
    ([Warp.set_cohort], interleaved layouts) the charge becomes this
    problem's [1/width] share of the cohort's collective access. *)

val gmem_strided_read : Warp.t -> elems:int -> stride_bytes:int -> unit
(** A non-coalesced read of [elems] scalars [stride_bytes] apart.  Issue
    cost scales with the lane-address divergence (transaction replays),
    but the DRAM traffic is only the touched footprint: consecutive steps
    of a row-walking kernel re-hit the same sectors and the cache absorbs
    the re-reads.  Under a cohort context each element is a width-wide
    contiguous strip shared by the cohort, charged amortized — strided
    reads stop paying one transaction per element. *)

val round : Warp.t -> unit
(** One dependent memory round-trip (latency term). *)
