(** Diagonal-block extraction from CSR (Section III-C).

    Block-Jacobi setup must pull dense diagonal blocks out of the sparse
    system matrix.  Two strategies, both simulated functionally:

    - {!Row_per_thread} (the naive baseline): thread [r] of the warp scans
      CSR row [r] of the block on its own.  Lanes sit at unrelated offsets
      into [col_idx], so the index loads are non-coalesced, and the warp
      iterates as long as its {e longest} row — severe imbalance on
      matrices with skewed nonzero distributions (circuit simulation).

    - {!Shared_memory} (the paper's strategy): all 32 threads cooperate on
      {e each} row in turn, streaming its column indices in coalesced
      32-wide chunks; lanes that hit an element of the diagonal block fetch
      the value and drop it into the shared-memory tile at its final
      position.  Imbalance now only exists between the rows of one block,
      and every index load is coalesced.  A final pass moves each row from
      the tile into the registers of the thread that will factorize it.

    Both produce identical batches (tested against the dense
    {!Vblu_sparse.Csr.extract_block} gather). *)

open Vblu_simt
open Vblu_sparse

type strategy =
  | Row_per_thread
  | Shared_memory

type result = {
  blocks : Batch.t;
      (** the extracted dense diagonal blocks. *)
  stats : Launch.stats;
}

val extract :
  ?cfg:Config.t ->
  ?pool:Vblu_par.Pool.t ->
  ?prec:Vblu_smallblas.Precision.t ->
  ?strategy:strategy ->
  ?obs:Vblu_obs.Ctx.t ->
  Csr.t ->
  block_starts:int array ->
  block_sizes:int array ->
  result
(** [extract a ~block_starts ~block_sizes] gathers the square diagonal
    blocks [a(start, start) .. (start+size-1, start+size-1)].
    Blocks must be disjoint, in-range, and no larger than the warp.
    @raise Invalid_argument otherwise.

    The launch uses {!Launch.Cache}: each block's salt is the
    {!Launch.Cache.intern} id of its sparsity signature (row lengths, the
    position and column of every in-block entry, and the transaction
    alignment of its row pointers, start row and output offset), so a
    block whose pattern was seen before takes the cached counters and is
    gathered straight from the host CSR without the warp interpreter.  The
    device copies of the CSR are staged only if some block is
    interpreted. *)
