(** Per-domain scratch buffers for the direct-execution fast path.

    The batch-view numerics ([Vblu_smallblas]'s [*_view] functions) take
    caller-owned scratch so their inner loops stay allocation-free; this
    module owns one reusable buffer set per domain, sized for the largest
    warp-kernel problem (n = 32).  Direct closures run sequentially within
    a domain (one per problem, to completion), so a single set per domain
    is race-free. *)

type t = {
  tile : float array;
      (** [32 × 32] dense scratch tile; during implicit-pivoting LU it
          holds the block row-major ([tile.(r*n + j)]). *)
  src : float array;
      (** second [32 × 32] tile: an input block staged (rounded,
          transposed) for a view that reads it. *)
  ints : int array;  (** length-32 integer scratch (e.g. pivot steps). *)
}

val get : unit -> t
(** This domain's scratch. *)
