(* Per-domain scratch for the direct-execution fast path: the batch-view
   numerics need a dense tile (implicit-pivoting LU), a staged input
   block and a small int array, and allocating them per problem would forfeit the allocation-free
   hot path the warp arena bought.  One buffer set per domain suffices —
   direct closures run to completion inside [Sampling.run]'s per-problem
   call, never concurrently within a domain. *)

type t = { tile : float array; src : float array; ints : int array }

let max_n = 32

let scratch_key : t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        tile = Array.make (max_n * max_n) 0.0;
        src = Array.make (max_n * max_n) 0.0;
        ints = Array.make max_n 0;
      })

let get () = Domain.DLS.get scratch_key
