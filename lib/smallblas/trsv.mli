(** Triangular solves on small dense blocks.

    Both the "lazy" (DOT-based) and "eager" (AXPY-based) algorithmic
    variants of Figure 2 of the paper are provided.  The paper's batched
    kernel uses the eager variant because its AXPY parallelizes across the
    warp without a reduction and reads the matrix one column at a time
    (coalesced in column-major storage); the lazy variant exists as the
    baseline for the corresponding ablation.

    All solvers operate on the {e packed} LU storage: the lower solvers
    read only the strict lower triangle and assume a unit diagonal, the
    upper solvers read the upper triangle including the diagonal.  They can
    therefore be applied directly to {!Lu.factors}. *)

(** {2 Batch-view variants}

    Allocation-free solve pairs (unit lower, then upper with diagonal) over
    a column-major [n]×[n] packed factor block at element offset [moff] of
    a batch value array, updating the solution segment [b.(boff ...)] in
    place — the direct-execution counterparts of the batched TRSV kernels,
    bitwise identical to them including the frozen partial state and
    [info = k + 1] on a zero diagonal at step [k].  [mstride]/[bstride]
    (default 1) are the element strides of the factor and solution
    batches: 1 for blocked storage, the cohort width for interleaved. *)

val pair_eager_view :
  ?prec:Precision.t -> ?mstride:int -> ?bstride:int ->
  m:float array -> moff:int -> n:int -> b:float array -> boff:int ->
  unit -> int
(** Eager (AXPY) schedule: one FMA per column element, one division per
    final solution element.  Returns [info]. *)

val pair_lazy_view :
  ?prec:Precision.t -> ?mstride:int -> ?bstride:int ->
  m:float array -> moff:int -> n:int -> b:float array -> boff:int ->
  unit -> int
(** Lazy (DOT) schedule: per step a rounded lanewise product folded
    left-to-right (the kernel's register reduction order), one subtract and
    — in the upper sweep — one division.  Returns [info]. *)

val apply_perm : int array -> Vector.t -> Vector.t
(** [apply_perm perm b] is the permuted right-hand side [Pb]:
    element [k] of the result is [b.(perm.(k))] — exactly the fused
    permutation-on-load the batched TRSV kernel performs. *)

val solve : ?prec:Precision.t -> Matrix.t -> int array -> Vector.t -> Vector.t
(** [solve lu perm b]: {!apply_perm}, then {!pair_eager_view} — the full
    GETRS sequence on packed factors, returning a fresh solution vector.
    @raise Error.Singular on a zero diagonal entry of [U]. *)

val solve_status :
  ?prec:Precision.t -> Matrix.t -> int array -> Vector.t -> Vector.t * int
(** Non-raising {!solve}: returns [(x, info)] with [info = 0] on success or
    [k + 1] for a zero diagonal at step [k] of the upper sweep, [x] then
    frozen as in {!pair_eager_view}. *)
