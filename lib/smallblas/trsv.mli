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

(** {2 Compressed factors}

    A packed LU factor whose stored entries are mostly exact zeros solves
    faster over its nonzeros alone.  {!compress} keeps, per column, the
    negated strictly-lower and strictly-upper nonzeros in the eager pair's
    visiting order, plus the diagonal; {!pair_compressed_view} then issues
    the eager pair's FMAs minus the exact-zero terms, and keeps the result
    only when every output is finite and nonzero — otherwise it reruns
    {!pair_eager_view} from the untouched input.  So its result and
    [info] are always {!pair_eager_view}'s, bit for bit (DESIGN §5i). *)

type compressed
(** One factor's compression, with its own solve scratch: mutable, so one
    value serves one block and one solve at a time. *)

val uncompressed : compressed
(** Holds no factor: a solve through it is {!pair_eager_view}.  A shared
    constant that {!compress} never writes. *)

val compress :
  ?prec:Precision.t -> compressed -> m:float array -> n:int -> compressed
(** [compress c ~m ~n] compresses the column-major packed factor [m]
    (order [n], offset 0, unit stride) into [c]'s storage, or into fresh
    storage when [c]'s is too small, and returns it.  Only factors of
    order at least 2 with no zero on the diagonal and at most half their
    entries nonzero qualify; for any other the result holds no factor.
    In Single, column 0 of L and U's entry (0, n-1) are kept even when
    zero: each is the first FMA its element meets, whose rounding the
    element must see. *)

val pair_compressed_view :
  ?prec:Precision.t -> ?bstride:int -> c:compressed ->
  m:float array -> n:int -> b:float array -> boff:int -> unit -> int
(** [pair_compressed_view ~c ~m ~n ~b ~boff ()] is [pair_eager_view ~m
    ~moff:0 ~n ~b ~boff ()] bitwise, [info] included, for the factor [m]
    that [c] was last compressed from with the same [prec]. *)

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
