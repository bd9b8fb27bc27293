(** Variable-size batch descriptors.

    A batch is a large collection of independent small problems, each with
    its own size — the data layout all batched routines share.  The
    container is layout-polymorphic:

    {ul
    {- {b Blocked}: matrix blocks stored back-to-back, each column-major,
       with an offset table (the layout the paper's kernels consume, and
       the cuBLAS-model baseline rejects for variable sizes).}
    {- {b Interleaved} (SoA): problems are grouped in batch order into
       same-size cohorts of at most 32 members, and element [e] of every
       cohort member is stored contiguously — one warp access per element
       serves the whole cohort, the coalesced layout of Gloster et al.,
       "Efficient Interleaved Batch Matrix Solvers for CUDA".  Cohort
       bases are 32-element aligned (padding is zero-filled).}}

    Callers should never compute raw offsets: {!base}, {!stride} and
    {!index} give the per-problem addressing in either layout ([element e
    of problem p] lives at [base b p + stride b p * e], with [e = r + j*s]
    column-major).  For blocked batches [stride = 1] and [base] is the
    classic offset-table entry, so the historical field accesses keep
    their meaning. *)

open Vblu_smallblas

type layout = Blocked | Interleaved

val layout_name : layout -> string
(** ["blocked" | "interleaved"] — CLI/report spelling. *)

val layout_of_string : string -> (layout, string) result

type t = private {
  count : int;
  layout : layout;
  sizes : int array;  (** block order per problem ([sizes.(i)] ≥ 1). *)
  offsets : int array;
      (** length [count + 1]; [offsets.(i)] is problem [i]'s base element
          (for [Blocked], the start of its contiguous column-major block;
          for [Interleaved], cohort base + slot) and [offsets.(count)] the
          total storage length, padding included.  Only for [Blocked] is
          the table a prefix sum. *)
  widths : int array;
      (** per-problem element stride = cohort width (all 1 for
          [Blocked]). *)
  slots : int array;  (** per-problem slot within its cohort (0 for
          [Blocked]). *)
  values : float array;
}

val create : ?layout:layout -> int array -> t
(** [create sizes] allocates a zeroed batch with the given block sizes
    ([layout] defaults to [Blocked]).  The storage geometry is a pure
    function of [(layout, sizes)], so two batches over equal sizes and
    layout share offsets, widths and slots.
    @raise Invalid_argument on a non-positive size. *)

val shape : ?layout:layout -> int array -> t
(** [shape sizes] is {!create}'s geometry — offsets, widths, slots —
    with an empty [values] array: a values-free batch for computing
    addressing and cache salts without allocating storage.  Kernels must
    not be launched on it. *)

val with_values : t -> float array -> t
(** [with_values b values] is a batch with [b]'s geometry (sharing its
    sizes and offset tables) over [values], adopted without a copy — how a
    launch returns the device buffer its kernels wrote.  [b] may be a
    {!shape}.
    @raise Invalid_argument unless [values] has {!total_values} entries. *)

val of_matrices : ?layout:layout -> Matrix.t array -> t
(** Packs square matrices into a batch.  An empty array yields an empty
    batch ([count = 0]), which every batched kernel treats as a no-op.
    @raise Invalid_argument on a non-square input. *)

val to_matrices : t -> Matrix.t array

val get_matrix : t -> int -> Matrix.t
(** Dense copy of block [i]. *)

val set_matrix : t -> int -> Matrix.t -> unit
(** Overwrites block [i].  @raise Invalid_argument on a size mismatch. *)

val with_layout : layout -> t -> t
(** [with_layout l b] is [b] converted to layout [l] — bitwise lossless in
    both directions (padding is freshly zeroed).  Returns [b] itself when
    the layout already matches. *)

(** {2 Layout-polymorphic addressing} *)

val layout : t -> layout

val base : t -> int -> int
(** [base b i] is the element offset of problem [i]'s element 0. *)

val stride : t -> int -> int
(** [stride b i] is the distance between consecutive elements of problem
    [i]: 1 for [Blocked], the cohort width for [Interleaved]. *)

val index : t -> int -> int -> int -> int
(** [index b p r j] is the position of element [(r, j)] (column-major) of
    problem [p] in [values] — [base + stride * (r + j * sizes.(p))]. *)

val cohort : t -> int -> (int * int) option
(** [cohort b i] is [Some (width, slot)] for interleaved batches — the
    cohort-cooperative coalescing context of problem [i] — and [None] for
    blocked ones. *)

val salt_class : t -> int -> align:int -> int
(** Transaction-alignment class for [Launch.Cache] salts, [align] =
    elements per transaction.  Blocked problems map to [base mod align]
    ∈ [0, align); interleaved problems to [align + width] — disjoint
    ranges, so blocked and interleaved launches can never share a cache
    entry. *)

val cohort_salt : t -> int -> int
(** Layout tag for analytically charged kernels (no raw addresses in
    their charge stream): 0 for blocked, the cohort width for
    interleaved. *)

val count : t -> int

val total_values : t -> int
(** Storage length of the batch, interleaved padding included: the length
    of [values], or the length a {!shape} would need. *)

val uniform_sizes : count:int -> size:int -> int array
(** The fixed-size batch shape of the kernel benchmarks.  [count = 0]
    yields [[||]] (the empty batch is a defined no-op).
    @raise Invalid_argument on a negative count or non-positive size. *)

(** {2 Random workloads}

    Seeding contract: every [random_*] function called without [?state]
    derives a {e fresh} deterministic state from a per-function seed — no
    hidden global stream is shared between calls.  Consequently unseeded
    calls are pure: the same function with the same arguments returns the
    same data regardless of what ran before, of call order, and of the
    domain it runs on.  Pass an explicit [?state] to draw distinct data
    across calls (thread the state, or derive one per call site).  Data is
    drawn per problem in batch order, so the same seed yields bitwise
    identical per-problem data in either layout. *)

val random_sizes :
  ?state:Random.State.t -> count:int -> min_size:int -> max_size:int -> unit ->
  int array
(** Uniformly random sizes in [\[min_size, max_size\]] — the variable-size
    workload.  [count = 0] yields [[||]]. *)

val random_diagdom : ?state:Random.State.t -> ?layout:layout -> int array -> t
(** One well-conditioned random block per entry of [sizes] — the standard
    benchmark workload (guaranteed factorizable). *)

val random_general : ?state:Random.State.t -> ?layout:layout -> int array -> t
(** Random nonsingular blocks with nontrivial pivoting. *)

(** {1 Vector batches} *)

type vec = private {
  vcount : int;
  vlayout : layout;
  vsizes : int array;
  voffsets : int array;
      (** same contract as {!t.offsets}: per-problem base, last entry =
          total storage. *)
  vwidths : int array;
  vslots : int array;
  vvalues : float array;
}

val vec_create : ?layout:layout -> int array -> vec
(** Cohort grouping depends only on the sizes, so a matrix batch and a
    vector batch built from the same sizes and layout agree on widths and
    slots — one warp cohort context serves both buffers. *)

val vec_shape : ?layout:layout -> int array -> vec
(** The values-free {!vec_create}, as {!shape} is for matrix batches. *)

val vec_with_values : vec -> float array -> vec
(** {!with_values} for vector batches.
    @raise Invalid_argument unless the length is [voffsets.(vcount)]. *)

val vec_layout : vec -> layout
val vec_base : vec -> int -> int
val vec_stride : vec -> int -> int

val vec_index : vec -> int -> int -> int
(** [vec_index v p k] is the position of element [k] of problem [p]. *)

val vec_cohort : vec -> int -> (int * int) option
val vec_salt_class : vec -> int -> align:int -> int
val vec_cohort_salt : vec -> int -> int

val vec_with_layout : layout -> vec -> vec
(** Bitwise lossless layout conversion, like {!with_layout}. *)

val vec_of_vectors : ?layout:layout -> Vector.t array -> vec
(** Packs vectors into a vector batch; an empty array yields an empty
    batch. *)

val vec_get : vec -> int -> Vector.t
(** Fresh copy of problem [i]'s vector. *)

val vec_set : vec -> int -> Vector.t -> unit

val vec_random : ?state:Random.State.t -> ?layout:layout -> int array -> vec
(** Entries uniform in [(-1, 1)]; follows the seeding contract of the
    [random_*] batch builders above. *)
