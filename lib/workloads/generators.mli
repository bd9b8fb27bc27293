(** Sparse test-matrix generators.

    Synthetic stand-ins for the SuiteSparse problems of the paper's
    Table I.  Each generator controls the properties the block-Jacobi
    experiments actually depend on: an inherent diagonal block structure
    (supervariables), nonzero balance, symmetry, and conditioning.  All
    generators are deterministic for a given seed: the random ones
    ([fem_blocks], [block_tridiagonal], [circuit_like]) draw only from the
    [~state] they are given, so a matrix depends on that state and on
    nothing that ran before. *)

open Vblu_sparse

val laplacian_2d : ?nx:int -> ?ny:int -> unit -> Csr.t
(** 5-point finite-difference Laplacian on an [nx × ny] grid: SPD,
    perfectly balanced rows, bandwidth [nx] — the "nice" PDE baseline. *)

val laplacian_3d : ?nx:int -> ?ny:int -> ?nz:int -> unit -> Csr.t
(** 7-point stencil on a 3-D grid. *)

val convection_diffusion_2d : ?nx:int -> ?ny:int -> ?peclet:float -> unit -> Csr.t
(** Upwind-discretized convection–diffusion: nonsymmetric with the skew
    part growing with [peclet]; the workload IDR(s) is designed for. *)

val fem_blocks :
  state:Random.State.t ->
  ?nodes:int ->
  ?vars_per_node:int ->
  ?coupling:float ->
  ?margin:float ->
  unit ->
  Csr.t
(** A finite-element-style system: a random planar-ish node graph where
    every node carries [vars_per_node] unknowns; the variables of one node
    are densely coupled (forming exact supervariables of that size) and
    neighbouring nodes couple with strength [coupling] < 1.  The diagonal
    is set to [(1 + margin)] times the absolute off-diagonal row sum:
    nonsingular by construction, but only barely dominant (default margin
    5%), so preconditioner quality shows in the iteration counts.  This is
    the family whose block structure supervariable blocking is meant to
    discover. *)

val block_tridiagonal :
  state:Random.State.t ->
  ?blocks:int ->
  ?block_size:int ->
  ?margin:float ->
  ?coupling:float ->
  unit ->
  Csr.t
(** Dense diagonal blocks of the given size with scalar coupling of the
    given strength to the neighbouring blocks and a [(1 + margin)]-dominant
    diagonal — the idealized block-Jacobi target. *)

val circuit_like :
  state:Random.State.t -> ?n:int -> ?hubs:int -> ?hub_degree:int -> unit -> Csr.t
(** A diagonally dominant system whose pattern mixes a sparse mesh with a
    few very dense hub rows (power-grid / circuit-simulation style): the
    unbalanced-nonzero workload that motivates the shared-memory
    extraction strategy. *)

val anisotropic_2d : ?nx:int -> ?ny:int -> ?epsilon:float -> unit -> Csr.t
(** Anisotropic diffusion ([epsilon ≪ 1] weakens the y-coupling): harder
    for point Jacobi, good for line-like blocks. *)
