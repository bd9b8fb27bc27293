(** Level-set scheduling of block-triangular dependency DAGs.

    A sparse triangular solve looks sequential — row [i] needs the
    solution of every row its off-diagonal entries touch — but the
    dependency structure is a DAG, and rows at the same {e depth} of that
    DAG are mutually independent [Li & Saad, "On Parallel Solution of
    Sparse Triangular Linear Systems in CUDA"].  Grouping rows (here:
    diagonal {e blocks} of a partition) by depth yields level sets; each
    level executes as one batched wave on the simulator, and the level
    count is the serial critical path the hardware cannot hide.

    This module computes the block dependency DAG of a CSR matrix under a
    given diagonal partition ([starts]/[sizes], the same shape as
    [Supervariable.blocking] — passed as raw arrays so this library stays
    below the preconditioner layer), its level schedule, and the summary
    statistics that diagnose sequential-bottleneck matrices.  A scalar
    (row-level) analysis is the uniform size-1 partition. *)

type triangle =
  | Lower  (** strictly-lower coupling: block [i] depends on blocks [k < i]
               with a structural nonzero in block position [(i, k)] — the
               forward-substitution DAG. *)
  | Upper  (** strictly-upper coupling: block [i] depends on blocks [j > i]
               — the backward-substitution DAG. *)

type schedule = {
  triangle : triangle;
  starts : int array;  (** first row of each block, ascending. *)
  sizes : int array;  (** block orders; [starts]/[sizes] tile [0..n-1]. *)
  deps : int array array;
      (** [deps.(i)] = blocks that must complete before block [i]
          (ascending): the strictly-lower (resp. strictly-upper) block
          pattern of block row [i]. *)
  level_of : int array;
      (** 0-based level of each block:
          [1 + max (level_of dependencies)], [0] for independent blocks. *)
  level_sets : int array array;
      (** [level_sets.(l)] = blocks at level [l], ascending.  Execution
          order: level [0] first — for {!Upper} the member blocks have
          {e higher} indices than their dependents, matching a backward
          sweep. *)
}

type stats = {
  blocks : int;
  edges : int;  (** dependency edges = off-diagonal block-pattern entries. *)
  levels : int;  (** sequential depth: batched waves per solve. *)
  max_width : int;  (** largest level (peak batch occupancy). *)
  avg_width : float;  (** blocks / levels — mean wave occupancy. *)
  critical_path_rows : int;
      (** rows along the heaviest dependency chain (chain weight = sum of
          member block sizes) — the work that cannot be overlapped even
          with unlimited parallelism. *)
}

val schedule :
  triangle -> starts:int array -> sizes:int array -> Csr.t -> schedule
(** Build the block dependency DAG and its level schedule.
    @raise Invalid_argument if the matrix is not square or [starts]/[sizes]
    do not tile [0..n-1]. *)

val scalar : triangle -> Csr.t -> schedule
(** Row-level analysis: {!schedule} under the uniform size-1 partition. *)

val stats : schedule -> stats

val pp_stats : Format.formatter -> stats -> unit
(** One line: blocks, edges, levels, widths, critical path. *)
