(** The 48-matrix test suite standing in for the paper's Table I.

    The paper evaluates on 48 SuiteSparse problems.  Those matrices cannot
    ship inside this repository, so each entry here names the original
    problem and generates a synthetic matrix of the same {e family}
    (structural FEM with multi-variable nodes, scalar 2-D/3-D PDEs,
    convection-dominated flows, circuit-style unbalanced patterns, dense
    block chains), scaled to run on one CPU core.  Absolute iteration
    counts will differ from Table I; the comparisons the reproduction makes
    (across block-size bounds and factorization variants) are within-suite.

    Matrices are generated on demand and deterministically (a fixed seed
    per entry). *)

open Vblu_sparse

type family =
  | Structural_fem  (** multi-variable FEM nodes → natural supervariables. *)
  | Scalar_pde  (** 2-D/3-D scalar stencils. *)
  | Convection  (** nonsymmetric, convection-dominated. *)
  | Circuit  (** unbalanced nonzeros, hub rows. *)
  | Block_chain  (** dense diagonal blocks, weak coupling. *)

val family_name : family -> string

type entry = {
  id : int;  (** 1-based index, mirroring Table I's "ID" column. *)
  name : string;  (** SuiteSparse problem this entry stands in for. *)
  family : family;
  generate : unit -> Csr.t;
}

val all : entry list
(** All 48 entries, ascending [id]. *)

val matrix : entry -> Csr.t
(** Generate (deterministic per entry). *)
