(* Output checks shared by the workloads. *)

open Vblu_smallblas
open Vblu_sparse

(* Bitwise equality of two float arrays (-0. and 0. differ, as do NaN
   payloads). *)
let same_bits x y =
  Array.length x = Array.length y
  && Array.for_all2 (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v) x y

(* The true residual of [x], recomputed here, meets the solvers' target
   1e-6 * |b|. *)
let residual_ok a b x =
  let ax = Csr.spmv a x in
  Vector.nrm2 (Array.mapi (fun i bi -> bi -. ax.(i)) b) <= 1e-6 *. Vector.nrm2 b
