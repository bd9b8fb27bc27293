open Vblu_sparse
open Vblu_precond

type _ family =
  | Jacobi : Block_jacobi.handle family
  | Ilu0 : Block_ilu0.handle family

type data =
  | Jacobi_setup of Block_jacobi.handle
  | Ilu0_setup of Block_ilu0.handle

let tag : type h. h family -> int = function Jacobi -> 0 | Ilu0 -> 1

let wrap : type h. h family -> h -> data =
 fun family h ->
  match family with Jacobi -> Jacobi_setup h | Ilu0 -> Ilu0_setup h

let unwrap : type h. h family -> data -> h option =
 fun family d ->
  match (family, d) with
  | Jacobi, Jacobi_setup h -> Some h
  | Ilu0, Ilu0_setup h -> Some h
  | _ -> None

type entry = {
  e_row_ptr : int array;
  e_col_idx : int array;
  mutable e_data : data;
}

let capacity = 256

type t = {
  tbl : (string, entry) Hashtbl.t;
  order : string Stdlib.Queue.t;  (* insertion order, oldest first *)
}

let create () = { tbl = Hashtbl.create 64; order = Stdlib.Queue.create () }

(* The fingerprint hashes the full pattern (not a sample), so distinct
   patterns practically never collide; the stored pattern arrays are
   still compared on every hit, making a collision harmless rather than
   incorrect. *)
let key ~tag ~max_block_size (a : Csr.t) =
  Digest.string
    (Marshal.to_string
       (tag, a.Csr.n_rows, max_block_size, a.Csr.row_ptr, a.Csr.col_idx)
       [])

let find (type h) t (family : h family) ~a ~max_block_size : h option =
  match Hashtbl.find_opt t.tbl (key ~tag:(tag family) ~max_block_size a) with
  | Some e when e.e_row_ptr = a.Csr.row_ptr && e.e_col_idx = a.Csr.col_idx ->
    unwrap family e.e_data
  | _ -> None

let store t family ~a ~max_block_size h =
  let k = key ~tag:(tag family) ~max_block_size a in
  let data = wrap family h in
  match Hashtbl.find_opt t.tbl k with
  | Some e -> e.e_data <- data
  | None ->
    if Stdlib.Queue.length t.order >= capacity then
      Hashtbl.remove t.tbl (Stdlib.Queue.pop t.order);
    Hashtbl.replace t.tbl k
      { e_row_ptr = a.Csr.row_ptr; e_col_idx = a.Csr.col_idx; e_data = data };
    Stdlib.Queue.push k t.order
