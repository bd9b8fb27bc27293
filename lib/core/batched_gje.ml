open Vblu_smallblas
open Vblu_simt

type result = {
  inverses : Matrix.t array;
  info : int array;
  stats : Launch.stats;
}

type apply_result = {
  products : Batch.vec;
  apply_stats : Launch.stats;
}

let charge_invert w ~s =
  let p = Warp.size w in
  for _j = 1 to s do
    Charge.gmem_coalesced w ~elems:s
  done;
  Charge.round w;
  for _k = 0 to s - 1 do
    (* Implicit pivot search, the pivot-row broadcast-and-scale, then a
       rank-1 update of the whole padded tile (GJE transforms every row at
       every step — no lazy saving, hence the 2n³ cost). *)
    Charge.reduction w;
    Charge.div w 1.0;
    for _j = 0 to p - 1 do
      Charge.shfl w 1.0;
      Charge.fma w 1.0
    done
  done;
  for _j = 1 to s do
    Charge.gmem_coalesced w ~elems:s
  done;
  Warp.credit_flops w (Flops.invert s)

let invert ?(cfg = Config.p100) ?(pool = Vblu_par.Pool.sequential)
    ?(prec = Precision.Double) ?obs (b : Batch.t) =
  Array.iter
    (fun s ->
      if s > cfg.Config.warp_size then
        invalid_arg "Batched_gje.invert: block exceeds warp width")
    b.Batch.sizes;
  let inverses = Array.make b.Batch.count (Matrix.identity 1) in
  let info = Array.make b.Batch.count 0 in
  let kernel w i =
    Staging.set_cohort w b i;
    let inv, inf = Gauss_jordan.invert_status ~prec (Batch.get_matrix b i) in
    inverses.(i) <- inv;
    info.(i) <- inf;
    (* Full charge regardless of breakdown — data-independent instruction
       stream, like the register kernels predicating off a dead problem. *)
    charge_invert w ~s:b.Batch.sizes.(i)
  in
  (* The analytic charge stream is a pure function of the block size and
     the cohort width (elems-based coalescing sees no raw addresses), so
     the layout tag is the whole salt. *)
  let stats =
    Sampling.run ~cfg ~pool ?obs ~name:"gje.invert"
      ~cache:(fun i -> Batch.cohort_salt b i) ~prec ~mode:Sampling.Exact
      ~sizes:b.Batch.sizes ~kernel ()
  in
  { inverses; info; stats }

let charge_apply w ~s =
  Charge.gmem_coalesced w ~elems:s;
  Charge.round w;
  for _j = 1 to s do
    (* One coalesced column load, one shuffle of x_j, one FMA. *)
    Charge.gmem_coalesced w ~elems:s;
    Charge.shfl w 1.0;
    Charge.fma w 1.0
  done;
  Charge.gmem_coalesced w ~elems:s;
  Warp.credit_flops w (Flops.gemv s)

let apply ?(cfg = Config.p100) ?(pool = Vblu_par.Pool.sequential)
    ?(prec = Precision.Double) ?obs (r : result)
    (rhs : Batch.vec) =
  if Array.length r.inverses <> rhs.Batch.vcount then
    invalid_arg "Batched_gje.apply: batch count mismatch";
  let products = Batch.vec_create ~layout:rhs.Batch.vlayout rhs.Batch.vsizes in
  let kernel w i =
    Staging.set_vec_cohort w rhs i;
    let x = Matrix.gemv ~prec r.inverses.(i) (Batch.vec_get rhs i) in
    Batch.vec_set products i x;
    charge_apply w ~s:rhs.Batch.vsizes.(i)
  in
  let stats =
    Sampling.run ~cfg ~pool ?obs ~name:"gje.apply"
      ~cache:(fun i -> Batch.vec_cohort_salt rhs i) ~prec ~mode:Sampling.Exact
      ~sizes:rhs.Batch.vsizes ~kernel ()
  in
  { products; apply_stats = stats }
