open Vblu_smallblas
open Vblu_simt

type result = {
  factors : Batch.t;
  pivots : int array array;
  info : int array;
  stats : Launch.stats;
}

type solve_result = {
  solutions : Batch.vec;
  solve_info : int array;
  solve_stats : Launch.stats;
}

let tile_sizes = [ 8; 16; 32 ]

(* Residual slowdown of the closed-source kernel relative to what the
   structural shared-memory model explains; calibrated once against the
   paper's 3.5x factorization gap at size 32. *)
let generic_overhead = 2.0

let tile_for s =
  match List.find_opt (fun t -> s <= t) tile_sizes with
  | Some t -> t
  | None -> invalid_arg "Cublas_model: block size exceeds the largest tile"

(* An empty batch is uniform by convention (size 0, handled as a no-op by
   Sampling.run); [tile_for] is only consulted when there is work. *)
let check_uniform (sizes : int array) name =
  if Array.length sizes = 0 then 0
  else begin
    let s = sizes.(0) in
    Array.iter
      (fun x ->
        if x <> s then
          invalid_arg
            (name ^ ": variable block size is not supported by the cuBLAS model"))
      sizes;
    s
  end

let charge_scaled w f =
  (* Apply the generic overhead to compute slots only (memory traffic is
     structural). *)
  Charge.fma w (f *. generic_overhead)

let charge_factor w ~s =
  let t = tile_for s in
  for _j = 1 to s do
    Charge.gmem_coalesced w ~elems:s
  done;
  Charge.round w;
  (* Stage into shared memory. *)
  Charge.smem w (float_of_int (s * s / 32 * 2));
  for k = 0 to s - 1 do
    (* Pivot search through shared memory. *)
    Charge.smem w (float_of_int (t / 8));
    Charge.reduction w;
    (* Explicit two-row exchange across the tile width. *)
    Charge.smem w (float_of_int (2 * t) *. generic_overhead);
    (* Scale column k. *)
    Charge.div w 1.0;
    Charge.smem w 2.0;
    (* Trailing update: operands cycle through shared memory and the
       generic (non-register) inner loop spends several ALU ops per
       updated column on addressing and predication. *)
    let width = max 0 (t - 1 - k) in
    Charge.smem w (float_of_int width *. generic_overhead);
    charge_scaled w (float_of_int width *. 2.5)
  done;
  for _j = 1 to s do
    Charge.gmem_coalesced w ~elems:s
  done;
  Charge.gmem_coalesced w ~elems:s;
  Warp.credit_flops w (Flops.getrf s)

let factor ?(cfg = Config.p100) ?(pool = Vblu_par.Pool.sequential)
    ?(prec = Precision.Double) ?(mode = Sampling.Exact) ?obs (b : Batch.t) =
  let s = check_uniform b.Batch.sizes "Cublas_model.factor" in
  if b.Batch.count > 0 then ignore (tile_for s);
  let factors = Batch.create ~layout:(Batch.layout b) b.Batch.sizes in
  let pivots = Array.make b.Batch.count [||] in
  let info = Array.make b.Batch.count 0 in
  let kernel w i =
    Staging.set_cohort w b i;
    let f, inf = Lu.factor_explicit_status ~prec (Batch.get_matrix b i) in
    Batch.set_matrix factors i f.Lu.lu;
    pivots.(i) <- f.Lu.perm;
    info.(i) <- inf;
    (* Full charge regardless of breakdown: getrfBatched runs its fixed
       instruction stream and reports per-problem info, like this model. *)
    charge_factor w ~s
  in
  let stats =
    (* Analytic charges: pure function of the (uniform) size and the
       layout's cohort width. *)
    Sampling.run ~cfg ~pool ?obs ~name:"cublas.getrf"
      ~cache:(fun i -> Batch.cohort_salt b i) ~prec ~mode ~sizes:b.Batch.sizes
      ~kernel ()
  in
  { factors; pivots; info; stats }

let charge_solve w ~s =
  (* Pass 1: apply the pivot sequence to the right-hand side in global
     memory (the LAPACK-style row-interchange loop). *)
  Charge.gmem_coalesced w ~elems:s;
  for _k = 0 to s - 1 do
    Charge.fma w generic_overhead
  done;
  Charge.gmem_coalesced w ~elems:s;
  Charge.round w;
  (* Passes 2 and 3: triangular solves with the right-hand side kept in
     global memory — each step re-loads the column and re-writes the
     updated rhs elements. *)
  let pass () =
    for k = 0 to s - 1 do
      Charge.gmem_coalesced w ~elems:(s - k);
      Charge.gmem_coalesced w ~elems:(s - k);
      Charge.gmem_coalesced w ~elems:(s - k);
      charge_scaled w 1.0;
      Charge.shfl w 1.0
    done;
    Charge.round w
  in
  pass ();
  Charge.div w (float_of_int s);
  pass ();
  Charge.gmem_coalesced w ~elems:s;
  Warp.credit_flops w (Flops.trsv_pair s)

let solve ?(cfg = Config.p100) ?(pool = Vblu_par.Pool.sequential)
    ?(prec = Precision.Double) ?(mode = Sampling.Exact) ?obs (r : result)
    (rhs : Batch.vec) =
  let s = check_uniform rhs.Batch.vsizes "Cublas_model.solve" in
  if r.factors.Batch.count <> rhs.Batch.vcount then
    invalid_arg "Cublas_model.solve: batch count mismatch";
  let solutions = Batch.vec_create ~layout:rhs.Batch.vlayout rhs.Batch.vsizes in
  let solve_info = Array.make rhs.Batch.vcount 0 in
  let kernel w i =
    Staging.set_vec_cohort w rhs i;
    let lu = Batch.get_matrix r.factors i in
    let x, inf = Trsv.solve_status ~prec lu r.pivots.(i) (Batch.vec_get rhs i) in
    Batch.vec_set solutions i x;
    solve_info.(i) <- inf;
    charge_solve w ~s
  in
  let stats =
    Sampling.run ~cfg ~pool ?obs ~name:"cublas.getrs"
      ~cache:(fun i -> Batch.vec_cohort_salt rhs i) ~prec ~mode
      ~sizes:rhs.Batch.vsizes ~kernel ()
  in
  { solutions; solve_info; solve_stats = stats }
