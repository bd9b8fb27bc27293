open Vblu_smallblas
open Vblu_simt

type result = {
  solutions : Batch.vec array;
  info : int array;
  stats : Launch.stats;
}

(* Arena slot map: regs 0..nrhs-1 hold the right-hand sides (falling back
   to fresh buffers for the unlikely nrhs > 64), 64 = column load, 65 =
   diagonal broadcast, 66 = solution-element broadcast. *)
let rhs_arena_slots = 64
let t_col = 64
let t_d = 65
let t_bk = 66

let kernel w gmat gvecs gouts ~moff ~mst ~voff ~vst ~s ~perm =
  let p = Warp.size w in
  let nrhs = Array.length gvecs in
  let active = Warp.mask_slot w 0 in
  for lane = 0 to p - 1 do
    active.(lane) <- lane < s
  done;
  let addrs = Warp.addr_slot w 0 in
  let step = Warp.mask_slot w 1 in
  let b =
    if nrhs <= rhs_arena_slots then Array.init nrhs (Warp.reg w)
    else Array.init nrhs (fun _ -> Array.make p 0.0)
  in
  let col = Warp.reg w t_col
  and d = Warp.reg w t_d
  and bk = Warp.reg w t_bk in
  (* Load every right-hand side with the fused permutation. *)
  for lane = 0 to p - 1 do
    addrs.(lane) <- (voff + if lane < s then vst * perm.(lane) else 0)
  done;
  Array.iteri (fun r g -> Warp.load_into w g ~active addrs ~dst:b.(r)) gvecs;
  Warp.round_barrier w;
  (* Unit lower solve: one column load serves all right-hand sides. *)
  for k = 0 to s - 2 do
    for lane = 0 to p - 1 do
      step.(lane) <- lane > k && lane < s;
      addrs.(lane) <- moff + (mst * ((if lane < s then lane else 0) + (k * s)))
    done;
    Warp.load_into w gmat ~active:step addrs ~dst:col;
    for r = 0 to nrhs - 1 do
      Warp.broadcast_into w ~dst:bk b.(r) ~src:k;
      Warp.fnma_into w ~active:step ~dst:b.(r) col bk b.(r)
    done
  done;
  (* Upper solve.  Same freeze-on-breakdown rule as {!Batched_trsv}: a
     zero diagonal sets info, predicates off the remaining steps for every
     right-hand side, and the partial solutions are stored back. *)
  let info = ref 0 in
  (try
     for k = s - 1 downto 0 do
       for lane = 0 to p - 1 do
         step.(lane) <- lane <= k;
         addrs.(lane) <- moff + (mst * (min lane (s - 1) + (k * s)))
       done;
       Warp.load_into w gmat ~active:step addrs ~dst:col;
       Warp.broadcast_into w ~dst:d col ~src:k;
       if d.(0) = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       let only_k = Warp.mask_slot w 1 in
       let above = Warp.mask_slot w 2 in
       for lane = 0 to p - 1 do
         only_k.(lane) <- lane = k;
         above.(lane) <- lane < k
       done;
       for r = 0 to nrhs - 1 do
         Warp.div_into w ~active:only_k ~dst:b.(r) b.(r) d;
         Warp.broadcast_into w ~dst:bk b.(r) ~src:k;
         Warp.fnma_into w ~active:above ~dst:b.(r) col bk b.(r)
       done
     done
   with Exit -> ());
  for lane = 0 to p - 1 do
    addrs.(lane) <- voff + (vst * min lane (s - 1))
  done;
  Array.iteri (fun r g -> Warp.store w g ~active addrs b.(r)) gouts;
  Warp.credit_flops w (float_of_int nrhs *. Flops.trsv_pair s);
  !info

let name = "trsm"

(* The charge stream scales with the rhs count, and coalescing charges
   with the buffer alignments, so both go into the cache salt (all rhs
   sets share one offset table). *)
let salt ~cfg ~prec ~nrhs (factors : Batch.t) (rhs : Batch.vec) =
  let align = Config.elements_per_transaction cfg prec in
  fun i ->
    Staging.mix
      (Staging.mix nrhs (Batch.salt_class factors i ~align))
      (Batch.vec_salt_class rhs i ~align)

let charge ?(cfg = Config.p100) ?obs ~prec ~layout ~nrhs sizes =
  Sampling.charge ~cfg ?obs ~name ~prec ~sizes
    ~salt:
      (salt ~cfg ~prec ~nrhs (Batch.shape ~layout sizes)
         (Batch.vec_shape ~layout sizes))
    ()

let solve ?(cfg = Config.p100) ?(pool = Vblu_par.Pool.sequential)
    ?(prec = Precision.Double) ?obs ~(factors : Batch.t)
    ~pivots (rhs_sets : Batch.vec array) =
  if Array.length rhs_sets = 0 then
    invalid_arg "Batched_trsm.solve: no right-hand sides";
  if Array.length pivots <> factors.Batch.count then
    invalid_arg
      (Printf.sprintf
         "Batched_trsm.solve: pivots array has %d entries for %d blocks"
         (Array.length pivots) factors.Batch.count);
  Array.iter
    (fun (rhs : Batch.vec) ->
      if rhs.Batch.vcount <> factors.Batch.count then
        invalid_arg "Batched_trsm.solve: batch count mismatch";
      if rhs.Batch.vlayout <> Batch.layout factors then
        invalid_arg "Batched_trsm.solve: factors/rhs layout mismatch";
      Array.iteri
        (fun i s ->
          if rhs.Batch.vsizes.(i) <> s then
            invalid_arg "Batched_trsm.solve: block size mismatch")
        factors.Batch.sizes)
    rhs_sets;
  let gmat = Gmem.of_array prec factors.Batch.values in
  let gvecs =
    Array.map (fun (r : Batch.vec) -> Gmem.of_array prec r.Batch.vvalues) rhs_sets
  in
  let gouts =
    Array.map
      (fun (r : Batch.vec) -> Gmem.create prec (Array.length r.Batch.vvalues))
      rhs_sets
  in
  let info = Array.make factors.Batch.count 0 in
  let kernel w i =
    Staging.set_cohort w factors i;
    let s = factors.Batch.sizes.(i) in
    let perm =
      if Array.length pivots.(i) = 0 then Array.init s (fun k -> k)
      else pivots.(i)
    in
    info.(i) <-
      kernel w gmat gvecs gouts ~moff:(Batch.base factors i)
        ~mst:(Batch.stride factors i)
        ~voff:(Batch.vec_base rhs_sets.(0) i)
        ~vst:(Batch.vec_stride rhs_sets.(0) i) ~s ~perm
  in
  let cache =
    Some (salt ~cfg ~prec ~nrhs:(Array.length rhs_sets) factors rhs_sets.(0))
  in
  (* Direct execution: the kernel's interleaved multi-rhs schedule carries
     no data flow between right-hand sides, so solving each one through
     the eager batch-view pair reproduces it bitwise, rhs by rhs. *)
  let direct =
    let vmat = Gmem.raw gmat in
    let vvecs = Array.map Gmem.raw gvecs
    and vouts = Array.map Gmem.raw gouts in
    Some
      (fun i ->
        let s = factors.Batch.sizes.(i) in
        let moff = Batch.base factors i
        and mst = Batch.stride factors i
        and voff = Batch.vec_base rhs_sets.(0) i
        and vst = Batch.vec_stride rhs_sets.(0) i in
        let piv = pivots.(i) in
        let inf = ref 0 in
        for r = 0 to Array.length vvecs - 1 do
          let vvec = vvecs.(r) and vout = vouts.(r) in
          if Array.length piv = 0 && vst = 1 then
            Array.blit vvec voff vout voff s
          else if Array.length piv = 0 then
            for k = 0 to s - 1 do
              vout.(voff + (vst * k)) <- vvec.(voff + (vst * k))
            done
          else
            for k = 0 to s - 1 do
              vout.(voff + (vst * k)) <- vvec.(voff + (vst * piv.(k)))
            done;
          inf :=
            Trsv.pair_eager_view ~prec ~mstride:mst ~bstride:vst ~m:vmat ~moff
              ~n:s ~b:vout ~boff:voff ()
        done;
        info.(i) <- !inf;
        !inf)
  in
  let stats =
    Sampling.run ~cfg ~pool ?obs ~name ?cache ?direct ~prec ~mode:Sampling.Exact
      ~sizes:factors.Batch.sizes ~kernel ()
  in
  let solutions =
    Array.mapi (fun r g -> Batch.vec_with_values rhs_sets.(r) (Gmem.raw g)) gouts
  in
  { solutions; info; stats }
