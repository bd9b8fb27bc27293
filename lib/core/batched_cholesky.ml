open Vblu_smallblas
open Vblu_simt

type result = {
  factors : Batch.t;
  info : int array;
  stats : Launch.stats;
}

(* Rounded arithmetic inlined into this unit, bitwise equal to
   [Precision]'s: under [-opaque] a call into another unit boxes every
   float it passes or returns.  The solve kernel, the one with host-side
   reductions, is an [@inline] body instantiated once per precision, so in
   Double [round] folds away (DESIGN §5i). *)
module R = struct
  let[@inline] round p x =
    match p with
    | Precision.Double -> x
    | Single -> Int32.float_of_bits (Int32.bits_of_float x)

  let[@inline] add p a b = round p (a +. b)
  let[@inline] sub p a b = round p (a -. b)
  let[@inline] div p a b = round p (a /. b)
end

(* Factor arena slots: 0..p-1 hold the matrix columns, 64 the pivot
   broadcast, 65 the trailing-update multiplier. *)
let t_d = 64
let t_ljk = 65

let kernel_factor w gin gout ~off ~st ~s =
  let p = Warp.size w in
  let step = Warp.mask_slot w 0 in
  let addrs = Warp.addr_slot w 0 in
  (* Load only the lower triangle: column j needs lanes j..s-1.  Padding
     columns are zeroed explicitly — the arena is recycled across
     problems. *)
  for j = 0 to s - 1 do
    for lane = 0 to p - 1 do
      step.(lane) <- lane >= j && lane < s;
      addrs.(lane) <- off + (if lane < s then st * (lane + (j * s)) else 0)
    done;
    Warp.load_into w gin ~active:step addrs ~dst:(Warp.reg w j)
  done;
  for j = s to p - 1 do
    Array.fill (Warp.reg w j) 0 p 0.0
  done;
  Warp.round_barrier w;
  (* Freeze on breakdown: a non-positive pivot at step k sets info = k+1,
     predicates the remaining steps off, and the partial factor is written
     back — matching Cholesky.factor_status bit-for-bit. *)
  let info = ref 0 in
  let d = Warp.reg w t_d
  and ljk = Warp.reg w t_ljk in
  let only_k = Warp.mask_slot w 1
  and below = Warp.mask_slot w 2
  and trailing = Warp.mask_slot w 3 in
  (try
     for k = 0 to s - 1 do
       let colk = Warp.reg w k in
       let dkk = colk.(k) in
       if not (dkk > 0.0) then begin
         info := k + 1;
         raise Exit
       end;
       (* Lanewise sqrt on the pivot lane, then broadcast, then scale the
          column below the diagonal. *)
       for lane = 0 to p - 1 do
         only_k.(lane) <- lane = k;
         below.(lane) <- lane > k
       done;
       Warp.sqrt_into w ~active:only_k ~dst:colk colk;
       Warp.broadcast_into w ~dst:d colk ~src:k;
       Warp.div_into w ~active:below ~dst:colk colk d;
       (* Trailing update of the lower triangle, padded width like LU. *)
       for j = k + 1 to p - 1 do
         Warp.broadcast_into w ~dst:ljk colk ~src:(min j (p - 1));
         for lane = 0 to p - 1 do
           trailing.(lane) <- lane >= j
         done;
         let colj = Warp.reg w j in
         Warp.fnma_into w ~active:trailing ~dst:colj colk ljk colj
       done
     done
   with Exit -> ());
  (* Write back the lower triangle (coalesced per column). *)
  for j = 0 to s - 1 do
    for lane = 0 to p - 1 do
      step.(lane) <- lane >= j && lane < s;
      addrs.(lane) <- off + (if lane < s then st * (lane + (j * s)) else 0)
    done;
    Warp.store w gout ~active:step addrs (Warp.reg w j)
  done;
  Warp.credit_flops w (Cholesky.flops s);
  !info

let factor ?(cfg = Config.p100) ?(pool = Vblu_par.Pool.sequential)
    ?(prec = Precision.Double) ?(mode = Sampling.Exact) ?obs (b : Batch.t) =
  Array.iter
    (fun s ->
      if s > cfg.Config.warp_size then
        invalid_arg "Batched_cholesky.factor: block exceeds warp width")
    b.Batch.sizes;
  let gin = Gmem.of_array prec b.Batch.values in
  let gout = Gmem.create prec (Batch.total_values b) in
  let info = Array.make b.Batch.count 0 in
  let kernel w i =
    Staging.set_cohort w b i;
    info.(i) <-
      kernel_factor w gin gout ~off:(Batch.base b i) ~st:(Batch.stride b i)
        ~s:b.Batch.sizes.(i)
  in
  (* Input and output factors share one offset table; a breakdown
     early-exit diverges the op-event signature and falls back to a
     charging rerun, so value-dependent freezes stay exact. *)
  let cache =
    let align = Config.elements_per_transaction cfg prec in
    Some (fun i -> Batch.salt_class b i ~align)
  in
  (* Direct execution: the lower-triangle batch-view factorization repeats
     the kernel's op order (check, sqrt, scale, unconditional trailing
     FNMA) bitwise, freeze included. *)
  let direct =
    let vin = Gmem.raw gin and vout = Gmem.raw gout in
    Some
      (fun i ->
        let inf =
          Cholesky.factor_view ~prec ~stride:(Batch.stride b i) ~src:vin
            ~dst:vout ~off:(Batch.base b i) ~n:b.Batch.sizes.(i) ()
        in
        info.(i) <- inf;
        inf)
  in
  let stats =
    Sampling.run ~cfg ~pool ?obs ~name:"potrf" ?cache ?direct ~prec ~mode
      ~sizes:b.Batch.sizes ~kernel ()
  in
  { factors = Batch.with_values b (Gmem.raw gout); info; stats }

(* Solve arena slots. *)
let t_b = 0
let t_col = 1
let t_dv = 2
let t_bk = 3
let t_prods = 4

let[@inline] kernel_solve_k prec w gmat gvec gout ~moff ~mst ~voff ~vst ~s =
  let p = Warp.size w in
  let active = Warp.mask_slot w 0 in
  let from_k = Warp.mask_slot w 1 in
  let only_k = Warp.mask_slot w 2 in
  let below = Warp.mask_slot w 3 in
  let addrs = Warp.addr_slot w 0 in
  let b = Warp.reg w t_b
  and col = Warp.reg w t_col
  and d = Warp.reg w t_dv
  and bk = Warp.reg w t_bk
  and prods = Warp.reg w t_prods in
  for lane = 0 to p - 1 do
    active.(lane) <- lane < s;
    addrs.(lane) <- voff + (vst * min lane (s - 1))
  done;
  Warp.load_into w gvec ~active addrs ~dst:b;
  Warp.round_barrier w;
  let info = ref 0 in
  (try
     (* Forward sweep with L (non-unit diagonal): column reads, coalesced.
        A zero diagonal (factors of a flagged, non-SPD block) freezes the
        solve: info = k+1, everything after — including the backward sweep
        — is predicated off, and the partial vector is stored. *)
     for k = 0 to s - 1 do
       for lane = 0 to p - 1 do
         from_k.(lane) <- lane >= k && lane < s;
         addrs.(lane) <- moff + (mst * (min lane (s - 1) + (k * s)))
       done;
       Warp.load_into w gmat ~active:from_k addrs ~dst:col;
       Warp.broadcast_into w ~dst:d col ~src:k;
       if d.(0) = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       for lane = 0 to p - 1 do
         only_k.(lane) <- lane = k;
         below.(lane) <- lane > k && lane < s
       done;
       Warp.div_into w ~active:only_k ~dst:b b d;
       Warp.broadcast_into w ~dst:bk b ~src:k;
       Warp.fnma_into w ~active:below ~dst:b col bk b
     done;
     (* Backward sweep with Lᵀ: lane i accumulates -L(k,i)·x(k) for k > i;
        we re-read column k of L (its elements L(k..s-1, k) are the row k
        of Lᵀ used lanewise) — still one coalesced column load per step. *)
     for k = s - 1 downto 0 do
       for lane = 0 to p - 1 do
         from_k.(lane) <- lane >= k && lane < s;
         addrs.(lane) <- moff + (mst * (min lane (s - 1) + (k * s)))
       done;
       Warp.load_into w gmat ~active:from_k addrs ~dst:col;
       Warp.broadcast_into w ~dst:d col ~src:k;
       (* x(k) = (b(k) - Σ_{i>k} L(i,k)·x(i)) / L(k,k): the partial
          products live one per lane; reduce them into lane k. *)
       for lane = 0 to p - 1 do
         below.(lane) <- lane > k && lane < s
       done;
       Warp.mul_into w ~active:below ~dst:prods col b;
       Warp.charge_shfl w 5.0;
       Warp.charge_fma w 5.0;
       let acc = ref 0.0 in
       for lane = k + 1 to s - 1 do
         acc := R.add prec prods.(lane) !acc
       done;
       b.(k) <- R.div prec (R.sub prec b.(k) !acc) d.(k);
       Warp.charge_div w 1.0
     done
   with Exit -> ());
  for lane = 0 to p - 1 do
    addrs.(lane) <- voff + (vst * min lane (s - 1))
  done;
  Warp.store w gout ~active addrs b;
  Warp.credit_flops w (Flops.trsv_pair s);
  !info

let kernel_solve w gmat gvec gout ~moff ~mst ~voff ~vst ~s =
  match Warp.prec w with
  | Precision.Double ->
    (kernel_solve_k [@inlined]) Precision.Double w gmat gvec gout ~moff ~mst
      ~voff ~vst ~s
  | Single ->
    (kernel_solve_k [@inlined]) Precision.Single w gmat gvec gout ~moff ~mst
      ~voff ~vst ~s

let solve ?(cfg = Config.p100) ?(pool = Vblu_par.Pool.sequential)
    ?(prec = Precision.Double) ?(mode = Sampling.Exact) ?obs
    ~(factors : Batch.t) (rhs : Batch.vec) =
  if factors.Batch.count <> rhs.Batch.vcount then
    invalid_arg "Batched_cholesky.solve: batch count mismatch";
  if Batch.layout factors <> Batch.vec_layout rhs then
    invalid_arg "Batched_cholesky.solve: factors/rhs layout mismatch";
  let gmat = Gmem.of_array prec factors.Batch.values in
  let gvec = Gmem.of_array prec rhs.Batch.vvalues in
  let gout = Gmem.create prec (Array.length rhs.Batch.vvalues) in
  let info = Array.make factors.Batch.count 0 in
  let kernel w i =
    Staging.set_cohort w factors i;
    info.(i) <-
      kernel_solve w gmat gvec gout ~moff:(Batch.base factors i)
        ~mst:(Batch.stride factors i) ~voff:(Batch.vec_base rhs i)
        ~vst:(Batch.vec_stride rhs i) ~s:factors.Batch.sizes.(i)
  in
  let cache =
    let align = Config.elements_per_transaction cfg prec in
    Some
      (fun i ->
        Staging.mix
          (Batch.salt_class factors i ~align)
          (Batch.vec_salt_class rhs i ~align))
  in
  (* Direct execution: rhs copy into the output segment, then the in-place
     forward/backward batch-view solve. *)
  let direct =
    let vmat = Gmem.raw gmat
    and vvec = Gmem.raw gvec
    and vout = Gmem.raw gout in
    Some
      (fun i ->
        let s = factors.Batch.sizes.(i) in
        let voff = Batch.vec_base rhs i
        and vst = Batch.vec_stride rhs i in
        if vst = 1 then Array.blit vvec voff vout voff s
        else
          for k = 0 to s - 1 do
            vout.(voff + (vst * k)) <- vvec.(voff + (vst * k))
          done;
        let inf =
          Cholesky.solve_view ~prec ~mstride:(Batch.stride factors i)
            ~bstride:vst ~m:vmat ~moff:(Batch.base factors i) ~n:s ~b:vout
            ~boff:voff ()
        in
        info.(i) <- inf;
        inf)
  in
  let stats =
    Sampling.run ~cfg ~pool ?obs ~name:"potrs" ?cache ?direct ~prec ~mode
      ~sizes:factors.Batch.sizes ~kernel ()
  in
  {
    Batched_trsv.solutions = Batch.vec_with_values rhs (Gmem.raw gout);
    info;
    (* Cholesky solves carry no ABFT instrumentation (yet). *)
    verdicts = Array.make factors.Batch.count Vblu_fault.Fault.Unchecked;
    stats;
  }
