open Vblu_smallblas
open Vblu_simt
open Vblu_fault

type variant = Eager | Lazy

type result = {
  solutions : Batch.vec;
  info : int array;
  verdicts : Fault.verdict array;
  stats : Launch.stats;
}

(* Rounded arithmetic inlined into this unit, bitwise equal to
   [Precision]'s: under [-opaque] a call into another unit boxes every
   float it passes or returns.  The lazy kernel, the one with host-side
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

(* Arena slot map: reg 0 = b (solution in progress), 1 = P·b snapshot for
   ABFT, 2 = column/row load, 3 = diagonal broadcast, 4 = solution-element
   broadcast, 5-9 = ABFT temporaries, 10 = lazy dot products.  Mask 0 =
   lane<s, 1 = step-local, 2 = ABFT-local.  Addr 0 = generic addresses. *)
let t_b = 0
let t_b0 = 1
let t_col = 2
let t_d = 3
let t_bk = 4
let t_ux = 5
let t_uabs = 6
let t_r = 7
let t_rabs = 8
let t_xj = 9
let t_prod = 10

let fill_lt w m s =
  let p = Warp.size w in
  for lane = 0 to p - 1 do
    m.(lane) <- lane < s
  done

(* ABFT for the triangular solves: with [x] solved, re-evaluate
   r = L·(U·x) from fresh column loads (the factors offer no reuse here,
   so detection honestly re-reads them — roughly doubling the kernel's
   traffic) and compare lanewise against the permuted right-hand side
   captured at load time, before any fault can arm. *)
let abft_check w gmat ~moff ~mst ~s ~b0 x =
  let p = Warp.size w in
  let prec = Warp.prec w in
  let ux = Warp.reg w t_ux
  and uabs = Warp.reg w t_uabs
  and col = Warp.reg w t_col
  and xj = Warp.reg w t_xj
  and r = Warp.reg w t_r
  and rabs = Warp.reg w t_rabs in
  let act = Warp.mask_slot w 2 in
  let addrs = Warp.addr_slot w 0 in
  Array.fill ux 0 p 0.0;
  Array.fill uabs 0 p 0.0;
  for j = 0 to s - 1 do
    for lane = 0 to p - 1 do
      act.(lane) <- lane <= j && lane < s;
      addrs.(lane) <- moff + (mst * (min lane (s - 1) + (j * s)))
    done;
    Warp.load_into w gmat ~active:act addrs ~dst:col;
    Warp.broadcast_into w ~dst:xj x ~src:j;
    Warp.fma_into w ~active:act ~dst:ux col xj ux;
    for lane = 0 to min j (s - 1) do
      uabs.(lane) <- uabs.(lane) +. Float.abs (col.(lane) *. xj.(lane))
    done
  done;
  Array.blit ux 0 r 0 p;
  Array.blit uabs 0 rabs 0 p;
  for j = 0 to s - 2 do
    for lane = 0 to p - 1 do
      act.(lane) <- lane > j && lane < s;
      addrs.(lane) <- moff + (mst * ((if lane < s then lane else 0) + (j * s)))
    done;
    Warp.load_into w gmat ~active:act addrs ~dst:col;
    Warp.broadcast_into w ~dst:xj ux ~src:j;
    Warp.fma_into w ~active:act ~dst:r col xj r;
    for lane = j + 1 to s - 1 do
      rabs.(lane) <- rabs.(lane) +. Float.abs (col.(lane) *. xj.(lane))
    done
  done;
  (* The |·|-tracking and the final compare, charged as one fused pass. *)
  Charge.fma w (float_of_int (2 * s));
  let eps = Precision.eps prec in
  let ok = ref true in
  for lane = 0 to s - 1 do
    let rv = r.(lane) and bv = b0.(lane) in
    let tol =
      1024.0 *. float_of_int s *. eps
      *. (rabs.(lane) +. Float.abs bv +. Float.abs rv)
    in
    if (not (Float.is_finite rv)) || Float.abs (rv -. bv) > tol then ok := false
  done;
  if !ok then Fault.Passed else Fault.Failed

(* Eager (AXPY) schedule: per step one coalesced column load, one shuffle
   broadcast of the freshly final solution element, one predicated FNMA. *)
let kernel_eager w gmat gvec gout ~moff ~mst ~voff ~vst ~s ~perm ~abft =
  let p = Warp.size w in
  let active = Warp.mask_slot w 0 in
  fill_lt w active s;
  let addrs = Warp.addr_slot w 0 in
  let b = Warp.reg w t_b
  and col = Warp.reg w t_col
  and d = Warp.reg w t_d
  and bk = Warp.reg w t_bk in
  let step = Warp.mask_slot w 1 in
  (* Fused permutation on load: lane k reads b(perm(k)). *)
  for lane = 0 to p - 1 do
    addrs.(lane) <- (voff + if lane < s then vst * perm.(lane) else 0)
  done;
  Warp.load_into w gvec ~active addrs ~dst:b;
  Warp.round_barrier w;
  (* Snapshot of P·b for the ABFT compare — taken before any fault site
     can arm (sites arm at [Warp.fault_step]). *)
  let b0 = Warp.reg w t_b0 in
  if abft then Array.blit b 0 b0 0 p;
  (* Unit lower triangular solve. *)
  for k = 0 to s - 2 do
    Warp.fault_step w k;
    for lane = 0 to p - 1 do
      step.(lane) <- lane > k && lane < s;
      addrs.(lane) <- moff + (mst * ((if lane < s then lane else 0) + (k * s)))
    done;
    Warp.load_into w gmat ~active:step addrs ~dst:col;
    Warp.broadcast_into w ~dst:bk b ~src:k;
    Warp.fnma_into w ~active:step ~dst:b col bk b
  done;
  (* Upper triangular solve.  A zero diagonal freezes the sweep: info is
     set, the remaining steps are predicated off, and the partial solution
     (steps s-1..k+1 applied) is stored back — the warp always completes. *)
  let info = ref 0 in
  (try
     for k = s - 1 downto 0 do
       Warp.fault_step w k;
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
       for lane = 0 to p - 1 do
         step.(lane) <- lane = k
       done;
       Warp.div_into w ~active:step ~dst:b b d;
       Warp.broadcast_into w ~dst:bk b ~src:k;
       for lane = 0 to p - 1 do
         step.(lane) <- lane < k
       done;
       Warp.fnma_into w ~active:step ~dst:b col bk b
     done
   with Exit -> ());
  let verdict =
    if abft && !info = 0 then abft_check w gmat ~moff ~mst ~s ~b0 b
    else Fault.Unchecked
  in
  for lane = 0 to p - 1 do
    addrs.(lane) <- voff + (vst * min lane (s - 1))
  done;
  Warp.store w gout ~active addrs b;
  Warp.credit_flops w (Flops.trsv_pair s);
  (!info, verdict)

(* Row k of the factor, elements [0..upto_excl), lanewise product with
   [b] then a tree reduction (log2 p shuffle+add rounds, charged like
   argmax). *)
let[@inline] dot_row prec w gmat ~act ~addrs ~row ~prod ~b ~moff ~mst ~s
    ~upto_excl k =
  for lane = 0 to Warp.size w - 1 do
    act.(lane) <- lane < upto_excl;
    addrs.(lane) <- moff + (mst * (k + (min lane (s - 1) * s)))
  done;
  Warp.load_into w gmat ~active:act addrs ~dst:row;
  Warp.mul_into w ~active:act ~dst:prod row b;
  let rounds = 5 in
  Warp.charge_shfl w (float_of_int rounds);
  Warp.charge_fma w (float_of_int rounds);
  let acc = ref 0.0 in
  for lane = 0 to upto_excl - 1 do
    acc := R.add prec prod.(lane) !acc
  done;
  !acc

(* Lazy (DOT) schedule: per step one non-coalesced row load and a warp
   reduction; the ablation showing why the paper prefers the eager form. *)
let[@inline] kernel_lazy_k prec w gmat gvec gout ~moff ~mst ~voff ~vst ~s ~perm
    ~abft =
  let p = Warp.size w in
  let active = Warp.mask_slot w 0 in
  fill_lt w active s;
  let addrs = Warp.addr_slot w 0 in
  let b = Warp.reg w t_b
  and row = Warp.reg w t_col
  and prod = Warp.reg w t_prod in
  let act = Warp.mask_slot w 1 in
  for lane = 0 to p - 1 do
    addrs.(lane) <- (voff + if lane < s then vst * perm.(lane) else 0)
  done;
  Warp.load_into w gvec ~active addrs ~dst:b;
  Warp.round_barrier w;
  let b0 = Warp.reg w t_b0 in
  if abft then Array.blit b 0 b0 0 p;
  (* Unit lower solve, lazy: b(k) -= L(k, 0..k-1) · b(0..k-1). *)
  for k = 1 to s - 1 do
    Warp.fault_step w k;
    let d =
      dot_row prec w gmat ~act ~addrs ~row ~prod ~b ~moff ~mst ~s ~upto_excl:k
        k
    in
    b.(k) <- R.sub prec b.(k) d;
    (* One predicated subtract on the owning lane. *)
    Warp.charge_fma w 1.0
  done;
  (* Upper solve, lazy.  Same freeze-on-breakdown rule as the eager
     schedule: a zero diagonal sets info and predicates off the rest. *)
  let info = ref 0 in
  (try
     for k = s - 1 downto 0 do
       Warp.fault_step w k;
       (* The diagonal element arrives with the row load of step k via
          lane k — the load mask includes lane k so the access is charged
          like every other row element. *)
       for lane = 0 to p - 1 do
         act.(lane) <- lane >= k && lane < s;
         addrs.(lane) <- moff + (mst * (k + (min lane (s - 1) * s)))
       done;
       Warp.load_into w gmat ~active:act addrs ~dst:row;
       for lane = 0 to p - 1 do
         act.(lane) <- lane > k && lane < s
       done;
       Warp.mul_into w ~active:act ~dst:prod row b;
       Warp.charge_shfl w 5.0;
       Warp.charge_fma w 5.0;
       let acc = ref 0.0 in
       for lane = k + 1 to s - 1 do
         acc := R.add prec prod.(lane) !acc
       done;
       let diag = row.(k) in
       if diag = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       b.(k) <- R.div prec (R.sub prec b.(k) !acc) diag;
       Warp.charge_div w 1.0
     done
   with Exit -> ());
  let verdict =
    if abft && !info = 0 then abft_check w gmat ~moff ~mst ~s ~b0 b
    else Fault.Unchecked
  in
  for lane = 0 to p - 1 do
    addrs.(lane) <- voff + (vst * min lane (s - 1))
  done;
  Warp.store w gout ~active addrs b;
  Warp.credit_flops w (Flops.trsv_pair s);
  (!info, verdict)

let kernel_lazy w gmat gvec gout ~moff ~mst ~voff ~vst ~s ~perm ~abft =
  match Warp.prec w with
  | Precision.Double ->
    (kernel_lazy_k [@inlined]) Precision.Double w gmat gvec gout ~moff ~mst
      ~voff ~vst ~s ~perm ~abft
  | Single ->
    (kernel_lazy_k [@inlined]) Precision.Single w gmat gvec gout ~moff ~mst
      ~voff ~vst ~s ~perm ~abft

let solve ?(cfg = Config.p100) ?(pool = Vblu_par.Pool.sequential)
    ?(prec = Precision.Double) ?(mode = Sampling.Exact) ?(variant = Eager)
    ?faults ?(abft = false) ?obs ~(factors : Batch.t) ~pivots (rhs : Batch.vec) =
  if factors.Batch.count <> rhs.Batch.vcount then
    invalid_arg "Batched_trsv.solve: batch count mismatch";
  (* Same layout on both buffers: cohort grouping is a pure function of
     the sizes, so matching layouts guarantee matching cohort geometry —
     one warp cohort context serves factors and right-hand sides. *)
  if Batch.layout factors <> Batch.vec_layout rhs then
    invalid_arg "Batched_trsv.solve: factors/rhs layout mismatch";
  if Array.length pivots <> factors.Batch.count then
    invalid_arg
      (Printf.sprintf
         "Batched_trsv.solve: pivots array has %d entries for %d blocks"
         (Array.length pivots) factors.Batch.count);
  Array.iteri
    (fun i s ->
      if rhs.Batch.vsizes.(i) <> s then
        invalid_arg "Batched_trsv.solve: block size mismatch";
      if Array.length pivots.(i) <> 0 && Array.length pivots.(i) <> s then
        invalid_arg "Batched_trsv.solve: pivot length mismatch")
    factors.Batch.sizes;
  let gmat = Gmem.of_array prec factors.Batch.values in
  let gvec = Gmem.of_array prec rhs.Batch.vvalues in
  let gout = Gmem.create prec (Array.length rhs.Batch.vvalues) in
  let info = Array.make factors.Batch.count 0 in
  let verdicts = Array.make factors.Batch.count Fault.Unchecked in
  let kernel w i =
    Staging.set_cohort w factors i;
    let s = factors.Batch.sizes.(i) in
    let perm =
      if Array.length pivots.(i) = 0 then Array.init s (fun k -> k)
      else pivots.(i)
    in
    let moff = Batch.base factors i
    and mst = Batch.stride factors i
    and voff = Batch.vec_base rhs i
    and vst = Batch.vec_stride rhs i in
    let inf, verdict =
      match variant with
      | Eager ->
        kernel_eager w gmat gvec gout ~moff ~mst ~voff ~vst ~s ~perm ~abft
      | Lazy ->
        kernel_lazy w gmat gvec gout ~moff ~mst ~voff ~vst ~s ~perm ~abft
    in
    info.(i) <- inf;
    verdicts.(i) <- verdict
  in
  let name =
    match variant with Eager -> "trsv.eager" | Lazy -> "trsv.lazy"
  in
  (* Both schedules are data-independent up to breakdown (the permuted
     rhs-load address set is permutation-invariant), so both cache; the
     salt carries the ABFT flag and the alignment classes of the factor
     and vector buffers. *)
  let cache =
    let align = Config.elements_per_transaction cfg prec in
    Some
      (fun i ->
        Staging.mix
          (Staging.mix (Bool.to_int abft) (Batch.salt_class factors i ~align))
          (Batch.vec_salt_class rhs i ~align))
  in
  (* Direct execution: permuted rhs copy into the output segment, then the
     matching batch-view solve pair in place — bitwise the kernel's
     schedule.  ABFT verdicts live in the interpreter, so ABFT launches
     keep the simulated path. *)
  let direct =
    if abft then None
    else begin
      let vmat = Gmem.raw gmat
      and vvec = Gmem.raw gvec
      and vout = Gmem.raw gout in
      Some
        (fun i ->
          let s = factors.Batch.sizes.(i) in
          let moff = Batch.base factors i
          and mst = Batch.stride factors i
          and voff = Batch.vec_base rhs i
          and vst = Batch.vec_stride rhs i in
          let piv = pivots.(i) in
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
          let inf =
            match variant with
            | Eager ->
              Trsv.pair_eager_view ~prec ~mstride:mst ~bstride:vst ~m:vmat
                ~moff ~n:s ~b:vout ~boff:voff ()
            | Lazy ->
              Trsv.pair_lazy_view ~prec ~mstride:mst ~bstride:vst ~m:vmat
                ~moff ~n:s ~b:vout ~boff:voff ()
          in
          info.(i) <- inf;
          verdicts.(i) <- Fault.Unchecked;
          inf)
    end
  in
  let stats =
    Sampling.run ~cfg ~pool ?faults ?obs ~name ?cache ?direct ~prec ~mode
      ~sizes:factors.Batch.sizes ~kernel ()
  in
  Vblu_obs.Ctx.record_verdicts obs verdicts;
  let solutions = Batch.vec_with_values rhs (Gmem.raw gout) in
  { solutions; info; verdicts; stats }
