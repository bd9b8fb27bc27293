open Vblu_smallblas
open Vblu_simt
open Vblu_fault

type pivoting = Implicit | Explicit | No_pivoting

type result = {
  factors : Batch.t;
  pivots : int array array;
  info : int array;
  verdicts : Fault.verdict array;
  stats : Launch.stats;
}

let check_batch cfg (b : Batch.t) =
  let w = cfg.Config.warp_size in
  Array.iter
    (fun s ->
      if s > w then
        invalid_arg
          (Printf.sprintf "Batched_lu: block size %d exceeds warp width %d" s w))
    b.Batch.sizes

(* Arena slot map (the kernels below own the whole warp arena per problem):
   regs 0..p-1 hold the padded tile columns; the slots from [t_bcast] up
   are broadcast/checksum temporaries.  Masks: 0 = lane<s, 1 and 2 are
   step-local.  Addrs: 0 = column addresses, 1 = pivot steps, 2 = store
   destinations. *)
let t_bcast = 32
let t_urow = 33
let t_chk = 34
let t_chkabs = 35
let t_abs = 36
let t_y = 37
let t_z = 38
let t_ybc = 39
let t_vals = 40
let t_vals2 = 41

let fill_lt w m s =
  let p = Warp.size w in
  for lane = 0 to p - 1 do
    m.(lane) <- lane < s
  done

(* Load the block at [off] of order [s] into the padded register tile:
   reg slot j holds column j, element (lane, j) in lane [lane]; one
   coalesced load per column.  [st] is the batch's element stride (1 for
   blocked, cohort width for interleaved — addresses walk same-element
   strips).  Padding columns are zero-filled — arena slots are reused
   across problems, so the fill replaces the fresh-array guarantee the
   allocating tile had. *)
let load_tile w gin ~off ~st ~s =
  let p = Warp.size w in
  let active = Warp.mask_slot w 0 in
  fill_lt w active s;
  let addrs = Warp.addr_slot w 0 in
  for j = 0 to s - 1 do
    for lane = 0 to p - 1 do
      addrs.(lane) <- off + (if lane < s then st * (lane + (j * s)) else 0)
    done;
    Warp.load_into w gin ~active addrs ~dst:(Warp.reg w j)
  done;
  for j = s to p - 1 do
    Array.fill (Warp.reg w j) 0 p 0.0
  done;
  Warp.round_barrier w

let store_tile w gout ~off ~st ~s ~dest =
  (* One store per column; [dest.(lane)] is the output row of lane's row —
     the identity for explicit pivoting, the accumulated permutation for
     implicit pivoting (the "combined row swap fused with the off-load"). *)
  let p = Warp.size w in
  let active = Warp.mask_slot w 0 in
  fill_lt w active s;
  let addrs = Warp.addr_slot w 0 in
  for j = 0 to s - 1 do
    for lane = 0 to p - 1 do
      addrs.(lane) <- off + (if lane < s then st * (dest.(lane) + (j * s)) else 0)
    done;
    Warp.store w gout ~active addrs (Warp.reg w j)
  done

(* ------------------------------------------------------------------ *)
(* ABFT row checksums (Huang-Abraham style, register-resident).

   Encode: before elimination each lane captures the row sum [t] of its
   row of A — and the absolute row sum [tabs] that scales the comparison
   tolerance.  Verify: at write-back the identity  A·e = Pᵀ·(L·(U·e))  is
   evaluated from the factors still in registers — y = U·e per packed row
   via masked column sums, then z = L·y via pivot-row broadcasts and FMAs
   — and compared lanewise against [t].  Both passes go through the
   normal warp ops, so the modelled ABFT overhead (the gap the
   [abft-overhead] perf table measures) is charged honestly. *)

let abft_tolerance prec ~s ~tabs ~t ~z =
  let eps = Precision.eps prec in
  1024.0 *. float_of_int s *. eps *. (tabs +. Float.abs t +. Float.abs z)

let abft_encode w ~s =
  let p = Warp.size w in
  let active = Warp.mask_slot w 0 in
  fill_lt w active s;
  let t = Warp.reg w t_chk
  and tabs = Warp.reg w t_chkabs
  and tmp = Warp.reg w t_abs in
  Array.blit (Warp.reg w 0) 0 t 0 p;
  for lane = 0 to p - 1 do
    tabs.(lane) <- Float.abs (Warp.reg w 0).(lane)
  done;
  for j = 1 to s - 1 do
    Warp.add_into w ~active ~dst:t t (Warp.reg w j);
    (* |·| is an operand modifier on GPU ALUs, so the abs-checksum pass
       costs the same single add per column. *)
    for lane = 0 to p - 1 do
      tmp.(lane) <- Float.abs (Warp.reg w j).(lane)
    done;
    Warp.add_into w ~active ~dst:tabs tabs tmp
  done

(* [srow.(lane)] is the packed (pivot-order) row index lane holds — the
   accumulated [step] for the implicit kernel, the lane itself for
   explicit/no pivoting.  [src_of_row m] is the lane holding packed row
   [m]; [tsrc lane] the lane whose encoded checksum lane's packed row
   must reproduce. *)
let abft_verify w ~s ~srow ~src_of_row ~tsrc =
  let p = Warp.size w in
  let prec = Warp.prec w in
  let t = Warp.reg w t_chk and tabs = Warp.reg w t_chkabs in
  let y = Warp.reg w t_y
  and z = Warp.reg w t_z
  and ybc = Warp.reg w t_ybc in
  let act = Warp.mask_slot w 2 in
  Array.fill y 0 p 0.0;
  for j = 0 to s - 1 do
    for lane = 0 to p - 1 do
      act.(lane) <- lane < s && srow.(lane) <= j
    done;
    Warp.add_into w ~active:act ~dst:y y (Warp.reg w j)
  done;
  Array.blit y 0 z 0 p;
  for m = 0 to s - 2 do
    Warp.broadcast_into w ~dst:ybc y ~src:(src_of_row m);
    for lane = 0 to p - 1 do
      act.(lane) <- lane < s && srow.(lane) > m
    done;
    Warp.fma_into w ~active:act ~dst:z (Warp.reg w m) ybc z
  done;
  (* One subtract + one predicated compare against the tolerance. *)
  Charge.fma w 2.0;
  let ok = ref true in
  for lane = 0 to s - 1 do
    let zv = z.(lane) in
    let tv = t.(tsrc lane) and ta = tabs.(tsrc lane) in
    let tol = abft_tolerance prec ~s ~tabs:ta ~t:tv ~z:zv in
    if (not (Float.is_finite zv)) || Float.abs (zv -. tv) > tol then
      ok := false
  done;
  if !ok then Fault.Passed else Fault.Failed

(* Shared verify for the kernels whose rows end up physically in pivot
   order (explicit and no pivoting): lane [k] holds packed row [k], and
   [perm.(k)] names the original row whose checksum it must reproduce. *)
let verify_in_place w ~s ~perm ~abft ~info =
  if abft && info = 0 then begin
    let p = Warp.size w in
    let srow = Warp.addr_slot w 3 in
    for lane = 0 to p - 1 do
      srow.(lane) <- (if lane < s then lane else p + lane)
    done;
    abft_verify w ~s ~srow
      ~src_of_row:(fun m -> m)
      ~tsrc:(fun lane -> perm.(lane))
  end
  else Fault.Unchecked

(* All three kernels follow the "freeze on breakdown" rule: the first zero
   pivot at (0-based) step [k] sets [info = k + 1], the elimination loop is
   predicated off and the partial tile is written back unchanged from that
   point on.  The warp itself always completes — no exception ever leaves a
   kernel — so a poisoned problem cannot take down its batch (or, under
   [?pool], its worker domain).  The [Vblu_smallblas.Lu] [_status]
   references freeze at exactly the same point, keeping kernel and
   reference bit-for-bit identical even on singular blocks. *)

let kernel_implicit w gin gout ~off ~st ~s ~abft =
  let p = Warp.size w in
  load_tile w gin ~off ~st ~s;
  (* Checksums are encoded after the load and before any fault can arm
     (sites arm at [Warp.fault_step]), so a corruption always lands on
     checksum-protected state. *)
  if abft then abft_encode w ~s;
  (* step.(lane) = pivot step of this lane's row; padded lanes start
     "already pivoted" so they never win the pivot search. *)
  let step = Warp.addr_slot w 1 in
  for lane = 0 to p - 1 do
    step.(lane) <- (if lane < s then -1 else p + lane)
  done;
  let mask = Warp.mask_slot w 1 in
  let fill_unpivoted () =
    for lane = 0 to p - 1 do
      mask.(lane) <- step.(lane) < 0
    done
  in
  let d = Warp.reg w t_bcast and urow = Warp.reg w t_urow in
  let info = ref 0 in
  (try
     for k = 0 to s - 1 do
       Warp.fault_step w k;
       fill_unpivoted ();
       let piv = Warp.argmax_abs w ~active:mask (Warp.reg w k) in
       Warp.broadcast_into w ~dst:d (Warp.reg w k) ~src:piv;
       if d.(0) = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       step.(piv) <- k;
       fill_unpivoted ();
       Warp.div_into w ~active:mask ~dst:(Warp.reg w k) (Warp.reg w k) d;
       (* Trailing update over the full padded width: the eager-variant
          padding overhead of Figure 5. *)
       for j = k + 1 to p - 1 do
         let col = Warp.reg w j in
         Warp.broadcast_into w ~dst:urow col ~src:piv;
         Warp.fnma_into w ~active:mask ~dst:col (Warp.reg w k) urow col
       done
     done
   with Exit -> ());
  (* On breakdown the still-unpivoted lanes take the remaining steps in
     increasing lane order, so the fused write-back permutation stays
     total (same rule as Lu.factor_implicit_status). *)
  if !info <> 0 then begin
    let next = ref (!info - 1) in
    for lane = 0 to s - 1 do
      if step.(lane) < 0 then begin
        step.(lane) <- !next;
        incr next
      end
    done
  end;
  let perm = Array.make s 0 in
  for lane = 0 to s - 1 do
    perm.(step.(lane)) <- lane
  done;
  let verdict =
    if abft && !info = 0 then
      abft_verify w ~s ~srow:step
        ~src_of_row:(fun m -> perm.(m))
        ~tsrc:(fun lane -> lane)
    else Fault.Unchecked
  in
  (* Fused permutation: lane's row goes to its pivot position. *)
  let dest = Warp.addr_slot w 2 in
  for lane = 0 to p - 1 do
    dest.(lane) <- (if lane < s then step.(lane) else 0)
  done;
  store_tile w gout ~off ~st ~s ~dest;
  (perm, !info, verdict)

let kernel_explicit w gin gout ~off ~st ~s ~abft =
  let p = Warp.size w in
  load_tile w gin ~off ~st ~s;
  if abft then abft_encode w ~s;
  let perm = Array.init s (fun i -> i) in
  let active = Warp.mask_slot w 1 in
  let d = Warp.reg w t_bcast and urow = Warp.reg w t_urow in
  let from_piv = Warp.reg w t_vals and from_k = Warp.reg w t_vals2 in
  let info = ref 0 in
  (try
     for k = 0 to s - 1 do
       Warp.fault_step w k;
       for lane = 0 to p - 1 do
         active.(lane) <- lane >= k && lane < s
       done;
       let piv = Warp.argmax_abs w ~active (Warp.reg w k) in
       if piv <> k then begin
         (* Physical row exchange: two lanes trade registers column by
            column through shuffles while the rest of the warp idles — the
            cost the implicit scheme removes. *)
         for j = 0 to p - 1 do
           let col = Warp.reg w j in
           Warp.broadcast_into w ~dst:from_piv col ~src:piv;
           Warp.broadcast_into w ~dst:from_k col ~src:k;
           col.(k) <- from_piv.(k);
           col.(piv) <- from_k.(piv)
         done;
         let tmp = perm.(k) in
         perm.(k) <- perm.(piv);
         perm.(piv) <- tmp
       end;
       Warp.broadcast_into w ~dst:d (Warp.reg w k) ~src:k;
       if d.(0) = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       let below = Warp.mask_slot w 1 in
       for lane = 0 to p - 1 do
         below.(lane) <- lane > k
       done;
       Warp.div_into w ~active:below ~dst:(Warp.reg w k) (Warp.reg w k) d;
       for j = k + 1 to p - 1 do
         let col = Warp.reg w j in
         Warp.broadcast_into w ~dst:urow col ~src:k;
         Warp.fnma_into w ~active:below ~dst:col (Warp.reg w k) urow col
       done
     done
   with Exit -> ());
  let verdict = verify_in_place w ~s ~perm ~abft ~info:!info in
  let dest = Warp.addr_slot w 2 in
  for lane = 0 to p - 1 do
    dest.(lane) <- (if lane < s then lane else 0)
  done;
  store_tile w gout ~off ~st ~s ~dest;
  (perm, !info, verdict)

let kernel_nopivot w gin gout ~off ~st ~s ~abft =
  let p = Warp.size w in
  load_tile w gin ~off ~st ~s;
  if abft then abft_encode w ~s;
  let d = Warp.reg w t_bcast and urow = Warp.reg w t_urow in
  let below = Warp.mask_slot w 1 in
  let info = ref 0 in
  (try
     for k = 0 to s - 1 do
       Warp.fault_step w k;
       Warp.broadcast_into w ~dst:d (Warp.reg w k) ~src:k;
       if d.(0) = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       for lane = 0 to p - 1 do
         below.(lane) <- lane > k
       done;
       Warp.div_into w ~active:below ~dst:(Warp.reg w k) (Warp.reg w k) d;
       for j = k + 1 to p - 1 do
         let col = Warp.reg w j in
         Warp.broadcast_into w ~dst:urow col ~src:k;
         Warp.fnma_into w ~active:below ~dst:col (Warp.reg w k) urow col
       done
     done
   with Exit -> ());
  let perm = Array.init s (fun i -> i) in
  let verdict = verify_in_place w ~s ~perm ~abft ~info:!info in
  let dest = Warp.addr_slot w 2 in
  for lane = 0 to p - 1 do
    dest.(lane) <- (if lane < s then lane else 0)
  done;
  store_tile w gout ~off ~st ~s ~dest;
  (perm, !info, verdict)

let name = function
  | Implicit -> "getrf.implicit"
  | Explicit -> "getrf.explicit"
  | No_pivoting -> "getrf.nopivot"

(* The salt of the cacheable (implicit and unpivoted) launches: the ABFT
   flag plus the layout-aware transaction-alignment class of both device
   buffers a problem addresses (tile and pivot vector). *)
let salt ~cfg ~prec ~abft (b : Batch.t) (pvec : Batch.vec) =
  let align = Config.elements_per_transaction cfg prec in
  fun i ->
    Staging.mix
      (Staging.mix (Bool.to_int abft) (Batch.salt_class b i ~align))
      (Batch.vec_salt_class pvec i ~align)

let charge ?(cfg = Config.p100) ?obs ~prec ~layout sizes =
  let r =
    Sampling.charge ~cfg ?obs ~name:(name Implicit) ~prec ~sizes
      ~salt:
        (salt ~cfg ~prec ~abft:false (Batch.shape ~layout sizes)
           (Batch.vec_shape ~layout sizes))
      ()
  in
  if r <> None && Vblu_obs.Ctx.enabled obs then
    Vblu_obs.Ctx.record_verdicts obs
      (Array.make (Array.length sizes) Fault.Unchecked);
  r

let factor ?(cfg = Config.p100) ?(pool = Vblu_par.Pool.sequential)
    ?(prec = Precision.Double) ?(mode = Sampling.Exact) ?(pivoting = Implicit)
    ?faults ?(abft = false) ?obs (b : Batch.t) =
  check_batch cfg b;
  let gin = Gmem.of_array prec b.Batch.values in
  let gout = Gmem.create prec (Batch.total_values b) in
  (* Pivot vectors live in their own device buffer, one entry per row,
     laid out like the batch (a vector batch over the same sizes shares
     the matrix batch's cohort geometry). *)
  let pvec = Batch.vec_shape ~layout:(Batch.layout b) b.Batch.sizes in
  let gpiv = Gmem.create prec pvec.Batch.voffsets.(pvec.Batch.vcount) in
  let pivots = Array.make b.Batch.count [||] in
  let info = Array.make b.Batch.count 0 in
  let verdicts = Array.make b.Batch.count Fault.Unchecked in
  let kernel w i =
    Staging.set_cohort w b i;
    let off = Batch.base b i
    and st = Batch.stride b i
    and s = b.Batch.sizes.(i) in
    let perm, inf, verdict =
      match pivoting with
      | Implicit -> kernel_implicit w gin gout ~off ~st ~s ~abft
      | Explicit -> kernel_explicit w gin gout ~off ~st ~s ~abft
      | No_pivoting -> kernel_nopivot w gin gout ~off ~st ~s ~abft
    in
    pivots.(i) <- perm;
    info.(i) <- inf;
    verdicts.(i) <- verdict;
    (* The pivot vector also goes to memory for the subsequent solves. *)
    let p = Warp.size w in
    let active = Warp.mask_slot w 0 in
    fill_lt w active s;
    let addrs = Warp.addr_slot w 0 and vals = Warp.reg w t_vals in
    for lane = 0 to p - 1 do
      addrs.(lane) <- Batch.vec_index pvec i (min (s - 1) lane);
      vals.(lane) <- (if lane < s then float_of_int perm.(lane) else 0.0)
    done;
    Warp.store w gpiv ~active addrs vals;
    Warp.credit_flops w (Flops.getrf s)
  in
  let name = name pivoting in
  (* Implicit and unpivoted streams are data-independent (store-address
     sets are permutation-invariant), so their counters cache; the
     explicit kernel's conditional row swaps make its instruction stream
     value-dependent — caching it would just rerun every problem twice.
     Coalescing charges depend on [offset mod] elements-per-transaction
     for blocked launches and on the cohort width for interleaved ones,
     and [Batch.salt_class] keeps the two layouts' classes disjoint so an
     entry recorded under one layout can never replay for the other. *)
  let cache =
    match pivoting with
    | Explicit -> None
    | Implicit | No_pivoting -> Some (salt ~cfg ~prec ~abft b pvec)
  in
  (* Direct execution: the cacheable schedules restated as smallblas
     batch-view loops, producing every observable effect of the kernel —
     packed factors, pivot vector (host and device), [info] — bitwise
     identically.  ABFT verdicts live in the interpreter, so ABFT launches
     keep the simulated path. *)
  let direct =
    match pivoting with
    | Explicit -> None
    | _ when abft -> None
    | Implicit ->
      let vin = Gmem.raw gin and vout = Gmem.raw gout and vpiv = Gmem.raw gpiv in
      Some
        (fun i ->
          let off = Batch.base b i
          and st = Batch.stride b i
          and s = b.Batch.sizes.(i) in
          let sc = Hostexec.get () in
          let perm = Array.make s 0 in
          let inf =
            Lu.factor_implicit_view ~prec ~src:vin ~dst:vout ~off ~stride:st
              ~n:s ~tile:sc.Hostexec.tile ~step:sc.Hostexec.ints ~perm ()
          in
          pivots.(i) <- perm;
          info.(i) <- inf;
          verdicts.(i) <- Fault.Unchecked;
          for lane = 0 to s - 1 do
            vpiv.(Batch.vec_index pvec i lane) <- float_of_int perm.(lane)
          done;
          inf)
    | No_pivoting ->
      let vin = Gmem.raw gin and vout = Gmem.raw gout and vpiv = Gmem.raw gpiv in
      Some
        (fun i ->
          let off = Batch.base b i
          and st = Batch.stride b i
          and s = b.Batch.sizes.(i) in
          let inf =
            Lu.factor_nopivot_view ~prec ~src:vin ~dst:vout ~off ~stride:st
              ~n:s ()
          in
          pivots.(i) <- Array.init s (fun k -> k);
          info.(i) <- inf;
          verdicts.(i) <- Fault.Unchecked;
          for lane = 0 to s - 1 do
            vpiv.(Batch.vec_index pvec i lane) <- float_of_int lane
          done;
          inf)
  in
  let stats =
    Sampling.run ~cfg ~pool ?faults ?obs ~name ?cache ?direct ~prec ~mode
      ~sizes:b.Batch.sizes ~kernel ()
  in
  Vblu_obs.Ctx.record_verdicts obs verdicts;
  let factors = Batch.with_values b (Gmem.raw gout) in
  { factors; pivots; info; verdicts; stats }
