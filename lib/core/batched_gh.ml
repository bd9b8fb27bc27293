open Vblu_smallblas
open Vblu_simt
open Vblu_fault

type result = {
  factors : Gauss_huard.factors array;
  info : int array;
  verdicts : Fault.verdict array;
  stats : Launch.stats;
}

type solve_result = {
  solutions : Batch.vec;
  solve_info : int array;
  solve_verdicts : Fault.verdict array;
  solve_stats : Launch.stats;
}

(* Placeholder for blocks skipped in Sampled mode. *)
let dummy_factors =
  lazy (Gauss_huard.factor (Matrix.identity 1))

(* GH numerics run on the CPU reference ([Gauss_huard.factor_status]) with
   analytically charged counters, so fault injection and detection are
   host-level too: a soft error is modelled by corrupting a factor (or
   solution) entry directly, and detection re-derives the entry from the
   untouched input. *)

let inject_into plan ~problem ~size f =
  List.iter
    (fun (site : Fault.site) ->
      if Fault.Plan.claim plan ~problem ~step:site.Fault.step then begin
        f site;
        Fault.Plan.note_injected plan
      end)
    (Fault.Plan.sites_for plan ~problem ~size)

(* Checksum-solve detection (factor phase): solve the factored system
   against the row-sum vector w = A·e and accept iff the residual
   A·u - w stays within the backward-stable envelope rowwise.  A
   corrupted factor entry steers [u] away from [e] by far more than
   O(s·eps) for any reasonably conditioned block. *)
let abft_factor_verdict ~prec m (f : Gauss_huard.factors) =
  let s, _ = Matrix.dims m in
  let e = Array.make s 1.0 in
  let wsum = Matrix.gemv ~prec m e in
  let u, uinf = Gauss_huard.solve_status ~prec f wsum in
  if uinf <> 0 then Fault.Failed
  else begin
    let au = Matrix.gemv ~prec m u in
    let eps = Precision.eps prec in
    let ok = ref true in
    for r = 0 to s - 1 do
      let scale = ref (Float.abs wsum.(r)) in
      for c = 0 to s - 1 do
        scale := !scale +. Float.abs (Matrix.unsafe_get m r c *. u.(c))
      done;
      let tol = 1024.0 *. float_of_int s *. eps *. !scale in
      if (not (Float.is_finite au.(r))) || Float.abs (au.(r) -. wsum.(r)) > tol
      then ok := false
    done;
    if !ok then Fault.Passed else Fault.Failed
  end

let charge_factor w ~s ~storage =
  for _j = 1 to s do
    Charge.gmem_coalesced w ~elems:s
  done;
  Charge.round w;
  for k = 0 to s - 1 do
    (* Implicit column pivoting; unlike LU, every thread replicates the
       list of pivot indices and consults it when addressing its registers
       — the bookkeeping overhead the paper notes implicit LU avoids. *)
    Charge.reduction w;
    Charge.fma w 8.0;
    Charge.shfl w 4.0;
    Charge.smem w 8.0;
    Charge.div w 1.0;
    (* Lazy row-k update and eager column-k elimination: k processed
       columns drive one fused rank-1 register pass each (the shuffle of
       one update dual-issues with the FMA of the other). *)
    Charge.shfl w (float_of_int k);
    Charge.fma w (float_of_int k)
  done;
  (match storage with
  | Gauss_huard.Normal ->
    for _j = 1 to s do
      Charge.gmem_coalesced w ~elems:s
    done
  | Gauss_huard.Transposed ->
    (* Transposed write-back staged through a shared-memory transpose
       (direct strided stores would cost a sector per element); the extra
       price is the staging traffic plus the bank-conflict-free padding
       arithmetic. *)
    for _j = 1 to s do
      Charge.smem w 2.0;
      Charge.fma w 1.0;
      Charge.gmem_coalesced w ~elems:s
    done);
  (* Column-pivot vector. *)
  Charge.gmem_coalesced w ~elems:s;
  Warp.credit_flops w (Flops.gauss_huard_factor s)

let charge_solve w ~s ~storage =
  Charge.gmem_coalesced w ~elems:s;
  Charge.round w;
  let row_access elems =
    if elems > 0 then
      match storage with
      | Gauss_huard.Transposed -> Charge.gmem_coalesced w ~elems
      | Gauss_huard.Normal ->
        Charge.gmem_strided_read w ~elems
          ~stride_bytes:(s * Precision.bytes (Warp.prec w))
  in
  (* Forward sweep: DOT against row k's lower multipliers + pivot div. *)
  for k = 0 to s - 1 do
    row_access (k + 1);
    Charge.reduction w;
    Charge.div w 1.0;
    Charge.fma w 1.0
  done;
  (* Backward sweep with the unit upper part: row reads again. *)
  for k = s - 2 downto 0 do
    row_access (s - 1 - k);
    Charge.reduction w;
    Charge.fma w 1.0
  done;
  Charge.gmem_coalesced w ~elems:s;
  Warp.credit_flops w (Flops.gauss_huard_solve s)

(* Checksum-solve cost: one extra GH solve plus two reference gemv passes
   that re-read A. *)
let charge_abft_factor w ~s ~storage =
  charge_solve w ~s ~storage;
  for _j = 1 to s do
    Charge.gmem_coalesced w ~elems:s
  done;
  Charge.fma w (float_of_int (4 * s))

let factor ?(cfg = Config.p100) ?(pool = Vblu_par.Pool.sequential)
    ?(prec = Precision.Double) ?(mode = Sampling.Exact)
    ?(storage = Gauss_huard.Normal) ?faults ?(abft = false) ?obs (b : Batch.t) =
  Array.iter
    (fun s ->
      if s > cfg.Config.warp_size then
        invalid_arg "Batched_gh.factor: block exceeds warp width")
    b.Batch.sizes;
  let factors = Array.make b.Batch.count (Lazy.force dummy_factors) in
  let info = Array.make b.Batch.count 0 in
  let verdicts = Array.make b.Batch.count Fault.Unchecked in
  let kernel w i =
    Staging.set_cohort w b i;
    let s = b.Batch.sizes.(i) in
    let f, inf = Gauss_huard.factor_status ~prec ~storage (Batch.get_matrix b i) in
    (match faults with
    | None -> ()
    | Some plan ->
      inject_into plan ~problem:i ~size:s (fun site ->
          let r = site.Fault.lane and c = site.Fault.step in
          Matrix.unsafe_set f.Gauss_huard.gh r c
            (Fault.corrupt site.Fault.kind
               (Matrix.unsafe_get f.Gauss_huard.gh r c))));
    factors.(i) <- f;
    info.(i) <- inf;
    (* The analytic model charges the full factorization regardless of a
       breakdown: the simulated warp walks all s steps with the dead
       problem predicated off, so the instruction stream length does not
       depend on the data. *)
    charge_factor w ~s ~storage;
    if abft && inf = 0 then begin
      verdicts.(i) <- abft_factor_verdict ~prec (Batch.get_matrix b i) f;
      charge_abft_factor w ~s ~storage
    end
  in
  let name =
    match storage with
    | Gauss_huard.Normal -> "gh.factor"
    | Gauss_huard.Transposed -> "ght.factor"
  in
  (* Analytic charges depend on size, storage (already in the kernel name)
     and the abft flag; the abft branch is also gated on a clean info, but
     a divergent stream is caught by the op-event signature and rerun
     charging. *)
  (* GH numerics already run on the host; direct execution is the same
     reference factorization minus the analytic charge calls.  The ABFT
     verdict (and its extra charges) lives in the kernel, so ABFT launches
     keep the charged path. *)
  let direct =
    if abft then None
    else
      Some
        (fun i ->
          let f, inf =
            Gauss_huard.factor_status ~prec ~storage (Batch.get_matrix b i)
          in
          factors.(i) <- f;
          info.(i) <- inf;
          verdicts.(i) <- Fault.Unchecked;
          inf)
  in
  let stats =
    Sampling.run ~cfg ~pool ?faults ?obs ~name
      ~cache:(fun i -> Staging.mix (Bool.to_int abft) (Batch.cohort_salt b i))
      ?direct ~prec ~mode ~sizes:b.Batch.sizes ~kernel ()
  in
  Vblu_obs.Ctx.record_verdicts obs verdicts;
  { factors; info; verdicts; stats }

let solve ?(cfg = Config.p100) ?(pool = Vblu_par.Pool.sequential)
    ?(prec = Precision.Double) ?(mode = Sampling.Exact) ?faults
    ?(abft = false) ?obs (r : result) (rhs : Batch.vec) =
  if Array.length r.factors <> rhs.Batch.vcount then
    invalid_arg "Batched_gh.solve: batch count mismatch";
  let solutions = Batch.vec_create ~layout:rhs.Batch.vlayout rhs.Batch.vsizes in
  let storage =
    if Array.length r.factors = 0 then Gauss_huard.Normal
    else r.factors.(0).Gauss_huard.storage
  in
  let solve_info = Array.make rhs.Batch.vcount 0 in
  let solve_verdicts = Array.make rhs.Batch.vcount Fault.Unchecked in
  let kernel w i =
    Staging.set_vec_cohort w rhs i;
    let s = rhs.Batch.vsizes.(i) in
    let x, inf = Gauss_huard.solve_status ~prec r.factors.(i) (Batch.vec_get rhs i) in
    (match faults with
    | None -> ()
    | Some plan ->
      inject_into plan ~problem:i ~size:s (fun site ->
          x.(site.Fault.lane) <- Fault.corrupt site.Fault.kind x.(site.Fault.lane)));
    Batch.vec_set solutions i x;
    solve_info.(i) <- inf;
    charge_solve w ~s ~storage;
    if abft && inf = 0 then begin
      (* Dual modular redundancy: redo the (deterministic) reference solve
         and compare bitwise — any mismatch is corruption, never roundoff. *)
      let x2, _ =
        Gauss_huard.solve_status ~prec r.factors.(i) (Batch.vec_get rhs i)
      in
      charge_solve w ~s ~storage;
      let ok = ref true in
      for j = 0 to s - 1 do
        if
          not
            (Int64.equal (Int64.bits_of_float x.(j)) (Int64.bits_of_float x2.(j)))
        then ok := false
      done;
      solve_verdicts.(i) <- (if !ok then Fault.Passed else Fault.Failed)
    end
  in
  (* The solve's kernel name does not encode the storage layout, so it
     goes into the salt alongside the abft flag. *)
  let cache i =
    Staging.mix
      (Staging.mix (Bool.to_int abft)
         (match storage with
         | Gauss_huard.Normal -> 0
         | Gauss_huard.Transposed -> 1))
      (Batch.vec_cohort_salt rhs i)
  in
  let direct =
    if abft then None
    else
      Some
        (fun i ->
          let x, inf =
            Gauss_huard.solve_status ~prec r.factors.(i) (Batch.vec_get rhs i)
          in
          Batch.vec_set solutions i x;
          solve_info.(i) <- inf;
          solve_verdicts.(i) <- Fault.Unchecked;
          inf)
  in
  let stats =
    Sampling.run ~cfg ~pool ?faults ?obs ~name:"gh.solve" ~cache ?direct ~prec
      ~mode ~sizes:rhs.Batch.vsizes ~kernel ()
  in
  Vblu_obs.Ctx.record_verdicts obs solve_verdicts;
  { solutions; solve_info; solve_verdicts; solve_stats = stats }
