open Vblu_smallblas
open Vblu_sparse
open Vblu_core
open Vblu_fault
module Launch = Vblu_simt.Launch
module Counter = Vblu_simt.Counter
module Ctx = Vblu_obs.Ctx

type wave = {
  sweep : string;
  level : int;
  kernel : string;
  problems : int;
  transactions : int;
  modelled_us : float;
}

type apply_stats = { waves : wave array; modelled_seconds : float }

type info = {
  blocking : Supervariable.blocking;
  lower : Levels.schedule;
  upper : Levels.schedule;
  factor_info : int;
  degraded_blocks : int list;
  perturbed_blocks : int list;
  recovered_blocks : int list;
  corrupt_blocks : int list;
  abft_failures : int;
  setup_launches : int;
  setup_modelled_seconds : float;
  last_apply : apply_stats option ref;
}

(* Position of [j] in a sorted dependency array, -1 if absent. *)
let find_dep deps j =
  let lo = ref 0 and hi = ref (Array.length deps - 1) in
  let res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if deps.(mid) = j then res := mid
    else if deps.(mid) < j then lo := mid + 1
    else hi := mid - 1
  done;
  !res

(* Identity fallback factors: TRSV through them is a bitwise copy of the
   right-hand side and the right division a bitwise copy of the coupling
   block, so a degraded block is simply not preconditioned — the block
   generalization of patching a zero scalar pivot with [1.0]. *)
let identity_factors s =
  { Lu.lu = Matrix.identity s; perm = Array.init s Fun.id }

(* The charges of one apply, computed once by the charge pass:
   the published record (kept as an option so republishing it allocates
   nothing) and, per wave, what an [?obs] replay records — the launch
   name, its stats and its TRSV verdicts. *)
type memo = {
  m_published : apply_stats option;
  m_launches : (string * Launch.stats * Fault.verdict array) array;
}

(* One trailing update of the elimination, [C ← C − A_ik·B] with
   [A_ik = L_ik] the rank's coupling block: [u_b] is the upper block
   [A_kj] of the dependency row and [u_c] the target block of this row
   ([A_ii], an [L_ij] or a [U_ij]).  [u_size] is the order the GEMM
   launch pads the problem to.  [u_sparse]: the matrix's pattern leaves
   [A_ik] an all-zero row or [B] at most half nonzero, the only case in
   which the host sweep looks for terms to skip (elimination fill only
   adds nonzeros, cancellation aside). *)
type update = { u_b : Matrix.t; u_c : Matrix.t; u_size : int; u_sparse : bool }

(* Everything a factorization needs to be re-run incrementally: the
   kernel configuration, the pattern-derived schedules and update lists
   (invariant across refreshes), the dense working arenas, and the
   per-row factor storage.  The arenas are allocated once and refilled
   in place, so the update lists can hold them directly. *)
type state = {
  c_pool : Vblu_par.Pool.t option;
  c_prec : Precision.t;
  c_layout : Batch.layout;
  c_policy : Block_jacobi.breakdown_policy;
  c_recovery : Block_jacobi.recovery_policy;
  c_faults : Fault.Plan.t option;
  c_abft : bool;
  c_obs : Ctx.t option;
  s_n : int;
  s_blk : Supervariable.blocking;
  s_row_block : int array;
  s_lower : Levels.schedule;
  s_upper : Levels.schedule;
  s_row_ptr : int array;  (* pattern fingerprint, frozen at build *)
  s_col_idx : int array;
  s_values : float array;  (* CSR values as of the last refresh *)
  s_dmat : Matrix.t array;
  s_lmat : Matrix.t array array;
  s_umat : Matrix.t array array;
  (* [s_updates.(i).(t)]: the trailing updates of row [i]'s dependency
     rank [t] — the intersection of the dependency row's upper pattern
     with row [i]'s pattern, in that upper pattern's order. *)
  s_updates : update array array array;
  (* Factor storage: normal factors feed the backward-sweep TRSV waves,
     transposed factors feed the right divisions [L_ik = A_ik·A_kk⁻¹]
     (solved as [L_ikᵀ = lu(A_kkᵀ) \ A_ikᵀ]). *)
  s_flu : Matrix.t array;
  s_fpiv : int array array;
  s_tlu : Matrix.t array;
  s_tpiv : int array array;
  (* Per-row elimination outcome, kept as an array so a partial refresh
     can rewrite just the re-eliminated rows and the info lists stay
     reconstructible (and deterministic) at any point. *)
  s_outcome : Block_jacobi.outcome array;
  s_pending : bool array;  (* rows a raising update left re-eliminated *)
  s_buf : float array;  (* permuted right-hand side of one diagonal solve *)
  s_nzr : int array;  (* an L block's nonzero rows in a trailing update *)
  s_nzi : int array;  (* one B column's nonzero rows in a trailing update *)
  s_nzv : float array;  (* and their (rounded) values *)
  mutable s_failures : int;
      (* failed ABFT verdicts over the last build's or update's LU
         launches, rescues included *)
  mutable s_memo : memo option;
  s_last_apply : apply_stats option ref;
}

let init_state ~pool ~prec ~layout ~policy ~recovery ~faults ~abft ~obs ~blk
    (a : Csr.t) =
  let n, _ = Csr.dims a in
  let starts = blk.Supervariable.starts and sizes = blk.Supervariable.sizes in
  let k = Array.length starts in
  let lower = Levels.schedule Levels.Lower ~starts ~sizes a in
  let upper = Levels.schedule Levels.Upper ~starts ~sizes a in
  let row_block = Array.make n 0 in
  for i = 0 to k - 1 do
    for r = starts.(i) to starts.(i) + sizes.(i) - 1 do
      row_block.(r) <- i
    done
  done;
  let ldeps = lower.Levels.deps and udeps = upper.Levels.deps in
  let square i = Matrix.create sizes.(i) sizes.(i) in
  let dmat = Array.init k square in
  let coupling deps =
    Array.init k (fun i ->
        Array.map (fun j -> Matrix.create sizes.(i) sizes.(j)) deps.(i))
  in
  let lmat = coupling ldeps and umat = coupling udeps in
  (* Each coupling block's pattern: its nonzero count, and for the lower
     ones whether some row is empty. *)
  let lcount = Array.map (fun d -> Array.make (Array.length d) 0) ldeps in
  let ucount = Array.map (fun d -> Array.make (Array.length d) 0) udeps in
  let lfull = Array.map (fun d -> Array.make (Array.length d) 0) ldeps in
  for i = 0 to k - 1 do
    for r = starts.(i) to starts.(i) + sizes.(i) - 1 do
      let seen = Array.make (Array.length ldeps.(i)) false in
      for p = a.Csr.row_ptr.(r) to a.Csr.row_ptr.(r + 1) - 1 do
        let j = row_block.(a.Csr.col_idx.(p)) in
        if j < i then begin
          let t = find_dep ldeps.(i) j in
          lcount.(i).(t) <- lcount.(i).(t) + 1;
          seen.(t) <- true
        end
        else if j > i then begin
          let t = find_dep udeps.(i) j in
          ucount.(i).(t) <- ucount.(i).(t) + 1
        end
      done;
      Array.iteri (fun t b -> if b then lfull.(i).(t) <- lfull.(i).(t) + 1) seen
    done
  done;
  let updates =
    Array.init k (fun i ->
        Array.mapi
          (fun t kb ->
            let targets = ref [] in
            Array.iteri
              (fun tj j ->
                let target =
                  if j = i then Some dmat.(i)
                  else if j < i then begin
                    let ti = find_dep ldeps.(i) j in
                    if ti >= 0 then Some lmat.(i).(ti) else None
                  end
                  else begin
                    let ti = find_dep udeps.(i) j in
                    if ti >= 0 then Some umat.(i).(ti) else None
                  end
                in
                match target with
                | Some c ->
                  let b = umat.(kb).(tj) in
                  let u_size =
                    max sizes.(i) (max b.Matrix.rows c.Matrix.cols)
                  in
                  let u_sparse =
                    lfull.(i).(t) < sizes.(i)
                    || 2 * ucount.(kb).(tj) <= b.Matrix.rows * b.Matrix.cols
                  in
                  targets := { u_b = b; u_c = c; u_size; u_sparse } :: !targets
                | None -> ())
              udeps.(kb);
            Array.of_list (List.rev !targets))
          ldeps.(i))
  in
  {
    c_pool = pool;
    c_prec = prec;
    c_layout = layout;
    c_policy = policy;
    c_recovery = recovery;
    c_faults = faults;
    c_abft = abft;
    c_obs = obs;
    s_n = n;
    s_blk = blk;
    s_row_block = row_block;
    s_lower = lower;
    s_upper = upper;
    s_row_ptr = Array.copy a.Csr.row_ptr;
    s_col_idx = Array.copy a.Csr.col_idx;
    s_values = Array.copy a.Csr.values;
    s_dmat = dmat;
    s_lmat = lmat;
    s_umat = umat;
    s_updates = updates;
    s_flu = Array.init k square;
    s_fpiv = Array.init k (fun i -> Array.make sizes.(i) 0);
    s_tlu = Array.init k square;
    s_tpiv = Array.init k (fun i -> Array.make sizes.(i) 0);
    s_outcome = Array.make k Block_jacobi.Healthy;
    s_pending = Array.make k false;
    s_buf = Array.make (Array.fold_left max 1 sizes) 0.0;
    s_nzr = Array.make (Array.fold_left max 1 sizes) 0;
    s_nzi = Array.make (Array.fold_left max 1 sizes) 0;
    s_nzv = Array.make (Array.fold_left max 1 sizes) 0.0;
    s_failures = 0;
    s_memo = None;
    s_last_apply = ref None;
  }

(* Refill the dense working copies of the masked block rows from [a] in
   place — zero, then scatter the row's CSR entries: the "re-extract
   values into the existing arenas" step.  [lmat.(i)] / [umat.(i)] run
   parallel to [ldeps.(i)] / [udeps.(i)].  Unmasked rows keep their
   post-elimination state, which is exactly what a later partial
   elimination reads (the upper blocks and transposed factors of
   finalized dependency rows). *)
let fill_state st (a : Csr.t) (mask : bool array) =
  let starts = st.s_blk.Supervariable.starts
  and sizes = st.s_blk.Supervariable.sizes in
  let ldeps = st.s_lower.Levels.deps and udeps = st.s_upper.Levels.deps in
  let zero (m : Matrix.t) =
    Array.fill m.Matrix.a 0 (Array.length m.Matrix.a) 0.0
  in
  for i = 0 to Array.length starts - 1 do
    if mask.(i) then begin
      zero st.s_dmat.(i);
      Array.iter zero st.s_lmat.(i);
      Array.iter zero st.s_umat.(i);
      let si = sizes.(i) in
      for r = starts.(i) to starts.(i) + si - 1 do
        for p = a.Csr.row_ptr.(r) to a.Csr.row_ptr.(r + 1) - 1 do
          let c = a.Csr.col_idx.(p) in
          let j = st.s_row_block.(c) in
          let m =
            if j = i then st.s_dmat.(i)
            else if j < i then st.s_lmat.(i).(find_dep ldeps.(i) j)
            else st.s_umat.(i).(find_dep udeps.(i) j)
          in
          m.Matrix.a.(r - starts.(i) + (si * (c - starts.(j)))) <-
            a.Csr.values.(p)
        done
      done
    end
  done

(* The rows of [rows] that [keep] selects, in order. *)
let filter_rows keep rows =
  let n = Array.fold_left (fun n i -> if keep i then n + 1 else n) 0 rows in
  let out = Array.make n 0 in
  let q = ref 0 in
  Array.iter
    (fun i ->
      if keep i then begin
        out.(!q) <- i;
        incr q
      end)
    rows;
  out

(* The largest dependency count among [rows]: their number of ranks. *)
let max_rank (deps : int array array) rows =
  Array.fold_left (fun m i -> max m (Array.length deps.(i))) 0 rows

(* One batched GEMM wave [C_p ← C_p − A_p·B_p] over problems [(A, B, C)]
   of shapes (s_i×s_k)·(s_k×s_j), each padded square to the largest of
   the three orders: the padding stays zero, and a multiply-then-add chain
   with a zero operand leaves the live entries bit-exact.  Writes the
   products back into each [C] and returns the launch stats. *)
let gemm_wave ?pool ~prec ~layout ?obs
    (probs : (Matrix.t * Matrix.t * Matrix.t) array) =
  let psz =
    Array.map
      (fun ((a : Matrix.t), (b : Matrix.t), (c : Matrix.t)) ->
        max a.rows (max b.rows c.cols))
      probs
  in
  let ab = Batch.create ~layout psz
  and bb = Batch.create ~layout psz
  and cb = Batch.create ~layout psz in
  let stage p (d : Batch.t) (m : Matrix.t) =
    for r = 0 to m.rows - 1 do
      for c = 0 to m.cols - 1 do
        d.Batch.values.(Batch.index d p r c) <- Matrix.get m r c
      done
    done
  in
  Array.iteri
    (fun p (a, b, c) ->
      stage p ab a;
      stage p bb b;
      stage p cb c)
    probs;
  let res =
    Batched_gemm.multiply ?pool ~prec ?obs ~alpha:(-1.0) ~beta:1.0 ~a:ab ~b:bb
      ~c:cb ()
  in
  let pr = res.Batched_gemm.products in
  Array.iteri
    (fun p (_, _, (c : Matrix.t)) ->
      for r = 0 to c.rows - 1 do
        for j = 0 to c.cols - 1 do
          Matrix.set c r j pr.Batch.values.(Batch.index pr p r j)
        done
      done)
    probs;
  res.Batched_gemm.stats

(* Rounded arithmetic inlined into this unit, bitwise equal to
   [Precision]'s (DESIGN §5i). *)
module R = struct
  let[@inline] round p x =
    match p with
    | Precision.Double -> x
    | Single -> Int32.float_of_bits (Int32.bits_of_float x)

  let[@inline] mul p a b = round p (a *. b)
  let[@inline] fma p a b c = round p ((a *. b) +. c)
end

(* ───────────────── The elimination's host sweep ─────────────────

   Each wave's numerics run here, straight over the arenas, whenever its
   charge comes from the launch cache (see [eliminate]).  Every load
   rounds where [Gmem.of_array] rounds the staged batch, so the results
   are the kernels' bit for bit. *)

(* The right divisions of rank [t]: every row [r] of [L_ik] is solved
   against [lu(A_kkᵀ)] — the TRSM kernel's permuted load, then the
   eager pair on the (representable) stored factor.  The launch's zero
   right-hand sides for rows past [s_i] solve to nothing anyone reads.
   Without a fault plan every stored transposed factor has a nonzero
   diagonal (a clean LU's pivots, or the identity), so the solve cannot
   break down. *)
let[@inline] divide_k prec st sub t =
  let buf = st.s_buf in
  for p = 0 to Array.length sub - 1 do
    let i = sub.(p) in
    let kb = st.s_lower.Levels.deps.(i).(t) in
    let m = st.s_lmat.(i).(t) in
    let si = m.Matrix.rows and sk = m.Matrix.cols and l = m.Matrix.a in
    let piv = st.s_tpiv.(kb) and f = st.s_tlu.(kb).Matrix.a in
    for r = 0 to si - 1 do
      for e = 0 to sk - 1 do
        buf.(e) <- R.round prec l.(r + (si * piv.(e)))
      done;
      let info =
        Trsv.pair_eager_view ~prec ~m:f ~moff:0 ~n:sk ~b:buf ~boff:0 ()
      in
      assert (info = 0);
      for e = 0 to sk - 1 do
        l.(r + (si * e)) <- buf.(e)
      done
    done
  done

(* [C ← C − A·B] for column-major [A] (m×kk at [ao] of [aa]), [B]
   (kk×nn at [bo] of [ba]) and [C] (m×nn at [co] of [ca]) in the GEMM
   kernel's rounding sequence: per element an unfused fma chain from +0
   over [k] in order, the ×(−1) scale, then the [+c] fma.  A launch pads
   the live shapes square with zeros, which only appends [+0·0] terms to
   a chain that is never −0, so dropping them is bit-exact.  Four rows
   run side by side, each its own chain, so the adds overlap instead of
   waiting on one another.  [B] and [C] may share an array when their
   ranges are disjoint. *)
let[@inline] update_k prec aa ao ba bo ca co m kk nn =
  let m4 = m - (m mod 4) in
  for j = 0 to nn - 1 do
    let bj = bo + (j * kk) and cj = co + (j * m) in
    for q = 0 to (m4 / 4) - 1 do
      let r = 4 * q in
      let acc0 = ref 0.0 and acc1 = ref 0.0 in
      let acc2 = ref 0.0 and acc3 = ref 0.0 in
      for f = 0 to kk - 1 do
        let bf = R.round prec ba.(bj + f) and af = ao + r + (f * m) in
        acc0 := R.fma prec (R.round prec aa.(af)) bf !acc0;
        acc1 := R.fma prec (R.round prec aa.(af + 1)) bf !acc1;
        acc2 := R.fma prec (R.round prec aa.(af + 2)) bf !acc2;
        acc3 := R.fma prec (R.round prec aa.(af + 3)) bf !acc3
      done;
      let cr = cj + r in
      ca.(cr) <-
        R.fma prec (R.round prec ca.(cr)) 1.0 (R.mul prec !acc0 (-1.0));
      ca.(cr + 1) <-
        R.fma prec (R.round prec ca.(cr + 1)) 1.0 (R.mul prec !acc1 (-1.0));
      ca.(cr + 2) <-
        R.fma prec (R.round prec ca.(cr + 2)) 1.0 (R.mul prec !acc2 (-1.0));
      ca.(cr + 3) <-
        R.fma prec (R.round prec ca.(cr + 3)) 1.0 (R.mul prec !acc3 (-1.0))
    done;
    for r = m4 to m - 1 do
      let acc = ref 0.0 in
      for f = 0 to kk - 1 do
        acc :=
          R.fma prec
            (R.round prec aa.(ao + r + (f * m)))
            (R.round prec ba.(bj + f))
            !acc
      done;
      let cr = cj + r in
      ca.(cr) <-
        R.fma prec (R.round prec ca.(cr)) 1.0 (R.mul prec !acc (-1.0))
    done
  done

(* [C ← C − A·B] as {!update_k} at offset 0, with every term that is an
   exact ±0 left out: the caller guarantees every (rounded) entry of [A]
   and [B] is finite, so a zero on either side makes its term ±0.  Only
   [A]'s [nr] nonzero rows [nzr] run chains, each over the [nz] nonzero
   rows [nzi]/[nzv] its column of [B] gathers once.  A chain that leaves
   terms out differs from the full one only in the sign of a zero
   accumulator (a Single sum can round to −0), so one that ends at zero
   after any term is recomputed in full; a chain with no term is the full
   chain's +0.  Every C entry still goes through the [+c] fma, which in
   Single rounds it even when nothing else touches it; in Double that
   write is the identity and rows of [A] that are all zero are not
   visited at all (DESIGN §5i). *)
let[@inline] finish_k prec aa ba ca m kk r bj cj nz acc =
  let acc =
    if nz > 0 && acc = 0.0 then begin
      let full = ref 0.0 in
      for f = 0 to kk - 1 do
        full :=
          R.fma prec (R.round prec aa.(r + (f * m))) (R.round prec ba.(bj + f))
            !full
      done;
      !full
    end
    else acc
  in
  let cr = cj + r in
  ca.(cr) <- R.fma prec (R.round prec ca.(cr)) 1.0 (R.mul prec acc (-1.0))

let[@inline] sparse_update_k prec nzr nr nzi nzv aa ba ca m kk nn =
  let nr4 = nr - (nr mod 4) in
  for j = 0 to nn - 1 do
    let bj = j * kk and cj = j * m in
    (match prec with
    | Precision.Double -> ()
    | Single ->
      for r = 0 to m - 1 do
        ca.(cj + r) <- R.round prec ca.(cj + r)
      done);
    let nz = ref 0 in
    for f = 0 to kk - 1 do
      let bf = R.round prec ba.(bj + f) in
      if bf <> 0.0 then begin
        nzi.(!nz) <- f * m;
        nzv.(!nz) <- bf;
        incr nz
      end
    done;
    let nz = !nz in
    for q = 0 to (nr4 / 4) - 1 do
      let r0 = nzr.(4 * q) and r1 = nzr.((4 * q) + 1) in
      let r2 = nzr.((4 * q) + 2) and r3 = nzr.((4 * q) + 3) in
      let acc0 = ref 0.0 and acc1 = ref 0.0 in
      let acc2 = ref 0.0 and acc3 = ref 0.0 in
      for e = 0 to nz - 1 do
        let bf = nzv.(e) and af = nzi.(e) in
        acc0 := R.fma prec (R.round prec aa.(af + r0)) bf !acc0;
        acc1 := R.fma prec (R.round prec aa.(af + r1)) bf !acc1;
        acc2 := R.fma prec (R.round prec aa.(af + r2)) bf !acc2;
        acc3 := R.fma prec (R.round prec aa.(af + r3)) bf !acc3
      done;
      (finish_k [@inlined]) prec aa ba ca m kk r0 bj cj nz !acc0;
      (finish_k [@inlined]) prec aa ba ca m kk r1 bj cj nz !acc1;
      (finish_k [@inlined]) prec aa ba ca m kk r2 bj cj nz !acc2;
      (finish_k [@inlined]) prec aa ba ca m kk r3 bj cj nz !acc3
    done;
    for q = nr4 to nr - 1 do
      let r = nzr.(q) in
      let acc = ref 0.0 in
      for e = 0 to nz - 1 do
        acc := R.fma prec (R.round prec aa.(nzi.(e) + r)) nzv.(e) !acc
      done;
      (finish_k [@inlined]) prec aa ba ca m kk r bj cj nz !acc
    done
  done

(* The number of [a]'s nonzero entries rounded to [prec], or -1 when one
   of them is not finite. *)
let[@inline] nonzeros_k prec (a : float array) =
  let nz = ref 0 and finite = ref true in
  for e = 0 to Array.length a - 1 do
    let x = R.round prec a.(e) in
    if x -. x <> 0.0 then finite := false;
    if x <> 0.0 then incr nz
  done;
  if !finite then !nz else -1

(* The rows of the [m]×[kk] block [a] with a nonzero (rounded) entry,
   into [nzr]; returns their count. *)
let[@inline] nonzero_rows_k prec nzr (a : float array) m kk =
  let nr = ref 0 in
  for r = 0 to m - 1 do
    let f = ref 0 in
    while !f < kk && R.round prec a.(r + (!f * m)) = 0.0 do
      incr f
    done;
    if !f < kk then begin
      nzr.(!nr) <- r;
      incr nr
    end
  done;
  !nr

(* The trailing updates of rank [t]: the exact-zero terms are left out
   whenever the row's [L_ik] and the update's [B] are all finite, where
   a left-out term can only be ±0, and there are enough of them to pay
   for the gathers — [L_ik] has an all-zero row or [B] is at most half
   nonzero.  Updates whose pattern rules both out ([u_sparse]) are not
   even scanned. *)
let[@inline] updates_k prec st sub t =
  for p = 0 to Array.length sub - 1 do
    let i = sub.(p) in
    let a = st.s_lmat.(i).(t) and us = st.s_updates.(i).(t) in
    let m = a.Matrix.rows and kk = a.Matrix.cols in
    let tried = ref false in
    for u = 0 to Array.length us - 1 do
      if us.(u).u_sparse then tried := true
    done;
    let finite = !tried && (nonzeros_k [@inlined]) prec a.Matrix.a >= 0 in
    let nr =
      if finite then (nonzero_rows_k [@inlined]) prec st.s_nzr a.Matrix.a m kk
      else 0
    in
    for u = 0 to Array.length us - 1 do
      let b = us.(u).u_b.Matrix.a and c = us.(u).u_c.Matrix.a in
      let nn = us.(u).u_b.Matrix.cols in
      let nzb =
        if finite && us.(u).u_sparse then (nonzeros_k [@inlined]) prec b
        else -1
      in
      if nzb >= 0 && (nr < m || 2 * nzb <= kk * nn) then
        (sparse_update_k [@inlined]) prec st.s_nzr nr st.s_nzi st.s_nzv
          a.Matrix.a b c m kk nn
      else (update_k [@inlined]) prec a.Matrix.a 0 b 0 c 0 m kk nn
    done
  done

(* The LU of every row's eliminated diagonal block and of its transpose,
   straight into the row's factor storage — the implicit-pivoting
   kernel's host view on the block rounded as the launch stages it, in
   this domain's [Hostexec] scratch.  Returns whether every
   factorization is clean: [info = 0] both ways (with no fault plan
   armed, that leaves no zero on a stored U diagonal). *)
let[@inline] factor_k prec st rows =
  let sc = Hostexec.get () in
  let src = sc.Hostexec.src in
  let clean = ref true in
  for p = 0 to Array.length rows - 1 do
    let i = rows.(p) in
    let d = st.s_dmat.(i).Matrix.a and s = st.s_dmat.(i).Matrix.rows in
    for e = 0 to (s * s) - 1 do
      src.(e) <- R.round prec d.(e)
    done;
    let info =
      Lu.factor_implicit_view ~prec ~src ~dst:st.s_flu.(i).Matrix.a ~off:0 ~n:s
        ~tile:sc.Hostexec.tile ~step:sc.Hostexec.ints ~perm:st.s_fpiv.(i) ()
    in
    for c = 0 to s - 1 do
      for r = 0 to s - 1 do
        src.(r + (s * c)) <- R.round prec d.(c + (s * r))
      done
    done;
    let tinfo =
      Lu.factor_implicit_view ~prec ~src ~dst:st.s_tlu.(i).Matrix.a ~off:0 ~n:s
        ~tile:sc.Hostexec.tile ~step:sc.Hostexec.ints ~perm:st.s_tpiv.(i) ()
    in
    if info <> 0 || tinfo <> 0 then clean := false
  done;
  !clean

(* Elimination restricted to the masked block rows: one pass over the
   lower-DAG level sets.  Rows of a wave only write their own block row
   and read block rows finalized by strictly earlier waves, so each
   dependency rank [t] is one batched TRSM wave (the right divisions)
   plus one batched GEMM wave (the pattern-restricted trailing updates),
   and the wave closes with one batched LU launch over its eliminated
   diagonals — no scalar factorization anywhere.  Waves with no masked
   rows are skipped outright, which is where a partial refresh saves its
   launches.

   Each wave is charged in full, but a wave whose every cache key is
   certified takes its charge from [Launch.Cache] alone (the kernels'
   [charge]) and runs its numerics in the host sweep above, with no
   staging and no launch.  A wave goes through its launch when a key is
   cold, when a fault plan or ABFT is armed, or — for the LU wave — when
   a host factorization breaks down, so the launch's own breakdown,
   rescue and cache-demotion logic runs.  Either way the charges, the
   cache tallies and the numbers are the launches'.  Returns
   [(launches, transactions, modelled_seconds)]. *)
let eliminate st (mask : bool array) =
  let pool = st.c_pool
  and prec = st.c_prec
  and layout = st.c_layout
  and faults = st.c_faults
  and abft = st.c_abft
  and obs = st.c_obs in
  let sweep = faults = None && not abft in
  let sizes = st.s_blk.Supervariable.sizes in
  let ldeps = st.s_lower.Levels.deps in
  let dmat = st.s_dmat and lmat = st.s_lmat in
  let launches = ref 0 and transactions = ref 0 and modelled = ref 0.0 in
  let note (ls : Launch.stats) =
    incr launches;
    transactions := !transactions + Counter.transactions ls.Launch.total;
    modelled := !modelled +. (ls.Launch.time_us *. 1e-6)
  in
  st.s_failures <- 0;
  let divide sub t =
    let srcs = Array.map (fun i -> ldeps.(i).(t)) sub in
    let vsz = Array.map (fun kb -> sizes.(kb)) srcs in
    (* GETRS wants a uniform rhs count: pad short problems with zero
       vectors (their solves are exact no-ops). *)
    let nrhs = Array.fold_left (fun m i -> max m sizes.(i)) 1 sub in
    let charged =
      if sweep then Batched_trsm.charge ?obs ~prec ~layout ~nrhs vsz else None
    in
    match charged with
    | Some ls ->
      (match prec with
      | Precision.Double -> (divide_k [@inlined]) Precision.Double st sub t
      | Single -> (divide_k [@inlined]) Precision.Single st sub t);
      note ls
    | None ->
      let fb =
        Batch.of_matrices ~layout (Array.map (fun kb -> st.s_tlu.(kb)) srcs)
      in
      let piv = Array.map (fun kb -> st.s_tpiv.(kb)) srcs in
      let rhs_sets =
        Array.init nrhs (fun r ->
            Batch.vec_of_vectors ~layout
              (Array.mapi
                 (fun p i ->
                   Array.init vsz.(p) (fun e ->
                       if r < sizes.(i) then Matrix.get lmat.(i).(t) r e
                       else 0.0))
                 sub))
      in
      let tr =
        Batched_trsm.solve ?pool ~prec ?obs ~factors:fb ~pivots:piv rhs_sets
      in
      note tr.Batched_trsm.stats;
      Array.iteri
        (fun p i ->
          for r = 0 to sizes.(i) - 1 do
            Array.iteri
              (Matrix.set lmat.(i).(t) r)
              (Batch.vec_get tr.Batched_trsm.solutions.(r) p)
          done)
        sub
  in
  (* Trailing updates A_ij -= L_ik·A_kj; distinct (i, j) targets, so one
     GEMM wave with no write conflicts. *)
  let update sub t =
    let psz =
      Array.concat
        (Array.to_list
           (Array.map
              (fun i -> Array.map (fun u -> u.u_size) st.s_updates.(i).(t))
              sub))
    in
    if Array.length psz > 0 then begin
      let charged =
        if sweep then Batched_gemm.charge ?obs ~prec ~layout ~with_c:true psz
        else None
      in
      match charged with
      | Some ls ->
        (match prec with
        | Precision.Double -> (updates_k [@inlined]) Precision.Double st sub t
        | Single -> (updates_k [@inlined]) Precision.Single st sub t);
        note ls
      | None ->
        let probs =
          Array.concat
            (Array.to_list
               (Array.map
                  (fun i ->
                    Array.map
                      (fun u -> (lmat.(i).(t), u.u_b, u.u_c))
                      st.s_updates.(i).(t))
                  sub))
        in
        note (gemm_wave ?pool ~prec ~layout ?obs probs)
    end
  in
  (* The wave's eliminated diagonals and their transposes: the host
     factorization charged from the cache when it is clean, else settled
     by [Block_jacobi.settle].  A row that ends degraded or corrupt takes
     identity factors; under a [Fail] policy the elimination still
     finishes on them (determinism) and the raise comes after setup. *)
  let factor rows =
    let nw = Array.length rows in
    let clean =
      sweep
      &&
      match prec with
      | Precision.Double -> (factor_k [@inlined]) Precision.Double st rows
      | Single -> (factor_k [@inlined]) Precision.Single st rows
    in
    let charged =
      if clean then
        Batched_lu.charge ?obs ~prec ~layout
          (Array.init (2 * nw) (fun p -> sizes.(rows.(p mod nw))))
      else None
    in
    match charged with
    | Some ls -> note ls
    | None ->
      let s =
        Block_jacobi.settle ?pool ~prec ~layout ?obs ?faults ~abft
          ~recovery:st.c_recovery ~policy:(fun _ -> st.c_policy)
          [| Array.map (fun i -> dmat.(i)) rows;
             Array.map (fun i -> Matrix.transpose dmat.(i)) rows |]
      in
      List.iter note s.Block_jacobi.launch_stats;
      st.s_failures <-
        Array.fold_left ( + ) st.s_failures s.Block_jacobi.failures;
      Array.iteri
        (fun p i ->
          let outcome = s.Block_jacobi.outcomes.(p) in
          let fn, ft =
            match outcome with
            | Block_jacobi.Healthy | Perturbed | Recovered ->
              (s.Block_jacobi.factors.(0).(p), s.Block_jacobi.factors.(1).(p))
            | Degraded | Corrupt | Pending ->
              (identity_factors sizes.(i), identity_factors sizes.(i))
          in
          st.s_outcome.(i) <- outcome;
          st.s_flu.(i) <- fn.Lu.lu;
          st.s_fpiv.(i) <- fn.Lu.perm;
          st.s_tlu.(i) <- ft.Lu.lu;
          st.s_tpiv.(i) <- ft.Lu.perm)
        rows
  in
  Array.iter
    (fun level ->
      let rows = filter_rows (fun i -> mask.(i)) level in
      if Array.length rows > 0 then begin
        Array.iter (fun i -> st.s_outcome.(i) <- Block_jacobi.Healthy) rows;
        for t = 0 to max_rank ldeps rows - 1 do
          let sub = filter_rows (fun i -> Array.length ldeps.(i) > t) rows in
          divide sub t;
          update sub t
        done;
        factor rows
      end)
    st.s_lower.Levels.level_sets;
  (!launches, !transactions, !modelled)

(* The level-wave launches of one apply, run once per handle as its
   charge pass: the forward sweep walks the lower DAG's levels, each one
   batched GEMM wave per dependency rank ([y_i ← y_i − A_ik·y_k], problems
   padded square to [max (s_i, s_k)], data in column 0); the backward
   sweep walks the upper DAG the same way and closes every level with one
   batched TRSV wave over its diagonal factors.  The waves' charges depend
   only on the pattern — sizes, layout offsets, salt classes — so they
   hold for every later apply and across refreshes.  Returns the launches'
   solution (the reference the host sweep must equal bit for bit) and the
   memo.  [?obs] records the launches themselves; the apply passes none
   and replays the memo instead. *)
let launch_waves ?obs st r =
  let pool = st.c_pool and prec = st.c_prec and layout = st.c_layout in
  let starts = st.s_blk.Supervariable.starts
  and sizes = st.s_blk.Supervariable.sizes in
  let y = Array.copy r in
  let log = ref [] in
  let note sweep level kernel name problems (ls : Launch.stats) verdicts =
    let transactions = Counter.transactions ls.Launch.total in
    let modelled_us = ls.Launch.time_us in
    log :=
      ( { sweep; level; kernel; problems; transactions; modelled_us },
        (name, ls, verdicts) )
      :: !log
  in
  let gemm_waves sweep level deps mats rows =
    for t = 0 to max_rank deps rows - 1 do
      let sub = filter_rows (fun i -> Array.length deps.(i) > t) rows in
      (* Column segments of [y] as s×1 operands. *)
      let seg i = Matrix.init sizes.(i) 1 (fun e _ -> y.(starts.(i) + e)) in
      let probs =
        Array.map (fun i -> (mats.(i).(t), seg deps.(i).(t), seg i)) sub
      in
      let ls = gemm_wave ?pool ~prec ~layout ?obs probs in
      Array.iteri
        (fun p i ->
          let _, _, (c : Matrix.t) = probs.(p) in
          Array.blit c.a 0 y starts.(i) sizes.(i))
        sub;
      note sweep level "gemm" "gemm" (Array.length sub) ls [||]
    done
  in
  Array.iteri
    (fun level rows ->
      gemm_waves "forward" level st.s_lower.Levels.deps st.s_lmat rows)
    st.s_lower.Levels.level_sets;
  Array.iteri
    (fun level rows ->
      gemm_waves "backward" level st.s_upper.Levels.deps st.s_umat rows;
      let res =
        Batched_trsv.solve ?pool ~prec ?obs
          ~factors:
            (Batch.of_matrices ~layout (Array.map (fun i -> st.s_flu.(i)) rows))
          ~pivots:(Array.map (fun i -> st.s_fpiv.(i)) rows)
          (Batch.vec_of_vectors ~layout
             (Array.map (fun i -> Array.sub y starts.(i) sizes.(i)) rows))
      in
      Array.iteri
        (fun p i ->
          Array.blit
            (Batch.vec_get res.Batched_trsv.solutions p)
            0 y starts.(i) sizes.(i))
        rows;
      note "backward" level "trsv" "trsv.eager" (Array.length rows)
        res.Batched_trsv.stats res.Batched_trsv.verdicts)
    st.s_upper.Levels.level_sets;
  let log = Array.of_list (List.rev !log) in
  let waves = Array.map fst log in
  let modelled_seconds =
    Array.fold_left (fun acc w -> acc +. (w.modelled_us *. 1e-6)) 0.0 waves
  in
  ( y,
    {
      m_published = Some { waves; modelled_seconds };
      m_launches = Array.map snd log;
    } )

(* [y_i ← y_i − A_ik·y_k] over every coupling block of the rows of one
   level: {!update_k} with [y]'s segments as the one-column [B] and [C],
   the GEMM wave's rounding sequence. *)
let[@inline] couple_k prec st (deps : int array array) mats rows y =
  let starts = st.s_blk.Supervariable.starts
  and sizes = st.s_blk.Supervariable.sizes in
  for p = 0 to Array.length rows - 1 do
    let i = rows.(p) in
    for t = 0 to Array.length deps.(i) - 1 do
      let kb = deps.(i).(t) in
      (update_k [@inlined]) prec mats.(i).(t).Matrix.a 0 y starts.(kb) y
        starts.(i) sizes.(i) sizes.(kb) 1
    done
  done

(* The apply's numerics as one sequential host pass per triangle.  Rows
   of one level never read each other's rows, so walking each row's
   dependency ranks in order is bitwise the wave sequence of
   {!launch_waves}.  A diagonal solve copies the permuted (rounded)
   segment into [s_buf] and runs the TRSV kernel's host view on the stored
   factor — already representable at [prec], since it left a device
   buffer of that precision (or is the identity fallback). *)
let[@inline] sweep_k prec st y =
  let lower = st.s_lower and upper = st.s_upper and buf = st.s_buf in
  for lv = 0 to Array.length lower.Levels.level_sets - 1 do
    (couple_k [@inlined]) prec st lower.Levels.deps st.s_lmat
      lower.Levels.level_sets.(lv) y
  done;
  for lv = 0 to Array.length upper.Levels.level_sets - 1 do
    let rows = upper.Levels.level_sets.(lv) in
    (couple_k [@inlined]) prec st upper.Levels.deps st.s_umat rows y;
    for p = 0 to Array.length rows - 1 do
      let i = rows.(p) in
      let s = st.s_blk.Supervariable.sizes.(i)
      and y0 = st.s_blk.Supervariable.starts.(i)
      and piv = st.s_fpiv.(i) in
      for e = 0 to s - 1 do
        buf.(e) <- R.round prec y.(y0 + piv.(e))
      done;
      let info =
        Trsv.pair_eager_view ~prec ~m:st.s_flu.(i).Matrix.a ~moff:0 ~n:s ~b:buf
          ~boff:0 ()
      in
      (* Stored factors come from LU with [info = 0] or the identity
         fallback, and [eliminate] rejects a zero U diagonal. *)
      assert (info = 0);
      Array.blit buf 0 y y0 s
    done
  done

(* One application: the charge pass on the handle's first apply, then the
   host sweep, then the memoised charges — republished on every call and,
   under [?obs], replayed launch by launch exactly as the waves recorded
   them.  The closure survives refreshes: [update] rewrites the arenas the
   sweep reads and leaves the pattern-only memo alone. *)
let apply_state st r =
  if Array.length r <> st.s_n then
    invalid_arg "Block_ilu0.apply: dimension mismatch";
  let memo =
    match st.s_memo with
    | Some m -> m
    | None ->
      let _, m = launch_waves st r in
      st.s_memo <- Some m;
      m
  in
  let y = Array.copy r in
  (match st.c_prec with
  | Precision.Double -> (sweep_k [@inlined]) Precision.Double st y
  | Single -> (sweep_k [@inlined]) Precision.Single st y);
  if Ctx.enabled st.c_obs then
    Array.iter
      (fun (name, ls, verdicts) ->
        Vblu_simt.Sampling.record_launch st.c_obs ~name ~prec:st.c_prec ls;
        Ctx.record_verdicts st.c_obs verdicts)
      memo.m_launches;
  st.s_last_apply := memo.m_published;
  y

(* Row [i]'s diagonal broke down, whatever the policy then did. *)
let broke st i =
  match st.s_outcome.(i) with
  | Block_jacobi.Degraded | Perturbed -> true
  | Healthy | Recovered | Corrupt | Pending -> false

(* The first row [p] holds for, if any. *)
let first_row st p =
  let rec from i =
    if i >= Array.length st.s_outcome then None
    else if p i then Some i
    else from (i + 1)
  in
  from 0

let factor_info_of st = Option.fold ~none:0 ~some:succ (first_row st (broke st))

(* ───────────────────── Amortized setup (handles) ─────────────────────

   The pattern — hence the blocking, both level schedules, and every
   dependency list — is invariant under value drift, so a handle keeps
   the elimination state alive and [update] re-runs only the dirty part:
   block rows whose own CSR entries moved past the tolerance, closed
   over the lower DAG (a row whose dependency re-eliminates has changed
   inputs and must re-eliminate too).  Waves with no dirty rows issue no
   launches at all.  Clean rows keep their post-elimination blocks and
   factors bitwise, and since elimination of a row writes only that
   row's blocks, a [~tol:0.] refresh reproduces a fresh factorization
   bit for bit.  [create] is a handle build. *)

type handle = {
  h_state : state;
  h_precond : Preconditioner.t;
  mutable h_last : Block_jacobi.update_stats;
}

let handle_info h =
  let st = h.h_state in
  let o =
    Block_jacobi.info_of_outcomes ~abft_failures:st.s_failures st.s_blk
      st.s_outcome
  in
  {
    blocking = st.s_blk;
    lower = st.s_lower;
    upper = st.s_upper;
    factor_info = factor_info_of st;
    degraded_blocks = o.Block_jacobi.degraded_blocks;
    perturbed_blocks = o.Block_jacobi.perturbed_blocks;
    recovered_blocks = o.Block_jacobi.recovered_blocks;
    corrupt_blocks = o.Block_jacobi.corrupt_blocks;
    abft_failures = o.Block_jacobi.abft_failures;
    setup_launches = h.h_last.Block_jacobi.launches;
    setup_modelled_seconds = h.h_last.Block_jacobi.modelled_seconds;
    last_apply = st.s_last_apply;
  }

(* A build's record under [?obs]: an ["ilu0.setup"] span and the
   [precond.ilu0.*] setup metrics. *)
let record_setup obs h =
  let info = handle_info h in
  let ls = Levels.stats info.lower and us = Levels.stats info.upper in
  let count = List.length in
  let launches = info.setup_launches in
  Ctx.span_dur obs ~cat:"precond" ~dur:0.0 "ilu0.setup"
    ~args:
      [
        ("blocks", Vblu_obs.Trace.Int (Array.length h.h_state.s_flu));
        ("lower_levels", Vblu_obs.Trace.Int ls.Levels.levels);
        ("upper_levels", Vblu_obs.Trace.Int us.Levels.levels);
        ("launches", Vblu_obs.Trace.Int launches);
        ("degraded", Vblu_obs.Trace.Int (count info.degraded_blocks));
        ("perturbed", Vblu_obs.Trace.Int (count info.perturbed_blocks));
        ("recovered", Vblu_obs.Trace.Int (count info.recovered_blocks));
        ("corrupt", Vblu_obs.Trace.Int (count info.corrupt_blocks));
      ];
  let l = [ ("precond", h.h_precond.Preconditioner.name) ] in
  Ctx.set_gauge_l obs "precond.ilu0.setup_modelled_seconds" l
    info.setup_modelled_seconds;
  Ctx.set_gauge_l obs "precond.ilu0.setup_launches" l (float_of_int launches);
  Ctx.set_gauge_l obs "precond.ilu0.levels"
    [ ("sweep", "lower") ]
    (float_of_int ls.Levels.levels);
  Ctx.set_gauge_l obs "precond.ilu0.levels"
    [ ("sweep", "upper") ]
    (float_of_int us.Levels.levels);
  Array.iter
    (fun lset ->
      Ctx.observe_l obs "precond.ilu0.level_occupancy"
        [ ("sweep", "lower") ]
        (float_of_int (Array.length lset)))
    info.lower.Levels.level_sets;
  Array.iter
    (fun lset ->
      Ctx.observe_l obs "precond.ilu0.level_occupancy"
        [ ("sweep", "upper") ]
        (float_of_int (Array.length lset)))
    info.upper.Levels.level_sets;
  Ctx.incr_l obs "precond.ilu0.degraded" l
    (float_of_int (count info.degraded_blocks));
  Ctx.incr_l obs "precond.ilu0.perturbed" l
    (float_of_int (count info.perturbed_blocks));
  Ctx.incr_l obs "precond.ilu0.recovered" l
    (float_of_int (count info.recovered_blocks));
  Ctx.incr_l obs "precond.ilu0.corrupt" l
    (float_of_int (count info.corrupt_blocks))

(* What [st]'s [Fail] policies raise over [outcomes]. *)
let rejection st outcomes =
  Block_jacobi.rejection ~policy:st.c_policy ~recovery:st.c_recovery
    Block_jacobi.Lu outcomes

(* Partition, eliminate every row, and package the apply (wrapped in an
   ["ilu0.apply"] span under [?obs]); the caller applies [rejection]. *)
let build ?pool ?(prec = Precision.Double) ?(layout = Batch.Blocked)
    ?(policy = (Block_jacobi.Identity_block : Block_jacobi.breakdown_policy))
    ?(recovery = Block_jacobi.Recompute 1) ?faults ?(abft = false)
    ?(max_block_size = 32) ?blocking ?obs (a : Csr.t) =
  let n, cols = Csr.dims a in
  if n <> cols then invalid_arg "Block_ilu0.handle: matrix not square";
  let blk =
    Block_jacobi.resolve_blocking ~who:"Block_ilu0.handle" ~max_block_size
      blocking a
  in
  Array.iter
    (fun s ->
      if s > 32 then
        invalid_arg "Block_ilu0.handle: diagonal block exceeds the warp width")
    blk.Supervariable.sizes;
  let k = Array.length blk.Supervariable.starts in
  let (st, (launches, setup_transactions, modelled_seconds)), setup_seconds =
    Preconditioner.timed (fun () ->
        let st =
          init_state ~pool ~prec ~layout ~policy ~recovery ~faults ~abft ~obs
            ~blk a
        in
        let mask = Array.make k true in
        fill_state st a mask;
        (st, eliminate st mask))
  in
  let apply =
    if Ctx.enabled obs then fun r ->
      Ctx.with_span obs ~cat:"precond" "ilu0.apply" (fun () ->
          Ctx.incr obs "precond.ilu0.apply.count" 1.0;
          apply_state st r)
    else apply_state st
  in
  let name = Printf.sprintf "block-ilu0(%d)" max_block_size in
  let h =
    {
      h_state = st;
      h_precond = { Preconditioner.name; dim = n; setup_seconds; apply };
      h_last =
        {
          Block_jacobi.dirty_blocks = List.init k Fun.id;
          refactored = k;
          reused = 0;
          launches;
          setup_transactions;
          modelled_seconds;
        };
    }
  in
  if Ctx.enabled obs then record_setup obs h;
  h

let handle ?pool ?prec ?layout ?policy ?recovery ?faults ?abft ?max_block_size
    ?blocking ?obs a =
  let h =
    build ?pool ?prec ?layout ?policy ?recovery ?faults ?abft ?max_block_size
      ?blocking ?obs a
  in
  Option.iter raise (rejection h.h_state h.h_state.s_outcome);
  h

let create ?pool ?prec ?layout ?policy ?recovery ?faults ?abft ?max_block_size
    ?blocking ?obs a =
  let h =
    handle ?pool ?prec ?layout ?policy ?recovery ?faults ?abft ?max_block_size
      ?blocking ?obs a
  in
  (h.h_precond, handle_info h)

let update ?(tol = 0.0) ?(force_all = false) h (a : Csr.t) =
  let st = h.h_state in
  let n, cols = Csr.dims a in
  if n <> cols || n <> st.s_n then
    invalid_arg "Block_ilu0.update: dimension mismatch";
  if not (a.Csr.row_ptr = st.s_row_ptr && a.Csr.col_idx = st.s_col_idx) then
    invalid_arg
      "Block_ilu0.update: sparsity pattern changed (build a new handle)";
  let starts = st.s_blk.Supervariable.starts
  and sizes = st.s_blk.Supervariable.sizes in
  let k = Array.length starts in
  let mask = Array.make k force_all in
  if not force_all then begin
    for i = 0 to k - 1 do
      let lo = st.s_row_ptr.(starts.(i)) in
      let hi = st.s_row_ptr.(starts.(i) + sizes.(i)) in
      mask.(i) <-
        st.s_pending.(i)
        || st.s_outcome.(i) = Block_jacobi.Corrupt
        || Block_jacobi.range_dirty ~tol st.s_values a.Csr.values lo hi
    done;
    (* Close over the lower DAG in level order: dependencies live in
       strictly earlier levels, so one pass settles the closure. *)
    Array.iter
      (fun rows ->
        Array.iter
          (fun i ->
            if not mask.(i) then
              mask.(i) <-
                Array.exists
                  (fun kb -> mask.(kb))
                  st.s_lower.Levels.deps.(i))
          rows)
      st.s_lower.Levels.level_sets
  end;
  let dirty = ref [] in
  for i = k - 1 downto 0 do
    if mask.(i) then dirty := i :: !dirty
  done;
  let nd = List.length !dirty in
  let launches, setup_transactions, modelled_seconds =
    if nd = 0 then (0, 0, 0.0)
    else begin
      fill_state st a mask;
      eliminate st mask
    end
  in
  (* Under a [Fail] policy the raise comes before the value snapshot
     advances, as in Block_jacobi, so a retry on the same matrix finds the
     same dirty rows and raises again.  The re-eliminated rows stay
     pending: whatever matrix comes next, they are eliminated again. *)
  Option.iter
    (fun e ->
      Array.iteri (fun j m -> if m then st.s_pending.(j) <- true) mask;
      raise e)
    (rejection st st.s_outcome);
  Array.fill st.s_pending 0 k false;
  Array.blit a.Csr.values 0 st.s_values 0 (Array.length st.s_values);
  let stats =
    {
      Block_jacobi.dirty_blocks = !dirty;
      refactored = nd;
      reused = k - nd;
      launches;
      setup_transactions;
      modelled_seconds;
    }
  in
  h.h_last <- stats;
  stats

let charge_pass ?obs h r =
  if Array.length r <> h.h_state.s_n then
    invalid_arg "Block_ilu0.charge_pass: dimension mismatch";
  let y, m = launch_waves ?obs h.h_state r in
  (y, Option.get m.m_published)

let precond h = h.h_precond
let last_update h = h.h_last

let handle_factors h =
  let st = h.h_state in
  Array.init (Array.length st.s_flu) (fun i ->
      (Matrix.copy st.s_flu.(i), Array.copy st.s_fpiv.(i)))

type ras_info = {
  subdomains : int;
  overlap : int;
  owned : (int * int) array;
  extended : (int * int) array;
  local_info : info array;
}

(* The principal submatrix on rows/columns [lo, hi), indices shifted. *)
let principal_submatrix (a : Csr.t) lo hi =
  let m = hi - lo in
  let row_ptr = Array.make (m + 1) 0 in
  let nnz = ref 0 in
  for r = lo to hi - 1 do
    for p = a.Csr.row_ptr.(r) to a.Csr.row_ptr.(r + 1) - 1 do
      let c = a.Csr.col_idx.(p) in
      if c >= lo && c < hi then incr nnz
    done;
    row_ptr.(r - lo + 1) <- !nnz
  done;
  let col_idx = Array.make !nnz 0 and values = Array.make !nnz 0.0 in
  let q = ref 0 in
  for r = lo to hi - 1 do
    for p = a.Csr.row_ptr.(r) to a.Csr.row_ptr.(r + 1) - 1 do
      let c = a.Csr.col_idx.(p) in
      if c >= lo && c < hi then begin
        col_idx.(!q) <- c - lo;
        values.(!q) <- a.Csr.values.(p);
        incr q
      end
    done
  done;
  Csr.create ~n_rows:m ~n_cols:m ~row_ptr ~col_idx ~values

let ras ?pool ?(prec = Precision.Double) ?(layout = Batch.Blocked)
    ?(policy = (Block_jacobi.Identity_block : Block_jacobi.breakdown_policy))
    ?recovery ?faults ?(abft = false) ?(max_block_size = 32) ?(subdomains = 4)
    ?(overlap = 8) ?obs (a : Csr.t) =
  let n, cols = Csr.dims a in
  if n <> cols then invalid_arg "Block_ilu0.ras: matrix not square";
  if subdomains < 1 then invalid_arg "Block_ilu0.ras: subdomains < 1";
  if overlap < 0 then invalid_arg "Block_ilu0.ras: negative overlap";
  let sd = max 1 (min subdomains n) in
  let owned = Array.init sd (fun d -> (d * n / sd, (d + 1) * n / sd)) in
  let extended =
    Array.map
      (fun (lo, hi) -> (max 0 (lo - overlap), min n (hi + overlap)))
      owned
  in
  let hs, setup_seconds =
    Preconditioner.timed (fun () ->
        Array.map
          (fun (elo, ehi) ->
            build ?pool ~prec ~layout ~policy ?recovery ?faults ~abft
              ~max_block_size ?obs (principal_submatrix a elo ehi))
          extended)
  in
  (* Blocks are numbered over the concatenated subdomain blockings, as
     [update_stats.dirty_blocks] numbers them over several handles. *)
  let outcomes = Array.to_list (Array.map (fun h -> h.h_state.s_outcome) hs) in
  Option.iter raise (rejection hs.(0).h_state (Array.concat outcomes));
  let locals = Array.map precond hs and infos = Array.map handle_info hs in
  let name = Printf.sprintf "ras-ilu0(%d,%d)" sd overlap in
  (* Restricted scatter: every subdomain solves on its extended range but
     writes only its owned rows — disjoint writes, so the result does not
     depend on the subdomain visit order. *)
  let apply r =
    if Array.length r <> n then
      invalid_arg "Block_ilu0.ras: dimension mismatch";
    let y = Array.make n 0.0 in
    Array.iteri
      (fun d (elo, ehi) ->
        let lr = Array.sub r elo (ehi - elo) in
        let ly = Preconditioner.apply locals.(d) lr in
        let lo, hi = owned.(d) in
        Array.blit ly (lo - elo) y lo (hi - lo))
      extended;
    y
  in
  let apply =
    if Ctx.enabled obs then fun r ->
      Ctx.with_span obs ~cat:"precond" "ras.apply" (fun () ->
          Ctx.incr obs "precond.ilu0.ras.apply.count" 1.0;
          apply r)
    else apply
  in
  ( { Preconditioner.name; dim = n; setup_seconds; apply },
    { subdomains = sd; overlap; owned; extended; local_info = infos } )
