type factors = { lu : Matrix.t; perm : int array }

exception Singular = Error.Singular

(* Rounded arithmetic inlined into this unit, bitwise equal to
   [Precision]'s: under [-opaque] a call into another unit boxes every
   float it passes or returns.  Each loop nest below is an [@inline] body
   that its entry point instantiates once per precision, so in Double
   [round] folds away instead of testing the precision per element
   (DESIGN §5i). *)
module R = struct
  let[@inline] round p x =
    match p with
    | Precision.Double -> x
    | Single -> Int32.float_of_bits (Int32.bits_of_float x)

  let[@inline] div p a b = round p (a /. b)
  let[@inline] fma p a b c = round p ((a *. b) +. c)
end

let check_square m name =
  let rows, cols = Matrix.dims m in
  if rows <> cols then invalid_arg (name ^ ": matrix not square");
  rows

(* All [_status] factorizations share the breakdown ("freeze") contract:
   on the first zero pivot at (0-based) step [k] the elimination stops,
   [info = k + 1] is returned, and the factors hold the partial state as
   of that step — steps [0 .. k-1] fully applied, nothing after.  The
   batched kernels implement the same rule, so kernel and reference stay
   bit-for-bit identical even on singular blocks. *)

let[@inline] explicit_k prec wa perm n =
  let info = ref 0 in
  (try
     for k = 0 to n - 1 do
       (* Partial pivoting: largest magnitude in column k, rows k..n-1. *)
       let piv = ref k in
       for i = k + 1 to n - 1 do
         if Float.abs wa.(i + (k * n)) > Float.abs wa.(!piv + (k * n)) then
           piv := i
       done;
       if !piv <> k then begin
         for j = 0 to n - 1 do
           let tmp = wa.(k + (j * n)) in
           wa.(k + (j * n)) <- wa.(!piv + (j * n));
           wa.(!piv + (j * n)) <- tmp
         done;
         let tmp = perm.(k) in
         perm.(k) <- perm.(!piv);
         perm.(!piv) <- tmp
       end;
       let d = wa.(k + (k * n)) in
       if d = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       for i = k + 1 to n - 1 do
         wa.(i + (k * n)) <- R.div prec wa.(i + (k * n)) d
       done;
       for j = k + 1 to n - 1 do
         let ukj = wa.(k + (j * n)) in
         if ukj <> 0.0 then
           for i = k + 1 to n - 1 do
             wa.(i + (j * n)) <-
               R.fma prec (-.wa.(i + (k * n))) ukj wa.(i + (j * n))
           done
       done
     done
   with Exit -> ());
  !info

let factor_explicit_status ?(prec = Precision.Double) m =
  let n = check_square m "Lu.factor_explicit" in
  let w = Matrix.copy m in
  let wa = w.Matrix.a in
  let perm = Array.init n (fun i -> i) in
  let info =
    match prec with
    | Precision.Double -> (explicit_k [@inlined]) Precision.Double wa perm n
    | Single -> (explicit_k [@inlined]) Precision.Single wa perm n
  in
  ({ lu = w; perm }, info)

let factor_explicit ?prec m =
  let f, info = factor_explicit_status ?prec m in
  if info <> 0 then raise (Singular (info - 1));
  f

(* Index in [act.(0 .. na-1)] of the first row whose column-[col] entry has
   the largest magnitude: the strict [>] keeps the first maximum in row
   order, and a NaN neither wins nor loses a comparison, so ties and NaNs
   resolve as the kernel's predicated warp reduction does. *)
let[@inline] pivot_index w act na n col =
  let best = ref 0 and mag = ref (Float.abs w.((act.(0) * n) + col)) in
  for i = 1 to na - 1 do
    let m = Float.abs w.((act.(i) * n) + col) in
    if m > !mag then begin
      best := i;
      mag := m
    end
  done;
  !best

(* Drop entry [i] of the ascending list [act.(0 .. na-1)], keeping the
   order. *)
let[@inline] remove (act : int array) na i =
  for a = i to na - 2 do
    act.(a) <- act.(a + 1)
  done

(* Implicit-pivoting elimination of the n-by-n block [w] (row-major,
   offset 0): the body of [factor_implicit_view], run on its gathered tile.
   [step.(r)] = elimination step at which row r was chosen as pivot (the
   paper's [p]); on return it is a total map from rows to packed rows.
   [act] holds the rows not yet pivoted, ascending — the host form of the
   warp's predicated lanes.  Steps run in pairs (k, k+1): scale column k
   and update column k+1, pick pivot k+1, finish step k on that pivot
   row, then give every other row [fma(-l1, u1j, fma(-l0, u0j, w))] in
   one unit-stride pass.  Each element receives the one-step schedule's
   once-rounded ops in the same order, so the bits are that schedule's
   (DESIGN §5i). *)
let[@inline] implicit_k prec w step act n =
  for r = 0 to n - 1 do
    step.(r) <- -1;
    act.(r) <- r
  done;
  let info = ref 0 and na = ref n and k = ref 0 in
  while !info = 0 && !k < n do
    let k0 = !k in
    let i0 = pivot_index w act !na n k0 in
    let p0 = act.(i0) in
    let d0 = w.((p0 * n) + k0) in
    if d0 = 0.0 then info := k0 + 1
    else begin
      step.(p0) <- k0;
      remove act !na i0;
      decr na;
      let k1 = k0 + 1 and r0 = p0 * n in
      if k1 = n then k := n
      else begin
        (* Step k on columns k and k+1 only, so pivot k+1 can be picked. *)
        let u0 = w.(r0 + k1) in
        for a = 0 to !na - 1 do
          let ri = act.(a) * n in
          let l0 = R.div prec w.(ri + k0) d0 in
          w.(ri + k0) <- l0;
          w.(ri + k1) <- R.fma prec (-.l0) u0 w.(ri + k1)
        done;
        let i1 = pivot_index w act !na n k1 in
        let p1 = act.(i1) in
        let d1 = w.((p1 * n) + k1) in
        if d1 = 0.0 then begin
          (* Breakdown at k+1: finish step k everywhere, apply nothing of
             step k+1. *)
          for a = 0 to !na - 1 do
            let ri = act.(a) * n in
            let l0 = w.(ri + k0) in
            for j = k1 + 1 to n - 1 do
              w.(ri + j) <- R.fma prec (-.l0) w.(r0 + j) w.(ri + j)
            done
          done;
          info := k1 + 1
        end
        else begin
          step.(p1) <- k1;
          remove act !na i1;
          decr na;
          let r1 = p1 * n in
          let l0 = w.(r1 + k0) in
          for j = k1 + 1 to n - 1 do
            w.(r1 + j) <- R.fma prec (-.l0) w.(r0 + j) w.(r1 + j)
          done;
          for a = 0 to !na - 1 do
            let ri = act.(a) * n in
            let l0 = w.(ri + k0) in
            let l1 = R.div prec w.(ri + k1) d1 in
            w.(ri + k1) <- l1;
            for j = k1 + 1 to n - 1 do
              w.(ri + j) <-
                R.fma prec (-.l1) w.(r1 + j)
                  (R.fma prec (-.l0) w.(r0 + j) w.(ri + j))
            done
          done;
          k := k1 + 1
        end
      end
    end
  done;
  (* A breakdown at step k leaves rows unpivoted; they take the remaining
     steps k, k+1, ... in increasing row order so the fused write-back
     permutation stays total (and deterministic — the kernel applies the
     same rule). *)
  if !info <> 0 then begin
    let next = ref (!info - 1) in
    for r = 0 to n - 1 do
      if step.(r) < 0 then begin
        step.(r) <- !next;
        incr next
      end
    done
  end;
  !info

(* ------------------------------------------------------------------ *)
(* In-place batch-view factorizations for the direct-execution fast path
   ([Vblu_simt.Sampling.run]'s [?direct]) and, at offset 0 and unit
   stride, for the Matrix-level references below: a column-major n-by-n
   block living at [off] inside a batch value array — no [Matrix] wrapper,
   no allocation.  Each element sees the same once-rounded [Precision] op
   sequence as under the warp interpreter, so outputs are bitwise
   identical to a simulated execution. *)

let factor_implicit_view ?(prec = Precision.Double) ?(stride = 1) ~src ~dst
    ~off ~n ~tile ~step ~perm () =
  (* [stride] is the batch's element stride (1 = blocked, cohort width for
     interleaved layouts): element e of the block lives at
     [off + stride*e].  The gather transposes the column-major block into
     a row-major tile, so the elimination runs stride-free along rows;
     only the copy edges are strided.  [perm] is the active-row list's
     scratch until the pivot map overwrites it. *)
  for j = 0 to n - 1 do
    for r = 0 to n - 1 do
      tile.((r * n) + j) <- src.(off + (stride * (r + (j * n))))
    done
  done;
  let info =
    match prec with
    | Precision.Double -> (implicit_k [@inlined]) Precision.Double tile step perm n
    | Single -> (implicit_k [@inlined]) Precision.Single tile step perm n
  in
  for r = 0 to n - 1 do
    perm.(step.(r)) <- r
  done;
  (* Fused write-back permutation, transposing back to column-major: row
     [r] lands in packed row [step.(r)]. *)
  for j = 0 to n - 1 do
    for r = 0 to n - 1 do
      dst.(off + (stride * (step.(r) + (j * n)))) <- tile.((r * n) + j)
    done
  done;
  info

let[@inline] nopivot_view_k prec stride dst off n =
  let info = ref 0 in
  (try
     for k = 0 to n - 1 do
       let kk = off + (stride * (k + (k * n))) in
       let d = dst.(kk) in
       if d = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       for i = k + 1 to n - 1 do
         let ik = kk + (stride * (i - k)) in
         dst.(ik) <- R.div prec dst.(ik) d
       done;
       for j = k + 1 to n - 1 do
         (* No [ukj <> 0.0] skip here: the warp kernel issues the FMA
            unconditionally, and for non-finite multipliers the skipped and
            issued forms differ bitwise. *)
         let kj = off + (stride * (k + (j * n))) in
         let ukj = dst.(kj) in
         for i = k + 1 to n - 1 do
           let ij = kj + (stride * (i - k)) and ik = kk + (stride * (i - k)) in
           dst.(ij) <- R.fma prec (-.dst.(ik)) ukj dst.(ij)
         done
       done
     done
   with Exit -> ());
  !info

let factor_nopivot_view ?(prec = Precision.Double) ?(stride = 1) ~src ~dst ~off
    ~n () =
  if stride = 1 then Array.blit src off dst off (n * n)
  else
    for e = 0 to (n * n) - 1 do
      dst.(off + (stride * e)) <- src.(off + (stride * e))
    done;
  match prec with
  | Precision.Double ->
    (nopivot_view_k [@inlined]) Precision.Double stride dst off n
  | Single -> (nopivot_view_k [@inlined]) Precision.Single stride dst off n

(* The Matrix-level references are the views at offset 0 and unit
   stride, writing into a fresh matrix, so they compute the kernels' bits. *)
let factor_implicit_status ?prec m =
  let n = check_square m "Lu.factor_implicit" in
  let lu = Matrix.create n n and perm = Array.make n 0 in
  let info =
    factor_implicit_view ?prec ~src:m.Matrix.a ~dst:lu.Matrix.a ~off:0 ~n
      ~tile:(Array.create_float (n * n)) ~step:(Array.make n 0) ~perm ()
  in
  ({ lu; perm }, info)

let factor_implicit ?prec m =
  let f, info = factor_implicit_status ?prec m in
  if info <> 0 then raise (Singular (info - 1));
  f

let factor_nopivot ?prec m =
  let n = check_square m "Lu.factor_nopivot" in
  let lu = Matrix.create n n in
  match factor_nopivot_view ?prec ~src:m.Matrix.a ~dst:lu.Matrix.a ~off:0 ~n () with
  | 0 -> { lu; perm = Array.init n Fun.id }
  | info -> raise (Singular (info - 1))

let solve ?(prec = Precision.Double) f b =
  Trsv.solve ~prec f.lu f.perm b

let solve_status ?(prec = Precision.Double) f b =
  Trsv.solve_status ~prec f.lu f.perm b

let reconstruct { lu; _ } =
  let n, _ = Matrix.dims lu in
  let l =
    Matrix.init n n (fun i j ->
        if i > j then Matrix.unsafe_get lu i j else if i = j then 1.0 else 0.0)
  in
  let u = Matrix.init n n (fun i j -> if i <= j then Matrix.unsafe_get lu i j else 0.0) in
  Matrix.matmul l u
