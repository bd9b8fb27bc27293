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

(* Implicit-pivoting elimination of the n-by-n block [w] (column-major,
   offset 0): the body of [factor_implicit_view], run on its gathered tile.
   [step.(r)] = elimination step at which row r was chosen as pivot (the
   paper's [p]); on return it is a total map from rows to packed rows. *)
let[@inline] implicit_k prec w step n =
  for r = 0 to n - 1 do
    step.(r) <- -1
  done;
  let info = ref 0 in
  (try
     for k = 0 to n - 1 do
       (* Pivot search restricted to rows not yet pivoted — in the kernel
          this is a predicated warp reduction over column k. *)
       let piv = ref (-1) in
       for r = 0 to n - 1 do
         if
           step.(r) < 0
           && (!piv < 0
              || Float.abs w.(r + (k * n)) > Float.abs w.(!piv + (k * n)))
         then piv := r
       done;
       let d = w.(!piv + (k * n)) in
       if d = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       step.(!piv) <- k;
       (* Every still-unpivoted row scales its k-th element and updates its
          trailing part against the pivot row — no data movement. *)
       for r = 0 to n - 1 do
         if step.(r) < 0 then begin
           let l = R.div prec w.(r + (k * n)) d in
           w.(r + (k * n)) <- l;
           for j = k + 1 to n - 1 do
             w.(r + (j * n)) <-
               R.fma prec (-.l) w.(!piv + (j * n)) w.(r + (j * n))
           done
         end
       done
     done
   with Exit -> ());
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
     [off + stride*e].  The gather packs the block contiguously so the
     elimination runs stride-free; only the copy edges are strided. *)
  if stride = 1 then Array.blit src off tile 0 (n * n)
  else
    for e = 0 to (n * n) - 1 do
      tile.(e) <- src.(off + (stride * e))
    done;
  let info =
    match prec with
    | Precision.Double -> (implicit_k [@inlined]) Precision.Double tile step n
    | Single -> (implicit_k [@inlined]) Precision.Single tile step n
  in
  for r = 0 to n - 1 do
    perm.(step.(r)) <- r
  done;
  (* Fused write-back permutation: row [r] lands in packed row [step.(r)]. *)
  for j = 0 to n - 1 do
    for r = 0 to n - 1 do
      dst.(off + (stride * (step.(r) + (j * n)))) <- tile.(r + (j * n))
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
