type t = { rows : int; cols : int; a : float array }

let create m n =
  if m < 0 || n < 0 then invalid_arg "Matrix.create: negative dimension";
  { rows = m; cols = n; a = Array.make (m * n) 0.0 }

let init m n f =
  let t = create m n in
  for j = 0 to n - 1 do
    for i = 0 to m - 1 do
      t.a.(i + (j * m)) <- f i j
    done
  done;
  t

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_rows rows =
  let m = Array.length rows in
  if m = 0 then invalid_arg "Matrix.of_rows: empty";
  let n = Array.length rows.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> n then invalid_arg "Matrix.of_rows: ragged rows")
    rows;
  init m n (fun i j -> rows.(i).(j))

let copy t = { t with a = Array.copy t.a }

let dims t = (t.rows, t.cols)

let get t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg "Matrix.get: out of bounds";
  t.a.(i + (j * t.rows))

let set t i j v =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg "Matrix.set: out of bounds";
  t.a.(i + (j * t.rows)) <- v

let unsafe_get t i j = Array.unsafe_get t.a (i + (j * t.rows))
let unsafe_set t i j v = Array.unsafe_set t.a (i + (j * t.rows)) v

let transpose t = init t.cols t.rows (fun i j -> t.a.(j + (i * t.rows)))

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

  let[@inline] add p a b = round p (a +. b)
  let[@inline] sub p a b = round p (a -. b)
  let[@inline] mul p a b = round p (a *. b)
  let[@inline] fma p a b c = round p ((a *. b) +. c)
end

let[@inline] scale_k prec alpha a =
  for k = 0 to Array.length a - 1 do
    a.(k) <- R.mul prec alpha a.(k)
  done

let scale ?(prec = Precision.Double) alpha t =
  let a = Array.copy t.a in
  (match prec with
  | Precision.Double -> (scale_k [@inlined]) Precision.Double alpha a
  | Single -> (scale_k [@inlined]) Precision.Single alpha a);
  { t with a }

let same_shape op x y =
  if x.rows <> y.rows || x.cols <> y.cols then
    invalid_arg (Printf.sprintf "Matrix.%s: shape mismatch" op)

(* [a.(k) <- a.(k) ± b.(k)], rounded; [sub] is a constant at each
   instantiation. *)
let[@inline] add_sub_k prec ~sub a b =
  for k = 0 to Array.length a - 1 do
    a.(k) <- (if sub then R.sub prec a.(k) b.(k) else R.add prec a.(k) b.(k))
  done

let add ?(prec = Precision.Double) x y =
  same_shape "add" x y;
  let a = Array.copy x.a in
  (match prec with
  | Precision.Double -> (add_sub_k [@inlined]) Precision.Double ~sub:false a y.a
  | Single -> (add_sub_k [@inlined]) Precision.Single ~sub:false a y.a);
  { x with a }

let sub ?(prec = Precision.Double) x y =
  same_shape "sub" x y;
  let a = Array.copy x.a in
  (match prec with
  | Precision.Double -> (add_sub_k [@inlined]) Precision.Double ~sub:true a y.a
  | Single -> (add_sub_k [@inlined]) Precision.Single ~sub:true a y.a);
  { x with a }

let[@inline] matmul_k prec x y z =
  for j = 0 to y.cols - 1 do
    for k = 0 to x.cols - 1 do
      let ykj = y.a.(k + (j * y.rows)) in
      if ykj <> 0.0 then
        for i = 0 to x.rows - 1 do
          z.a.(i + (j * z.rows)) <-
            R.fma prec x.a.(i + (k * x.rows)) ykj z.a.(i + (j * z.rows))
        done
    done
  done

let matmul ?(prec = Precision.Double) x y =
  if x.cols <> y.rows then invalid_arg "Matrix.matmul: inner dimension mismatch";
  let z = create x.rows y.cols in
  (match prec with
  | Precision.Double -> (matmul_k [@inlined]) Precision.Double x y z
  | Single -> (matmul_k [@inlined]) Precision.Single x y z);
  z

(* Column-order FMA accumulation into a caller buffer — shared by [gemv]
   and the allocation-free [gemv_into] so both fold identically. *)
let[@inline] gemv_acc_k prec t x y =
  for j = 0 to t.cols - 1 do
    let xj = x.(j) in
    if xj <> 0.0 then
      for i = 0 to t.rows - 1 do
        y.(i) <- R.fma prec t.a.(i + (j * t.rows)) xj y.(i)
      done
  done

let gemv_acc prec t x y =
  match prec with
  | Precision.Double -> (gemv_acc_k [@inlined]) Precision.Double t x y
  | Single -> (gemv_acc_k [@inlined]) Precision.Single t x y

let gemv_into ?(prec = Precision.Double) t x y =
  if Array.length x <> t.cols || Array.length y <> t.rows then
    invalid_arg "Matrix.gemv_into: dimension mismatch";
  Array.fill y 0 t.rows 0.0;
  gemv_acc prec t x y

let[@inline] gemv_trans_k prec t x y =
  for j = 0 to t.cols - 1 do
    let acc = ref 0.0 in
    for i = 0 to t.rows - 1 do
      acc := R.fma prec t.a.(i + (j * t.rows)) x.(i) !acc
    done;
    y.(j) <- !acc
  done

let gemv ?(prec = Precision.Double) ?(trans = false) t x =
  if trans then begin
    if Array.length x <> t.rows then invalid_arg "Matrix.gemv: dimension mismatch";
    let y = Array.make t.cols 0.0 in
    (match prec with
    | Precision.Double -> (gemv_trans_k [@inlined]) Precision.Double t x y
    | Single -> (gemv_trans_k [@inlined]) Precision.Single t x y);
    y
  end
  else begin
    if Array.length x <> t.cols then invalid_arg "Matrix.gemv: dimension mismatch";
    let y = Array.make t.rows 0.0 in
    gemv_acc prec t x y;
    y
  end

(* Batch-view GEMM for the direct-execution fast path: the scaled product
   [alpha·A·B (+ beta·C)] of column-major n-by-n blocks all living at the
   same element offset of their batch value arrays (the layout
   Vblu_core.Batched_gemm enforces); element (i,j) of a block sits at
   [off + stride*(i + j*n)].  Element (i,j) accumulates its k-loop
   with the same once-rounded FMA sequence the warp kernel issues per
   column, then one rounded scale and an optional rounded [beta·C] FMA —
   bitwise identical to a simulated execution.  Four rows run side by
   side, each element keeping its own chain in order: the chains are
   independent, so their adds overlap instead of each waiting on the
   last. *)
let[@inline] gemm_put prec alpha beta c dst ij acc =
  let v = R.mul prec acc alpha in
  dst.(ij) <- (match c with None -> v | Some c -> R.fma prec c.(ij) beta v)

let[@inline] gemm_col_k prec stride alpha beta c a b dst off n =
  let n4 = n - (n mod 4) in
  for j = 0 to n - 1 do
    let cj = off + (stride * j * n) in
    for q = 0 to (n4 / 4) - 1 do
      let i = 4 * q in
      let acc0 = ref 0.0 and acc1 = ref 0.0 in
      let acc2 = ref 0.0 and acc3 = ref 0.0 in
      for k = 0 to n - 1 do
        let bkj = b.(cj + (stride * k)) and ik = off + (stride * (i + (k * n))) in
        acc0 := R.fma prec a.(ik) bkj !acc0;
        acc1 := R.fma prec a.(ik + stride) bkj !acc1;
        acc2 := R.fma prec a.(ik + (2 * stride)) bkj !acc2;
        acc3 := R.fma prec a.(ik + (3 * stride)) bkj !acc3
      done;
      let ij = cj + (stride * i) in
      gemm_put prec alpha beta c dst ij !acc0;
      gemm_put prec alpha beta c dst (ij + stride) !acc1;
      gemm_put prec alpha beta c dst (ij + (2 * stride)) !acc2;
      gemm_put prec alpha beta c dst (ij + (3 * stride)) !acc3
    done;
    for i = n4 to n - 1 do
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc :=
          R.fma prec
            a.(off + (stride * (i + (k * n))))
            b.(cj + (stride * k))
            !acc
      done;
      gemm_put prec alpha beta c dst (cj + (stride * i)) !acc
    done
  done

let gemm_col_view ?(prec = Precision.Double) ?(stride = 1) ~alpha ~beta ?c ~a
    ~b ~dst ~off ~n () =
  match prec with
  | Precision.Double ->
    (gemm_col_k [@inlined]) Precision.Double stride alpha beta c a b dst off n
  | Single ->
    (gemm_col_k [@inlined]) Precision.Single stride alpha beta c a b dst off n

let is_permutation perm n =
  Array.length perm = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun p ->
      p >= 0 && p < n && not seen.(p)
      &&
      (seen.(p) <- true;
       true))
    perm

let permute_rows t perm =
  if not (is_permutation perm t.rows) then
    invalid_arg "Matrix.permute_rows: not a permutation";
  let z = create t.rows t.cols in
  for j = 0 to t.cols - 1 do
    for i = 0 to t.rows - 1 do
      z.a.(i + (j * t.rows)) <- t.a.(perm.(i) + (j * t.rows))
    done
  done;
  z

let random ~state:st ?(lo = -1.0) ?(hi = 1.0) m n =
  init m n (fun _ _ -> lo +. ((hi -. lo) *. Random.State.float st 1.0))

let random_diagdom ~state:st n =
  let t = random ~state:st n n in
  for i = 0 to n - 1 do
    let rowsum = ref 0.0 in
    for j = 0 to n - 1 do
      if j <> i then rowsum := !rowsum +. Float.abs t.a.(i + (j * n))
    done;
    let sign = if Random.State.bool st then 1.0 else -1.0 in
    t.a.(i + (i * n)) <- sign *. (!rowsum +. 1.0 +. Random.State.float st 1.0)
  done;
  t

(* Gaussian elimination with partial pivoting used only to reject
   (near-)singular samples in [random_general]; the real factorization
   routines live in [Lu]. *)
let well_pivoted t =
  let n = t.rows in
  let w = Array.copy t.a in
  let ok = ref true in
  (try
     for k = 0 to n - 1 do
       let piv = ref k in
       for i = k + 1 to n - 1 do
         if Float.abs w.(i + (k * n)) > Float.abs w.(!piv + (k * n)) then piv := i
       done;
       if Float.abs w.(!piv + (k * n)) < 1e-6 then begin
         ok := false;
         raise Exit
       end;
       if !piv <> k then
         for j = 0 to n - 1 do
           let tmp = w.(k + (j * n)) in
           w.(k + (j * n)) <- w.(!piv + (j * n));
           w.(!piv + (j * n)) <- tmp
         done;
       for i = k + 1 to n - 1 do
         let l = w.(i + (k * n)) /. w.(k + (k * n)) in
         for j = k + 1 to n - 1 do
           w.(i + (j * n)) <- w.(i + (j * n)) -. (l *. w.(k + (j * n)))
         done
       done
     done
   with Exit -> ());
  !ok

let random_general ~state:st n =
  let rec draw () =
    let t = random ~state:st n n in
    if well_pivoted t then t else draw ()
  in
  draw ()

let norm_frobenius t =
  sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 t.a)

let norm_inf t =
  let m = ref 0.0 in
  for i = 0 to t.rows - 1 do
    let s = ref 0.0 in
    for j = 0 to t.cols - 1 do
      s := !s +. Float.abs t.a.(i + (j * t.rows))
    done;
    m := Float.max !m !s
  done;
  !m

let max_abs t = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 t.a

let max_abs_diff x y =
  same_shape "max_abs_diff" x y;
  let m = ref 0.0 in
  for k = 0 to Array.length x.a - 1 do
    m := Float.max !m (Float.abs (x.a.(k) -. y.a.(k)))
  done;
  !m
