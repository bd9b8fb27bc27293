exception Not_positive_definite of int

type factors = { l : Matrix.t }

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
  let[@inline] div p a b = round p (a /. b)
  let[@inline] fma p a b c = round p ((a *. b) +. c)
end

(* Batch-view factor/solve for the direct-execution fast path, over the
   column-major block layout of Vblu_core.Batch: element (i,j) of a block
   sits at [off + stride*(i + j*n)], element i of a segment at
   [boff + bstride*i].  Both replicate the batched warp kernels
   op-for-op: the factor is right-looking on the lower triangle with no
   [ljk <> 0.0] skip (the kernel issues its FMAs unconditionally), the
   solve pairs an eager forward sweep with a DOT backward sweep whose
   products are rounded individually and folded left-to-right. *)

let[@inline] factor_view_k prec stride src dst off n =
  for j = 0 to n - 1 do
    for i = j to n - 1 do
      let ij = off + (stride * (i + (j * n))) in
      dst.(ij) <- src.(ij)
    done
  done;
  let info = ref 0 in
  (try
     for k = 0 to n - 1 do
       let kk = off + (stride * (k + (k * n))) in
       let dkk = dst.(kk) in
       if not (dkk > 0.0) then begin
         info := k + 1;
         raise Exit
       end;
       let lkk = R.round prec (sqrt dkk) in
       dst.(kk) <- lkk;
       for i = k + 1 to n - 1 do
         let ik = kk + (stride * (i - k)) in
         dst.(ik) <- R.div prec dst.(ik) lkk
       done;
       for j = k + 1 to n - 1 do
         let ljk = dst.(kk + (stride * (j - k))) in
         for i = j to n - 1 do
           let ij = off + (stride * (i + (j * n))) in
           dst.(ij) <- R.fma prec (-.dst.(kk + (stride * (i - k)))) ljk dst.(ij)
         done
       done
     done
   with Exit -> ());
  !info

let factor_view ?(prec = Precision.Double) ?(stride = 1) ~src ~dst ~off ~n () =
  match prec with
  | Precision.Double ->
    (factor_view_k [@inlined]) Precision.Double stride src dst off n
  | Single -> (factor_view_k [@inlined]) Precision.Single stride src dst off n

let[@inline] solve_view_k prec mstride bstride m moff n b boff =
  let info = ref 0 in
  (try
     for k = 0 to n - 1 do
       let kk = moff + (mstride * (k + (k * n))) in
       let d = m.(kk) in
       if d = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       let bk = boff + (bstride * k) in
       b.(bk) <- R.div prec b.(bk) d;
       let bk = b.(bk) in
       for i = k + 1 to n - 1 do
         let bi = boff + (bstride * i) in
         b.(bi) <- R.fma prec (-.m.(kk + (mstride * (i - k)))) bk b.(bi)
       done
     done;
     (* Backward sweep with Lᵀ: the forward sweep has already certified
        every diagonal entry nonzero, so no further check. *)
     for k = n - 1 downto 0 do
       let kk = moff + (mstride * (k + (k * n))) in
       let acc = ref 0.0 in
       for i = k + 1 to n - 1 do
         acc :=
           R.add prec
             (R.mul prec m.(kk + (mstride * (i - k))) b.(boff + (bstride * i)))
             !acc
       done;
       let bk = boff + (bstride * k) in
       b.(bk) <- R.div prec (R.sub prec b.(bk) !acc) m.(kk)
     done
   with Exit -> ());
  !info

let solve_view ?(prec = Precision.Double) ?(mstride = 1) ?(bstride = 1) ~m
    ~moff ~n ~b ~boff () =
  match prec with
  | Precision.Double ->
    (solve_view_k [@inlined]) Precision.Double mstride bstride m moff n b boff
  | Single ->
    (solve_view_k [@inlined]) Precision.Single mstride bstride m moff n b boff

(* The Matrix-level references are the batch views at offset 0 and unit
   stride, so they compute the kernels' bits: [factor_status] factors into
   a fresh matrix whose strict upper triangle stays zero. *)
let factor_status ?prec m =
  let rows, cols = Matrix.dims m in
  if rows <> cols then invalid_arg "Cholesky.factor: matrix not square";
  let l = Matrix.create rows rows in
  let info =
    factor_view ?prec ~src:m.Matrix.a ~dst:l.Matrix.a ~off:0 ~n:rows ()
  in
  ({ l }, info)

let factor ?prec m =
  let f, info = factor_status ?prec m in
  if info <> 0 then raise (Not_positive_definite (info - 1));
  f

(* [f], not a [{ l }] pattern: a destructured parameter after [?prec]
   splits the function in two, and the first half allocates a closure per
   call. *)
let solve_in_place ?prec f x =
  let n = f.l.Matrix.rows in
  if Array.length x <> n then invalid_arg "Cholesky.solve: dimension mismatch";
  ignore (solve_view ?prec ~m:f.l.Matrix.a ~moff:0 ~n ~b:x ~boff:0 () : int)

let solve ?prec f b =
  let x = Array.copy b in
  solve_in_place ?prec f x;
  x

let flops n =
  let n = float_of_int n in
  (n *. n *. n /. 3.0) +. (n *. n /. 2.0)
