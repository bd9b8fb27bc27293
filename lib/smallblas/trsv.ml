(* Rounded arithmetic inlined into this unit, bitwise equal to
   [Precision]'s: under [-opaque] a call into another unit boxes every
   float it passes or returns.  Each sweep below is an [@inline] body that
   its entry point instantiates once per precision, so in Double [round]
   folds away instead of testing the precision per element (DESIGN §5i). *)
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

(* Batch-view solves for the direct-execution fast path: the unit-lower /
   upper pair over a column-major n-by-n factor block at [moff] and a
   solution segment at [boff], solved in place.  [mstride]/[bstride]
   (default 1) are the batches' element strides — 1 for the blocked
   layout, the cohort width for interleaved storage, where consecutive
   elements of one problem sit a stride apart: element (i,j) of the block
   is [m.(moff + mstride*(i + j*n))], element i of the segment
   [b.(boff + bstride*i)].  The op schedules replicate the batched warp
   kernels exactly — the eager (AXPY) form issues one FMA per column
   element, the lazy (DOT) form a rounded product per row element folded
   left-to-right — so results are bitwise identical. *)

(* The eager pair takes two columns per pass: each element below (lower
   sweep) or above (upper sweep) the pair gets column [k]'s update and
   then column [k+1]'s (upper: [k], then [k-1]) in one read-modify-write,
   so every element sees the one-column schedule's FMAs in the same order
   and the result is bitwise that schedule's.  In the lower sweep the
   pass at [k = n-2] has no element below its second column.  In the
   upper sweep, a zero diagonal freezes the state the one-column sweep
   leaves: at the pass's first column nothing of the pass is written
   ([info = k+1]); at its second column, the first column's step is
   finished for every row above it before [info = k] is returned. *)
let[@inline] pair_eager_k prec ms bs m moff n b boff =
  let k = ref 0 in
  while !k < n - 1 do
    let k0 = !k in
    let c0 = moff + (ms * (k0 * n)) in
    let c1 = c0 + (ms * n) in
    let x0 = b.(boff + (bs * k0)) in
    let j1 = boff + (bs * (k0 + 1)) in
    let x1 = R.fma prec (-.m.(c0 + (ms * (k0 + 1)))) x0 b.(j1) in
    b.(j1) <- x1;
    for i = k0 + 2 to n - 1 do
      let j = boff + (bs * i) in
      b.(j) <-
        R.fma prec (-.m.(c1 + (ms * i))) x1
          (R.fma prec (-.m.(c0 + (ms * i))) x0 b.(j))
    done;
    k := k0 + 2
  done;
  let info = ref 0 in
  k := n - 1;
  while !info = 0 && !k >= 0 do
    let k0 = !k in
    let c0 = moff + (ms * (k0 * n)) in
    let j0 = boff + (bs * k0) in
    let d0 = m.(c0 + (ms * k0)) in
    if d0 = 0.0 then info := k0 + 1
    else begin
      let x0 = R.div prec b.(j0) d0 in
      b.(j0) <- x0;
      if k0 > 0 then begin
        let c1 = c0 - (ms * n) and j1 = j0 - bs in
        let y1 = R.fma prec (-.m.(c0 + (ms * (k0 - 1)))) x0 b.(j1) in
        let d1 = m.(c1 + (ms * (k0 - 1))) in
        if d1 = 0.0 then begin
          b.(j1) <- y1;
          for i = 0 to k0 - 2 do
            let j = boff + (bs * i) in
            b.(j) <- R.fma prec (-.m.(c0 + (ms * i))) x0 b.(j)
          done;
          info := k0
        end
        else begin
          let x1 = R.div prec y1 d1 in
          b.(j1) <- x1;
          for i = 0 to k0 - 2 do
            let j = boff + (bs * i) in
            b.(j) <-
              R.fma prec (-.m.(c1 + (ms * i))) x1
                (R.fma prec (-.m.(c0 + (ms * i))) x0 b.(j))
          done
        end
      end;
      k := k0 - 2
    end
  done;
  !info

(* Four instances: per precision, and unit strides apart from the
   interleaved ones, so the blocked layout's index arithmetic has no
   stride multiply left. *)
let pair_eager prec mstride bstride m moff n b boff =
  match prec with
  | Precision.Double ->
    if mstride = 1 && bstride = 1 then
      (pair_eager_k [@inlined]) Precision.Double 1 1 m moff n b boff
    else
      (pair_eager_k [@inlined]) Precision.Double mstride bstride m moff n b
        boff
  | Single ->
    if mstride = 1 && bstride = 1 then
      (pair_eager_k [@inlined]) Precision.Single 1 1 m moff n b boff
    else
      (pair_eager_k [@inlined]) Precision.Single mstride bstride m moff n b
        boff

let pair_eager_view ?(prec = Precision.Double) ?(mstride = 1) ?(bstride = 1)
    ~m ~moff ~n ~b ~boff () =
  pair_eager prec mstride bstride m moff n b boff

let[@inline] pair_lazy_k prec mstride bstride m moff n b boff =
  for k = 1 to n - 1 do
    let acc = ref 0.0 in
    for j = 0 to k - 1 do
      acc :=
        R.add prec
          (R.mul prec
             m.(moff + (mstride * (k + (j * n))))
             b.(boff + (bstride * j)))
          !acc
    done;
    let bk = boff + (bstride * k) in
    b.(bk) <- R.sub prec b.(bk) !acc
  done;
  let info = ref 0 in
  (try
     for k = n - 1 downto 0 do
       let acc = ref 0.0 in
       for j = k + 1 to n - 1 do
         acc :=
           R.add prec
             (R.mul prec m.(moff + (mstride * (k + (j * n))))
                b.(boff + (bstride * j)))
             !acc
       done;
       let diag = m.(moff + (mstride * (k + (k * n)))) in
       if diag = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       let bk = boff + (bstride * k) in
       b.(bk) <- R.div prec (R.sub prec b.(bk) !acc) diag
     done
   with Exit -> ());
  !info

let pair_lazy_view ?(prec = Precision.Double) ?(mstride = 1) ?(bstride = 1)
    ~m ~moff ~n ~b ~boff () =
  match prec with
  | Precision.Double ->
    (pair_lazy_k [@inlined]) Precision.Double mstride bstride m moff n b boff
  | Single ->
    (pair_lazy_k [@inlined]) Precision.Single mstride bstride m moff n b boff

(* A written-out loop: [Array.map] with a float-returning closure would
   box every element. *)
let apply_perm perm b =
  let n = Array.length perm in
  if Array.length b <> n then
    invalid_arg "Trsv.apply_perm: dimension mismatch";
  let x = Array.make n 0.0 in
  for k = 0 to n - 1 do
    x.(k) <- b.(perm.(k))
  done;
  x

let solve_status ?(prec = Precision.Double) (lu : Matrix.t) perm b =
  let x = apply_perm perm b in
  if lu.rows <> lu.cols then invalid_arg "Trsv.solve: matrix not square";
  if Array.length x <> lu.rows then
    invalid_arg "Trsv.solve: dimension mismatch";
  let info = pair_eager prec 1 1 lu.a 0 lu.rows x 0 in
  (x, info)

let solve ?(prec = Precision.Double) lu perm b =
  let x, info = solve_status ~prec lu perm b in
  if info <> 0 then raise (Error.Singular (info - 1));
  x
