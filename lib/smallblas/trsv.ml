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

(* A packed factor's stored entries, negated, by column in the order the
   eager pair visits them: lower column [k] (k = 0 .. n-2) is segment
   [k], upper column [k] (k = n-1 down to 1) is segment [2n-2-k], and
   segment [g] holds rows [idx.(ptr.(g)) ..] with values [nv.(ptr.(g))
   ..].  [order] is the [n] the entries were compressed for, 0 when the
   factor did not qualify; [w] is the solve's scratch. *)
type compressed = {
  mutable order : int;
  ptr : int array;
  idx : int array;
  nv : float array;
  diag : float array;
  w : float array;
}

let uncompressed =
  { order = 0; ptr = [||]; idx = [||]; nv = [||]; diag = [||]; w = [||] }

(* Each domain's scan buffers: a column's kept rows and negated values go
   here first, so one pass over the factor both decides and compresses. *)
let scan_key = Domain.DLS.new_key (fun () -> ref ([||], [||], [||]))

(* Entry (i, j) of an order-[n] factor is kept when it is nonzero, or in
   Single when it is the first FMA an element meets in the eager pair
   (column 0 of L for the rows below 0, U's (0, n-1) for row 0), whose
   rounding the element must see even when the term is zero.  Scans rows
   [lo .. hi-1] of column [j] into [idx]/[nv] from [!p] on, [first]
   telling whether they are such first terms, and counts the nonzeros. *)
let[@inline] keep_column first m n j lo hi idx nv p nnz =
  let base = j * n in
  for i = lo to hi - 1 do
    let v = m.(base + i) in
    if v <> 0.0 || first then begin
      if v <> 0.0 then incr nnz;
      idx.(!p) <- i;
      nv.(!p) <- -.v;
      incr p
    end
  done

let compress ?(prec = Precision.Double) c ~m ~n =
  let single = prec = Precision.Single and half = n * n / 2 in
  let zero_diag = ref false in
  for k = 0 to n - 1 do
    if m.(k + (k * n)) = 0.0 then zero_diag := true
  done;
  let buf = Domain.DLS.get scan_key in
  (let idx, _, _ = !buf in
   if Array.length idx < n * n then
     buf := (Array.make (n * n) 0, Array.make (n * n) 0.0, Array.make (2 * n) 0));
  let idx, nv, ends = !buf in
  (* The diagonal's [n] nonzeros, then each column until the factor
     cannot qualify; [ends] takes each segment's end. *)
  let nnz = ref n and p = ref 0 and k = ref 0 in
  while (not !zero_diag) && !k < n - 1 && !nnz <= half do
    keep_column (single && !k = 0) m n !k (!k + 1) n idx nv p nnz;
    ends.(!k) <- !p;
    incr k
  done;
  k := n - 1;
  while (not !zero_diag) && !k >= 1 && !nnz <= half do
    if single && !k = n - 1 then begin
      keep_column true m n !k 0 1 idx nv p nnz;
      keep_column false m n !k 1 !k idx nv p nnz
    end
    else keep_column false m n !k 0 !k idx nv p nnz;
    ends.((2 * n) - 2 - !k) <- !p;
    decr k
  done;
  if n < 2 || !zero_diag || !nnz > half then begin
    if c.order <> 0 then c.order <- 0;
    c
  end
  else begin
    let kept = !p in
    let c =
      if Array.length c.diag = n && Array.length c.idx >= kept then c
      else
        { order = 0; ptr = Array.make ((2 * n) - 1) 0;
          idx = Array.make kept 0; nv = Array.make kept 0.0;
          diag = Array.make n 0.0; w = Array.make n 0.0 }
    in
    Array.blit idx 0 c.idx 0 kept;
    Array.blit nv 0 c.nv 0 kept;
    Array.blit ends 0 c.ptr 1 ((2 * n) - 2);
    for k = 0 to n - 1 do
      c.diag.(k) <- m.(k + (k * n))
    done;
    c.order <- n;
    c
  end

(* The eager pair's per-element FMA sequence over the stored entries only,
   in the scratch [w]; written back to [b] only if every output is finite
   and nonzero (DESIGN §5i), else [false] with [b] untouched. *)
let[@inline] compressed_k prec bs c n b boff =
  let w = c.w and ptr = c.ptr and idx = c.idx and nv = c.nv in
  for i = 0 to n - 1 do
    w.(i) <- b.(boff + (bs * i))
  done;
  for k = 0 to n - 2 do
    let x = w.(k) in
    for p = ptr.(k) to ptr.(k + 1) - 1 do
      let i = idx.(p) in
      w.(i) <- R.fma prec nv.(p) x w.(i)
    done
  done;
  let ok = ref true in
  for k = n - 1 downto 0 do
    let x = R.div prec w.(k) c.diag.(k) in
    w.(k) <- x;
    if x -. x <> 0.0 || x = 0.0 then ok := false;
    if k > 0 then begin
      let g = (2 * n) - 2 - k in
      for p = ptr.(g) to ptr.(g + 1) - 1 do
        let i = idx.(p) in
        w.(i) <- R.fma prec nv.(p) x w.(i)
      done
    end
  done;
  if !ok then
    for i = 0 to n - 1 do
      b.(boff + (bs * i)) <- w.(i)
    done;
  !ok

let pair_compressed_view ?(prec = Precision.Double) ?(bstride = 1) ~c ~m ~n ~b
    ~boff () =
  let solved =
    c.order = n
    &&
    match prec with
    | Precision.Double ->
      if bstride = 1 then
        (compressed_k [@inlined]) Precision.Double 1 c n b boff
      else (compressed_k [@inlined]) Precision.Double bstride c n b boff
    | Single -> (compressed_k [@inlined]) Precision.Single bstride c n b boff
  in
  if solved then 0 else pair_eager prec 1 bstride m 0 n b boff

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
