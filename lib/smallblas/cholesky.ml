exception Not_positive_definite of int

type factors = { l : Matrix.t }

(* Rounded arithmetic inlined into this unit, bitwise equal to
   [Precision]'s: under [-opaque] a call into another unit boxes every
   float it passes or returns (DESIGN §5i). *)
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

let factor_status ?(prec = Precision.Double) m =
  let rows, cols = Matrix.dims m in
  if rows <> cols then invalid_arg "Cholesky.factor: matrix not square";
  let n = rows in
  (* Work on a lower-triangular copy; the strict upper part is ignored. *)
  let w = Matrix.create n n in
  let wa = w.Matrix.a in
  for j = 0 to n - 1 do
    for i = j to n - 1 do
      wa.(i + (j * n)) <- m.Matrix.a.(i + (j * n))
    done
  done;
  let info = ref 0 in
  (try
     for k = 0 to n - 1 do
       let d = wa.(k + (k * n)) in
       if not (d > 0.0) then begin
         (* Non-positive (or NaN) diagonal: the matrix is not positive
            definite.  Freeze after steps 0..k-1, flag info = k + 1. *)
         info := k + 1;
         raise Exit
       end;
       let dk = R.round prec (sqrt d) in
       wa.(k + (k * n)) <- dk;
       for i = k + 1 to n - 1 do
         wa.(i + (k * n)) <- R.div prec wa.(i + (k * n)) dk
       done;
       (* Right-looking trailing update of the lower triangle. *)
       for j = k + 1 to n - 1 do
         let ljk = wa.(j + (k * n)) in
         if ljk <> 0.0 then
           for i = j to n - 1 do
             wa.(i + (j * n)) <-
               R.fma prec (-.wa.(i + (k * n))) ljk wa.(i + (j * n))
           done
       done
     done
   with Exit -> ());
  ({ l = w }, !info)

let factor ?prec m =
  let f, info = factor_status ?prec m in
  if info <> 0 then raise (Not_positive_definite (info - 1));
  f

let solve_in_place ?(prec = Precision.Double) { l } x =
  let n = l.Matrix.rows and la = l.Matrix.a in
  if Array.length x <> n then invalid_arg "Cholesky.solve: dimension mismatch";
  (* Forward: L y = b (non-unit diagonal, eager). *)
  for k = 0 to n - 1 do
    x.(k) <- R.div prec x.(k) la.(k + (k * n));
    let xk = x.(k) in
    for i = k + 1 to n - 1 do
      x.(i) <- R.fma prec (-.la.(i + (k * n))) xk x.(i)
    done
  done;
  (* Backward: Lᵀ x = y — reading columns of L as rows of Lᵀ. *)
  for k = n - 1 downto 0 do
    let acc = ref x.(k) in
    for i = k + 1 to n - 1 do
      acc := R.fma prec (-.la.(i + (k * n))) x.(i) !acc
    done;
    x.(k) <- R.div prec !acc la.(k + (k * n))
  done

let solve ?prec f b =
  let x = Array.copy b in
  solve_in_place ?prec f x;
  x

(* Batch-view factor/solve for the direct-execution fast path, over the
   column-major block layout of Vblu_core.Batch.  Both replicate the
   batched warp kernels op-for-op: the factor is right-looking on the lower
   triangle with no [ljk <> 0.0] skip (the kernel issues its FMAs
   unconditionally), the solve pairs an eager forward sweep with a DOT
   backward sweep whose products are rounded individually and folded
   left-to-right. *)

let factor_view ?(prec = Precision.Double) ?(stride = 1) ~src ~dst ~off ~n () =
  let at i j = off + (stride * (i + (j * n))) in
  for j = 0 to n - 1 do
    for i = j to n - 1 do
      dst.(at i j) <- src.(at i j)
    done
  done;
  let info = ref 0 in
  (try
     for k = 0 to n - 1 do
       let dkk = dst.(at k k) in
       if not (dkk > 0.0) then begin
         info := k + 1;
         raise Exit
       end;
       let lkk = R.round prec (sqrt dkk) in
       dst.(at k k) <- lkk;
       for i = k + 1 to n - 1 do
         dst.(at i k) <- R.div prec dst.(at i k) lkk
       done;
       for j = k + 1 to n - 1 do
         let ljk = dst.(at j k) in
         for i = j to n - 1 do
           dst.(at i j) <-
             R.fma prec (-.dst.(at i k)) ljk dst.(at i j)
         done
       done
     done
   with Exit -> ());
  !info

let solve_view ?(prec = Precision.Double) ?(mstride = 1) ?(bstride = 1) ~m
    ~moff ~n ~b ~boff () =
  let mat i j = moff + (mstride * (i + (j * n))) in
  let bat i = boff + (bstride * i) in
  let info = ref 0 in
  (try
     for k = 0 to n - 1 do
       let d = m.(mat k k) in
       if d = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       b.(bat k) <- R.div prec b.(bat k) d;
       let bk = b.(bat k) in
       for i = k + 1 to n - 1 do
         b.(bat i) <- R.fma prec (-.m.(mat i k)) bk b.(bat i)
       done
     done;
     (* Backward sweep with Lᵀ: the forward sweep has already certified
        every diagonal entry nonzero, so no further check. *)
     for k = n - 1 downto 0 do
       let acc = ref 0.0 in
       for i = k + 1 to n - 1 do
         acc := R.add prec (R.mul prec m.(mat i k) b.(bat i)) !acc
       done;
       b.(bat k) <-
         R.div prec (R.sub prec b.(bat k) !acc) m.(mat k k)
     done
   with Exit -> ());
  !info

let flops n =
  let n = float_of_int n in
  (n *. n *. n /. 3.0) +. (n *. n /. 2.0)
