(* Gauss-Jordan on the augmented system [A | I]: reduce the left half to
   the identity with partial pivoting; the right half becomes A⁻¹.  The
   batched kernel version works in place, but the augmented formulation is
   the clearest correct reference, and only the reference is used for
   numerics. *)

(* Rounded arithmetic inlined into this unit, bitwise equal to
   [Precision]'s: under [-opaque] a call into another unit boxes every
   float it passes or returns.  The reduction is an [@inline] body that
   [invert_status] instantiates once per precision, so in Double [round]
   folds away instead of testing the precision per element (DESIGN §5i). *)
module R = struct
  let[@inline] round p x =
    match p with
    | Precision.Double -> x
    | Single -> Int32.float_of_bits (Int32.bits_of_float x)

  let[@inline] div p a b = round p (a /. b)
  let[@inline] fma p a b c = round p ((a *. b) +. c)
end

(* Reduction of the augmented [n]-by-[2n] array [w], element (i,j) at
   [i + j*n]. *)
let[@inline] reduce_k prec w n =
  let info = ref 0 in
  (try
     for k = 0 to n - 1 do
       let piv = ref k in
       for i = k + 1 to n - 1 do
         if Float.abs w.(i + (k * n)) > Float.abs w.(!piv + (k * n)) then
           piv := i
       done;
       let d = w.(!piv + (k * n)) in
       if d = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       if !piv <> k then
         for j = 0 to (2 * n) - 1 do
           let tmp = w.(k + (j * n)) in
           w.(k + (j * n)) <- w.(!piv + (j * n));
           w.(!piv + (j * n)) <- tmp
         done;
       for j = 0 to (2 * n) - 1 do
         w.(k + (j * n)) <- R.div prec w.(k + (j * n)) d
       done;
       for i = 0 to n - 1 do
         if i <> k then begin
           let l = w.(i + (k * n)) in
           if l <> 0.0 then
             for j = 0 to (2 * n) - 1 do
               w.(i + (j * n)) <-
                 R.fma prec (-.l) w.(k + (j * n)) w.(i + (j * n))
             done
         end
       done
     done
   with Exit -> ());
  !info

let invert_status ?(prec = Precision.Double) m =
  let rows, cols = Matrix.dims m in
  if rows <> cols then invalid_arg "Gauss_jordan.invert: matrix not square";
  let n = rows in
  let w = Array.make (n * 2 * n) 0.0 in
  for j = 0 to n - 1 do
    for i = 0 to n - 1 do
      w.(i + (j * n)) <- m.Matrix.a.(i + (j * n));
      w.(i + ((n + j) * n)) <- (if i = j then 1.0 else 0.0)
    done
  done;
  let info =
    match prec with
    | Precision.Double -> (reduce_k [@inlined]) Precision.Double w n
    | Single -> (reduce_k [@inlined]) Precision.Single w n
  in
  (* On breakdown at step k the reduction freezes: columns 0..k-1 of the
     left half are already identity and the right half holds the partial
     transform — returned as-is, flagged by info = k + 1. *)
  (Matrix.init n n (fun i j -> w.(i + ((n + j) * n))), info)

let invert ?prec m =
  let inv, info = invert_status ?prec m in
  if info <> 0 then raise (Error.Singular (info - 1));
  inv

let solve ?(prec = Precision.Double) inv b = Matrix.gemv ~prec inv b
