(* Gauss-Jordan on the augmented system [A | I]: reduce the left half to
   the identity with partial pivoting; the right half becomes A⁻¹.  The
   batched kernel version works in place, but the augmented formulation is
   the clearest correct reference, and only the reference is used for
   numerics. *)

(* Rounded arithmetic inlined into this unit, bitwise equal to
   [Precision]'s: under [-opaque] a call into another unit boxes every
   float it passes or returns (DESIGN §5i). *)
module R = struct
  let[@inline] round p x =
    match p with
    | Precision.Double -> x
    | Single -> Int32.float_of_bits (Int32.bits_of_float x)

  let[@inline] div p a b = round p (a /. b)
  let[@inline] fma p a b c = round p ((a *. b) +. c)
end

let invert_status ?(prec = Precision.Double) m =
  let rows, cols = Matrix.dims m in
  if rows <> cols then invalid_arg "Gauss_jordan.invert: matrix not square";
  let n = rows in
  let w = Array.make (n * 2 * n) 0.0 in
  let at i j = (j * n) + i in
  for j = 0 to n - 1 do
    for i = 0 to n - 1 do
      w.(at i j) <- m.Matrix.a.(i + (j * n));
      w.(at i (n + j)) <- (if i = j then 1.0 else 0.0)
    done
  done;
  let info = ref 0 in
  (try
     for k = 0 to n - 1 do
       let piv = ref k in
       for i = k + 1 to n - 1 do
         if Float.abs w.(at i k) > Float.abs w.(at !piv k) then piv := i
       done;
       let d = w.(at !piv k) in
       if d = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       if !piv <> k then
         for j = 0 to (2 * n) - 1 do
           let tmp = w.(at k j) in
           w.(at k j) <- w.(at !piv j);
           w.(at !piv j) <- tmp
         done;
       for j = 0 to (2 * n) - 1 do
         w.(at k j) <- R.div prec w.(at k j) d
       done;
       for i = 0 to n - 1 do
         if i <> k then begin
           let l = w.(at i k) in
           if l <> 0.0 then
             for j = 0 to (2 * n) - 1 do
               w.(at i j) <- R.fma prec (-.l) w.(at k j) w.(at i j)
             done
         end
       done
     done
   with Exit -> ());
  (* On breakdown at step k the reduction freezes: columns 0..k-1 of the
     left half are already identity and the right half holds the partial
     transform — returned as-is, flagged by info = k + 1. *)
  (Matrix.init n n (fun i j -> w.(at i (n + j))), !info)

let invert ?prec m =
  let inv, info = invert_status ?prec m in
  if info <> 0 then raise (Error.Singular (info - 1));
  inv

let solve ?(prec = Precision.Double) inv b = Matrix.gemv ~prec inv b
