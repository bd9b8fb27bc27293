type storage = Normal | Transposed

type factors = { gh : Matrix.t; cperm : int array; storage : storage }

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

(* Element accessor that hides the GH-T transposed layout. *)
let[@inline] fget f i j =
  let n = f.gh.Matrix.rows in
  match f.storage with
  | Normal -> f.gh.Matrix.a.(i + (j * n))
  | Transposed -> f.gh.Matrix.a.(j + (i * n))

let[@inline] factor_k prec wa cperm n =
  let info = ref 0 in
  (try
     for k = 0 to n - 1 do
       (* Lazy update of row k, columns k..n-1, against the processed rows. *)
       for j = k to n - 1 do
         let acc = ref wa.(k + (j * n)) in
         for i = 0 to k - 1 do
           acc := R.fma prec (-.wa.(k + (i * n))) wa.(i + (j * n)) !acc
         done;
         wa.(k + (j * n)) <- !acc
       done;
       (* Column pivoting: largest magnitude in row k, columns k..n-1. *)
       let piv = ref k in
       for j = k + 1 to n - 1 do
         if Float.abs wa.(k + (j * n)) > Float.abs wa.(k + (!piv * n)) then
           piv := j
       done;
       if !piv <> k then begin
         for i = 0 to n - 1 do
           let tmp = wa.(i + (k * n)) in
           wa.(i + (k * n)) <- wa.(i + (!piv * n));
           wa.(i + (!piv * n)) <- tmp
         done;
         let tmp = cperm.(k) in
         cperm.(k) <- cperm.(!piv);
         cperm.(!piv) <- tmp
       end;
       let d = wa.(k + (k * n)) in
       if d = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       (* Scale the trailing part of row k by the pivot. *)
       for j = k + 1 to n - 1 do
         wa.(k + (j * n)) <- R.div prec wa.(k + (j * n)) d
       done;
       (* Eager elimination of column k above the diagonal.  The multipliers
          w(i,k) stay in place: the solve needs them. *)
       for i = 0 to k - 1 do
         let l = wa.(i + (k * n)) in
         if l <> 0.0 then
           for j = k + 1 to n - 1 do
             wa.(i + (j * n)) <-
               R.fma prec (-.l) wa.(k + (j * n)) wa.(i + (j * n))
           done
       done
     done
   with Exit -> ());
  !info

let factor_status ?(prec = Precision.Double) ?(storage = Normal) m =
  let rows, cols = Matrix.dims m in
  if rows <> cols then invalid_arg "Gauss_huard.factor: matrix not square";
  let n = rows in
  let w = Matrix.copy m in
  let wa = w.Matrix.a in
  let cperm = Array.init n (fun j -> j) in
  let info =
    match prec with
    | Precision.Double -> (factor_k [@inlined]) Precision.Double wa cperm n
    | Single -> (factor_k [@inlined]) Precision.Single wa cperm n
  in
  (* On breakdown the elimination freezes after steps 0..k-1; the partial
     factors are still returned (frozen state, matching the kernel). *)
  let f =
    match storage with
    | Normal -> { gh = w; cperm; storage }
    | Transposed -> { gh = Matrix.transpose w; cperm; storage }
  in
  (f, info)

let factor ?prec ?storage m =
  let f, info = factor_status ?prec ?storage m in
  if info <> 0 then raise (Error.Singular (info - 1));
  f

let[@inline] solve_permuted_k prec f y n =
  let info = ref 0 in
  (try
     for k = 0 to n - 1 do
       (* DOT against the lower multipliers, then the pivot division ... *)
       let acc = ref y.(k) in
       for j = 0 to k - 1 do
         acc := R.fma prec (-.fget f k j) y.(j) !acc
       done;
       let d = fget f k k in
       if d = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       y.(k) <- R.div prec !acc d;
       (* ... then the eager AXPY against the upper multipliers. *)
       let yk = y.(k) in
       for i = 0 to k - 1 do
         y.(i) <- R.fma prec (-.fget f i k) yk y.(i)
       done
     done
   with Exit -> ());
  !info

let solve_permuted_status ?(prec = Precision.Double) f b =
  let n = Array.length f.cperm in
  if Array.length b <> n then invalid_arg "Gauss_huard.solve: dimension mismatch";
  let y = Array.copy b in
  let info =
    match prec with
    | Precision.Double -> (solve_permuted_k [@inlined]) Precision.Double f y n
    | Single -> (solve_permuted_k [@inlined]) Precision.Single f y n
  in
  (y, info)

let solve_status ?(prec = Precision.Double) f b =
  let y, info = solve_permuted_status ~prec f b in
  let x = Array.make (Array.length y) 0.0 in
  Array.iteri (fun j c -> x.(c) <- y.(j)) f.cperm;
  (x, info)

let solve ?(prec = Precision.Double) f b =
  fst (solve_status ~prec f b)
