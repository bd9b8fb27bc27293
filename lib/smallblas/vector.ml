type t = float array

let create n = Array.make n 0.0
let copy = Array.copy
let fill x v = Array.fill x 0 (Array.length x) v

let blit ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Vector.blit: dimension mismatch";
  Array.blit src 0 dst 0 (Array.length src)

let random ~state:st ?(lo = -1.0) ?(hi = 1.0) n =
  Array.init n (fun _ -> lo +. ((hi -. lo) *. Random.State.float st 1.0))

(* Rounded arithmetic inlined into this unit, bitwise equal to
   [Precision]'s: under [-opaque] a call into another unit boxes every
   float it passes or returns.  Each loop below is an [@inline] body that
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
  let[@inline] fma p a b c = round p ((a *. b) +. c)
end

let[@inline] dot_k prec x y =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := R.fma prec x.(i) y.(i) !acc
  done;
  !acc

let dot ?(prec = Precision.Double) x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.dot: dimension mismatch";
  match prec with
  | Precision.Double -> (dot_k [@inlined]) Precision.Double x y
  | Single -> (dot_k [@inlined]) Precision.Single x y

let[@inline] nrm2_k prec x = R.round prec (sqrt ((dot_k [@inlined]) prec x x))

let nrm2 ?(prec = Precision.Double) x =
  match prec with
  | Precision.Double -> (nrm2_k [@inlined]) Precision.Double x
  | Single -> (nrm2_k [@inlined]) Precision.Single x

let norm_inf x = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 x

let[@inline] scal_k prec alpha x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- R.mul prec alpha x.(i)
  done

let scal ?(prec = Precision.Double) alpha x =
  match prec with
  | Precision.Double -> (scal_k [@inlined]) Precision.Double alpha x
  | Single -> (scal_k [@inlined]) Precision.Single alpha x

let[@inline] axpy_k prec alpha x y =
  for i = 0 to Array.length x - 1 do
    y.(i) <- R.fma prec alpha x.(i) y.(i)
  done

let axpy ?(prec = Precision.Double) alpha x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.axpy: dimension mismatch";
  match prec with
  | Precision.Double -> (axpy_k [@inlined]) Precision.Double alpha x y
  | Single -> (axpy_k [@inlined]) Precision.Single alpha x y

(* [z.(i) <- x.(i) ± y.(i)], rounded; [sub] is a constant at each
   instantiation. *)
let[@inline] add_sub_k prec ~sub x y z =
  for i = 0 to Array.length x - 1 do
    z.(i) <- (if sub then R.sub prec x.(i) y.(i) else R.add prec x.(i) y.(i))
  done

let add ?(prec = Precision.Double) x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.add: dimension mismatch";
  let z = create (Array.length x) in
  (match prec with
  | Precision.Double -> (add_sub_k [@inlined]) Precision.Double ~sub:false x y z
  | Single -> (add_sub_k [@inlined]) Precision.Single ~sub:false x y z);
  z

let sub ?(prec = Precision.Double) x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.sub: dimension mismatch";
  let z = create (Array.length x) in
  (match prec with
  | Precision.Double -> (add_sub_k [@inlined]) Precision.Double ~sub:true x y z
  | Single -> (add_sub_k [@inlined]) Precision.Single ~sub:true x y z);
  z

let max_abs_diff x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.max_abs_diff: dimension mismatch";
  let m = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    m := Float.max !m (Float.abs (x.(i) -. y.(i)))
  done;
  !m
