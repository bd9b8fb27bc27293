type t = float array

let create n = Array.make n 0.0
let init = Array.init
let copy = Array.copy
let dim = Array.length
let fill x v = Array.fill x 0 (Array.length x) v

let blit ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Vector.blit: dimension mismatch";
  Array.blit src 0 dst 0 (Array.length src)

let default_state = lazy (Random.State.make [| 0x5eed; 0xba7c4 |])

let random ?state ?(lo = -1.0) ?(hi = 1.0) n =
  let st = match state with Some s -> s | None -> Lazy.force default_state in
  Array.init n (fun _ -> lo +. ((hi -. lo) *. Random.State.float st 1.0))

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
  let[@inline] fma p a b c = round p ((a *. b) +. c)
end

let dot ?(prec = Precision.Double) x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.dot: dimension mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := R.fma prec x.(i) y.(i) !acc
  done;
  !acc

let nrm2 ?(prec = Precision.Double) x = R.round prec (sqrt (dot ~prec x x))

let norm_inf x = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 x

let scal ?(prec = Precision.Double) alpha x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- R.mul prec alpha x.(i)
  done

let axpy ?(prec = Precision.Double) alpha x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.axpy: dimension mismatch";
  for i = 0 to Array.length x - 1 do
    y.(i) <- R.fma prec alpha x.(i) y.(i)
  done

let add ?(prec = Precision.Double) x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.add: dimension mismatch";
  let z = create (Array.length x) in
  for i = 0 to Array.length x - 1 do
    z.(i) <- R.add prec x.(i) y.(i)
  done;
  z

let sub ?(prec = Precision.Double) x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.sub: dimension mismatch";
  let z = create (Array.length x) in
  for i = 0 to Array.length x - 1 do
    z.(i) <- R.sub prec x.(i) y.(i)
  done;
  z

let map = Array.map

let max_abs_diff x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.max_abs_diff: dimension mismatch";
  let m = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    m := Float.max !m (Float.abs (x.(i) -. y.(i)))
  done;
  !m

let pp ppf x =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf v -> Format.fprintf ppf "%g" v))
    x
