open Vblu_smallblas

type t = { data : float array; prec : Precision.t }

(* [Precision.round] inlined into this unit, bitwise equal to it: under
   [-opaque] a call into another unit boxes every float it passes or
   returns.  [of_array] rounds only in Single, where [round] is called
   with a constant precision (DESIGN §5i). *)
module R = struct
  let[@inline] round p x =
    match p with
    | Precision.Double -> x
    | Single -> Int32.float_of_bits (Int32.bits_of_float x)
end

let create prec n = { data = Array.make n 0.0; prec }

let of_array prec a =
  let data = Array.copy a in
  (match prec with
  | Precision.Double -> ()
  | Single ->
    for i = 0 to Array.length data - 1 do
      data.(i) <- R.round Precision.Single data.(i)
    done);
  { data; prec }

let prec t = t.prec

let corrupt t i f = t.data.(i) <- f t.data.(i)

let to_array t = Array.copy t.data

let raw t = t.data
