open Vblu_smallblas

type t = { data : float array; prec : Precision.t }

let create prec n = { data = Array.make n 0.0; prec }

(* A Double buffer is the host array itself.  The Single rounding is
   [Precision.round Single] inlined, bitwise equal to it: under [-opaque] a
   call into another unit boxes every float it passes or returns. *)
let of_array prec a =
  match prec with
  | Precision.Double -> { data = a; prec }
  | Single ->
    let data = Array.copy a in
    for i = 0 to Array.length data - 1 do
      data.(i) <- Int32.float_of_bits (Int32.bits_of_float data.(i))
    done;
    { data; prec }

let prec t = t.prec

let corrupt t i f = t.data.(i) <- f t.data.(i)

let raw t = t.data
