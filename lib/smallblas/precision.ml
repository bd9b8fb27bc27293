type t = Single | Double

let round p x =
  match p with
  | Double -> x
  | Single -> Int32.float_of_bits (Int32.bits_of_float x)

let eps = function
  | Single -> ldexp 1.0 (-24)
  | Double -> ldexp 1.0 (-53)

let bytes = function Single -> 4 | Double -> 8

let to_string = function Single -> "single" | Double -> "double"

let add p a b = round p (a +. b)
let sub p a b = round p (a -. b)
let mul p a b = round p (a *. b)
let div p a b = round p (a /. b)
let fma p a b c = round p ((a *. b) +. c)
