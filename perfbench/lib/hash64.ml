(* FNV-1a over 64-bit words: the digests of generated inputs and of
   program outputs.  Floats are hashed by their bits, so two digests agree
   only on bitwise-identical data. *)

type t = { mutable h : int64 }

let create () = { h = 0xcbf29ce484222325L }
let prime = 0x100000001b3L

let int64 t w =
  (* One FNV round per byte of [w], least significant first. *)
  let h = ref t.h in
  for i = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical w (8 * i)) 0xffL in
    h := Int64.mul (Int64.logxor !h byte) prime
  done;
  t.h <- !h

let int t i = int64 t (Int64.of_int i)
let float t x = int64 t (Int64.bits_of_float x)
let floats t a = Array.iter (float t) a
let ints t a = Array.iter (int t) a
let hex t = Printf.sprintf "%016Lx" t.h
