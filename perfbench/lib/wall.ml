(* The benchmark's only clock: CLOCK_MONOTONIC wall time in nanoseconds.
   The processor-time fields of the library's results are never read (a
   test checks the sources). *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* [time f] runs [f] and returns its result with the wall seconds it took. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)
