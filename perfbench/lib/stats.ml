(* Order statistics and ratios shared by every workload. *)

(* Nearest-rank percentile: the smallest sample such that at least [p]
   percent of the samples are <= it.  [nan] on an empty array. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let s = Array.copy samples in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median samples = percentile samples 50.0

let mean samples =
  let n = Array.length samples in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 samples /. float_of_int n

let sum samples = Array.fold_left ( +. ) 0.0 samples

(* [ratio a b] is [a / b], or 0 when nothing was attempted — the form of
   every fraction metric ([failed_frac], [hit_frac], ...). *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let failed_frac ~failed ~attempted =
  if attempted < 1 then invalid_arg "Stats.failed_frac: attempted < 1";
  float_of_int failed /. float_of_int attempted

(* [cuts n ~segments] is the (lo, hi) bounds of [segments] consecutive
   equal slices of [n] samples, or the whole when [n < segments]. *)
let cuts n ~segments =
  if n < segments then [| (0, n) |]
  else Array.init segments (fun k -> (k * n / segments, (k + 1) * n / segments))
