let getrf n =
  let n = float_of_int n in
  (* mults+adds of the trailing updates, scalings, per-step divisions. *)
  ((2.0 /. 3.0) *. n *. n *. n) -. (n *. n /. 2.0) -. (n /. 6.0)

let trsv_lower_unit n =
  let n = float_of_int n in
  n *. (n -. 1.0)

let trsv_upper n =
  let n = float_of_int n in
  (n *. (n -. 1.0)) +. n

let trsv_pair n = trsv_lower_unit n +. trsv_upper n

let gauss_huard_factor = getrf

let gauss_huard_solve n =
  let n = float_of_int n in
  2.0 *. n *. n

let invert n =
  let n = float_of_int n in
  2.0 *. n *. n *. n

let gemv n =
  let n = float_of_int n in
  2.0 *. n *. n
