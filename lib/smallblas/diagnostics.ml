let factor_residual a f =
  let pa = Matrix.permute_rows a f.Lu.perm in
  let lu = Lu.reconstruct f in
  let na = Matrix.norm_frobenius a in
  if na = 0.0 then Matrix.norm_frobenius (Matrix.sub pa lu)
  else Matrix.norm_frobenius (Matrix.sub pa lu) /. na

let solve_residual a x b =
  let ax = Matrix.gemv a x in
  let num = Vector.max_abs_diff ax b in
  let den =
    (Matrix.norm_inf a *. Vector.norm_inf x) +. Vector.norm_inf b
  in
  if den = 0.0 then num else num /. den

let growth_factor a f =
  let maxa = Matrix.max_abs a in
  if maxa = 0.0 then nan
  else begin
    let n, _ = Matrix.dims f.Lu.lu in
    let maxu = ref 0.0 in
    for j = 0 to n - 1 do
      for i = 0 to j do
        maxu := Float.max !maxu (Float.abs (Matrix.unsafe_get f.Lu.lu i j))
      done
    done;
    !maxu /. maxa
  end
