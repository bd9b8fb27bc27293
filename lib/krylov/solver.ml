type config = { max_iters : int; rtol : float }

let default_config = { max_iters = 10_000; rtol = 1e-6 }

type outcome = Converged | Max_iterations | Breakdown of string

type stats = {
  outcome : outcome;
  iterations : int;
  residual_norm : float;
  rhs_norm : float;
  solve_seconds : float;
}

let converged s = s.outcome = Converged

let pp_stats ppf s =
  let outcome =
    match s.outcome with
    | Converged -> "converged"
    | Max_iterations -> "max-iterations"
    | Breakdown why -> "breakdown: " ^ why
  in
  Format.fprintf ppf "%s in %d its, ‖r‖=%.3e (‖b‖=%.3e), %.3fs" outcome
    s.iterations s.residual_norm s.rhs_norm s.solve_seconds
