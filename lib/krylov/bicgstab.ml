open Vblu_smallblas
open Vblu_precond

(* Rounded arithmetic inlined into this unit, bitwise equal to
   [Precision]'s: under [-opaque] a call into another unit boxes every
   float it passes or returns.  Per-element loops are [@inline] bodies
   instantiated once per precision, so in Double [round] folds away; the
   once-per-iteration scalar ops keep the generic form (DESIGN §5i). *)
module R = struct
  let[@inline] round p x =
    match p with
    | Precision.Double -> x
    | Single -> Int32.float_of_bits (Int32.bits_of_float x)

  let[@inline] mul p a b = round p (a *. b)
  let[@inline] div p a b = round p (a /. b)
  let[@inline] fma p a b c = round p ((a *. b) +. c)
end

(* [p <- r + beta·(p - om·v)], rounded. *)
let[@inline] update_p_k prec ~beta ~om p v r =
  for i = 0 to Array.length p - 1 do
    p.(i) <- R.fma prec beta (R.fma prec (-.om) v.(i) p.(i)) r.(i)
  done

let update_p prec ~beta ~om p v r =
  match prec with
  | Precision.Double -> (update_p_k [@inlined]) Precision.Double ~beta ~om p v r
  | Single -> (update_p_k [@inlined]) Precision.Single ~beta ~om p v r

let solve ?(prec = Precision.Double) ?precond
    ?(config = Solver.default_config) ?refresh_precond ?obs a b =
  let ctx = Solver.make_ctx ~prec ?precond ?obs ~name:"bicgstab" a b config in
  let sguard = Option.map Solver.guard refresh_precond in
  let started = Sys.time () in
  let n = Array.length b in
  let x = Vector.create n in
  let r = Vector.copy b in
  let rstar = Vector.copy r in
  let p = Vector.create n in
  let v = Vector.create n in
  let rho = ref 1.0 and alpha = ref 1.0 and om = ref 1.0 in
  let iters = ref 0 in
  let outcome = ref None in
  let apply_m y = Preconditioner.apply ctx.Solver.precond y in
  Solver.record ctx (Vector.nrm2 ~prec r);
  if Vector.nrm2 ~prec r <= ctx.Solver.target then outcome := Some Solver.Converged;
  let check_guard rnorm =
    match sguard with
    | None -> ()
    | Some gd -> (
      match Solver.guard_check ctx gd rnorm with
      | `Ok -> ()
      | `Break why -> outcome := Some (Solver.Breakdown why)
      | `Restart _ -> raise Solver.Guard_restart)
  in
  (* Re-arm after a guard-triggered preconditioner refresh: keep the
     iterate (zeroing it if the corruption reached it), recompute the true
     residual, and restart the BiCG recurrences from scratch — fresh
     shadow residual, zero direction vectors, unit scalars. *)
  let rearm () =
    if Array.exists (fun v -> not (Float.is_finite v)) x then
      Vector.fill x 0.0;
    let ax = ctx.Solver.spmv x in
    incr iters;
    Vector.blit ~src:b ~dst:r;
    Vector.axpy ~prec (-1.0) ax r;
    Vector.blit ~src:r ~dst:rstar;
    Vector.fill p 0.0;
    Vector.fill v 0.0;
    rho := 1.0;
    alpha := 1.0;
    om := 1.0;
    let rnorm = Vector.nrm2 ~prec r in
    Solver.record ctx rnorm;
    if rnorm <= ctx.Solver.target then outcome := Some Solver.Converged
    else if !iters >= config.Solver.max_iters then
      outcome := Some Solver.Max_iterations
  in
  let again = ref true in
  while !again do
    again := false;
    try
      while !outcome = None do
    let rho1 = Vector.dot ~prec rstar r in
    if rho1 = 0.0 then outcome := Some (Solver.Breakdown "rho = 0")
    else begin
      let beta = R.mul prec (rho1 /. !rho) (!alpha /. !om) in
      update_p prec ~beta ~om:!om p v r;
      let phat = apply_m p in
      let v' = ctx.Solver.spmv phat in
      incr iters;
      Array.blit v' 0 v 0 n;
      let denom = Vector.dot ~prec rstar v in
      if denom = 0.0 then outcome := Some (Solver.Breakdown "r*ᵀv = 0")
      else begin
        alpha := R.div prec rho1 denom;
        let s = Vector.copy r in
        Vector.axpy ~prec (-. !alpha) v s;
        let snorm = Vector.nrm2 ~prec s in
        if snorm <= ctx.Solver.target then begin
          Vector.axpy ~prec !alpha phat x;
          Solver.record ctx snorm;
          outcome := Some Solver.Converged
        end
        else begin
          let shat = apply_m s in
          let t = ctx.Solver.spmv shat in
          incr iters;
          let tt = Vector.dot ~prec t t in
          if tt = 0.0 then outcome := Some (Solver.Breakdown "t = 0")
          else begin
            om := R.div prec (Vector.dot ~prec t s) tt;
            Vector.axpy ~prec !alpha phat x;
            Vector.axpy ~prec !om shat x;
            Array.blit s 0 r 0 n;
            Vector.axpy ~prec (-. !om) t r;
            rho := rho1;
            let rnorm = Vector.nrm2 ~prec r in
            Solver.record ctx rnorm;
            if rnorm <= ctx.Solver.target then outcome := Some Solver.Converged
            else if !iters >= config.Solver.max_iters then
              outcome := Some Solver.Max_iterations
            else if !om = 0.0 then
              outcome := Some (Solver.Breakdown "omega = 0")
            else check_guard rnorm
          end
        end
      end
    end
      done
    with Solver.Guard_restart ->
      rearm ();
      again := true
  done;
  let outcome = match !outcome with Some o -> o | None -> Solver.Max_iterations in
  (x, Solver.finish ctx ~outcome ~iterations:!iters ~x ~b ~started ~a)
