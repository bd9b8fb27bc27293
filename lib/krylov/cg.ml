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

  let[@inline] div p a b = round p (a /. b)
  let[@inline] fma p a b c = round p ((a *. b) +. c)
end

(* [p <- beta·p + z], rounded. *)
let[@inline] xpby_k prec beta p z =
  for i = 0 to Array.length p - 1 do
    p.(i) <- R.fma prec beta p.(i) z.(i)
  done

let xpby prec beta p z =
  match prec with
  | Precision.Double -> (xpby_k [@inlined]) Precision.Double beta p z
  | Single -> (xpby_k [@inlined]) Precision.Single beta p z

let solve ?(prec = Precision.Double) ?precond
    ?(config = Solver.default_config) ?refresh_precond ?obs a b =
  let ctx = Solver.make_ctx ~prec ?precond ?obs ~name:"cg" a b config in
  let sguard = Option.map Solver.guard refresh_precond in
  let started = Sys.time () in
  let n = Array.length b in
  let x = Vector.create n in
  let r = Vector.copy b in
  let z = Preconditioner.apply ctx.Solver.precond r in
  let p = Vector.copy z in
  let rz = ref (Vector.dot ~prec r z) in
  let iters = ref 0 in
  let outcome = ref None in
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
     iterate (zeroing it if the corruption reached it), recompute the
     true residual and restart the direction recurrence. *)
  let rearm () =
    if Array.exists (fun v -> not (Float.is_finite v)) x then
      Vector.fill x 0.0;
    let ax = ctx.Solver.spmv x in
    incr iters;
    Vector.blit ~src:b ~dst:r;
    Vector.axpy ~prec (-1.0) ax r;
    let z = Preconditioner.apply ctx.Solver.precond r in
    Vector.blit ~src:z ~dst:p;
    rz := Vector.dot ~prec r z;
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
        let ap = ctx.Solver.spmv p in
        incr iters;
        let pap = Vector.dot ~prec p ap in
        if pap = 0.0 then outcome := Some (Solver.Breakdown "pᵀAp = 0")
        else begin
          let alpha = R.div prec !rz pap in
          Vector.axpy ~prec alpha p x;
          Vector.axpy ~prec (-.alpha) ap r;
          let rnorm = Vector.nrm2 ~prec r in
          Solver.record ctx rnorm;
          if rnorm <= ctx.Solver.target then outcome := Some Solver.Converged
          else if !iters >= config.Solver.max_iters then
            outcome := Some Solver.Max_iterations
          else begin
            check_guard rnorm;
            if !outcome = None then begin
              let z = Preconditioner.apply ctx.Solver.precond r in
              let rz' = Vector.dot ~prec r z in
              if !rz = 0.0 then outcome := Some (Solver.Breakdown "rᵀz = 0")
              else begin
                let beta = R.div prec rz' !rz in
                rz := rz';
                xpby prec beta p z
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
