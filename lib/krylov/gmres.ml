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

(* Back-substitution [H(0..k-1, 0..k-1) y = g] with the upper-triangular
   Hessenberg factor. *)
let[@inline] back_solve_k prec h g y k =
  for i = k - 1 downto 0 do
    let acc = ref g.(i) in
    for l = i + 1 to k - 1 do
      acc := R.fma prec (-.h.(i).(l)) y.(l) !acc
    done;
    y.(i) <- R.div prec !acc h.(i).(i)
  done

let back_solve prec h g y k =
  match prec with
  | Precision.Double -> (back_solve_k [@inlined]) Precision.Double h g y k
  | Single -> (back_solve_k [@inlined]) Precision.Single h g y k

let solve ?(prec = Precision.Double) ?precond ?(restart = 30)
    ?(config = Solver.default_config) ?refresh_precond ?obs a b =
  if restart < 1 then invalid_arg "Gmres.solve: restart < 1";
  let ctx = Solver.make_ctx ~prec ?precond ?obs ~name:"gmres" a b config in
  let sguard = Option.map Solver.guard refresh_precond in
  let started = Sys.time () in
  let n = Array.length b in
  let m = restart in
  let x = Vector.create n in
  let iters = ref 0 in
  let outcome = ref None in
  let apply_m y = Preconditioner.apply ctx.Solver.precond y in
  let check_guard rnorm =
    match sguard with
    | None -> ()
    | Some gd -> (
      match Solver.guard_check ctx gd rnorm with
      | `Ok -> ()
      | `Break why -> outcome := Some (Solver.Breakdown why)
      | `Restart _ -> raise Solver.Guard_restart)
  in
  while !outcome = None do
    (* One restart cycle.  A guard-triggered refresh aborts the cycle (the
       partial Arnoldi basis was built with the old, possibly corrupted
       preconditioner, so its least-squares update is discarded) and the
       next cycle restarts naturally from the current iterate with the
       fresh preconditioner — GMRES's own restart is the re-arm. *)
    try
    let r = Vector.sub ~prec b (ctx.Solver.spmv x) in
    let beta = Vector.nrm2 ~prec r in
    Solver.record ctx beta;
    if beta <= ctx.Solver.target then outcome := Some Solver.Converged
    else begin
      check_guard beta;
      let v = Array.make (m + 1) [||] in
      v.(0) <- Vector.copy r;
      Vector.scal ~prec (1.0 /. beta) v.(0);
      let h = Array.make_matrix (m + 1) m 0.0 in
      (* Givens rotation coefficients and the transformed rhs. *)
      let cs = Array.make m 0.0 and sn = Array.make m 0.0 in
      let g = Array.make (m + 1) 0.0 in
      g.(0) <- beta;
      let j = ref 0 in
      let cycle_done = ref false in
      let exhausted = ref false in
      while (not !cycle_done) && !outcome = None do
        let jj = !j in
        let w = ctx.Solver.spmv (apply_m v.(jj)) in
        incr iters;
        (* Modified Gram-Schmidt. *)
        for i = 0 to jj do
          h.(i).(jj) <- Vector.dot ~prec v.(i) w;
          Vector.axpy ~prec (-.h.(i).(jj)) v.(i) w
        done;
        h.(jj + 1).(jj) <- Vector.nrm2 ~prec w;
        if h.(jj + 1).(jj) <> 0.0 then begin
          v.(jj + 1) <- Vector.copy w;
          Vector.scal ~prec (1.0 /. h.(jj + 1).(jj)) v.(jj + 1)
        end
        else
          (* The Krylov space is exhausted: the least-squares residual can
             only be trusted against the true residual below. *)
          exhausted := true;
        (* Apply previous rotations to the new column, then a new one. *)
        for i = 0 to jj - 1 do
          let t = (cs.(i) *. h.(i).(jj)) +. (sn.(i) *. h.(i + 1).(jj)) in
          h.(i + 1).(jj) <- (-.sn.(i) *. h.(i).(jj)) +. (cs.(i) *. h.(i + 1).(jj));
          h.(i).(jj) <- t
        done;
        let denom = Float.hypot h.(jj).(jj) h.(jj + 1).(jj) in
        if denom = 0.0 then outcome := Some (Solver.Breakdown "Arnoldi breakdown")
        else begin
          cs.(jj) <- h.(jj).(jj) /. denom;
          sn.(jj) <- h.(jj + 1).(jj) /. denom;
          h.(jj).(jj) <- denom;
          h.(jj + 1).(jj) <- 0.0;
          g.(jj + 1) <- -.sn.(jj) *. g.(jj);
          g.(jj) <- cs.(jj) *. g.(jj);
          let resid = Float.abs g.(jj + 1) in
          Solver.record ctx resid;
          if resid <= ctx.Solver.target then begin
            cycle_done := true;
            outcome := Some Solver.Converged
          end
          else if !iters >= config.Solver.max_iters then begin
            cycle_done := true;
            outcome := Some Solver.Max_iterations
          end
          else begin
            if jj = m - 1 || !exhausted then cycle_done := true;
            check_guard resid
          end;
          incr j
        end
      done;
      (* Back-substitute and update x through the preconditioner. *)
      let k = !j in
      if k > 0 then begin
        let y = Array.make k 0.0 in
        back_solve prec h g y k;
        let z = Vector.create n in
        for i = 0 to k - 1 do
          Vector.axpy ~prec y.(i) v.(i) z
        done;
        let mz = apply_m z in
        Vector.axpy ~prec 1.0 mz x
      end;
      (* Re-validate an in-cycle convergence claim against the true
         residual: the least-squares recurrence can hit zero spuriously
         when Arnoldi exhausts the Krylov space (singular or deficient
         operators). *)
      (match !outcome with
      | Some Solver.Converged ->
        let r = Vector.sub ~prec b (ctx.Solver.spmv x) in
        if Vector.nrm2 ~prec r > ctx.Solver.target then
          if !exhausted then
            outcome :=
              Some
                (Solver.Breakdown
                   "Krylov space exhausted before reaching the tolerance")
          else outcome := None
      | _ -> ());
      if !outcome = None && !iters >= config.Solver.max_iters then
        outcome := Some Solver.Max_iterations
    end
    with Solver.Guard_restart ->
      (* Keep the iterate unless the corruption reached it; the next
         cycle recomputes the true residual with the refreshed
         preconditioner. *)
      if Array.exists (fun v -> not (Float.is_finite v)) x then
        Vector.fill x 0.0;
      if !iters >= config.Solver.max_iters then
        outcome := Some Solver.Max_iterations
  done;
  let outcome = match !outcome with Some o -> o | None -> Solver.Max_iterations in
  (x, Solver.finish ctx ~outcome ~iterations:!iters ~x ~b ~started ~a)
