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

(* Orthonormalize s random columns by modified Gram-Schmidt. *)
let shadow_space ~prec ~seed n s =
  let st = Random.State.make [| 0x1d2; seed |] in
  let cols =
    Array.init s (fun _ ->
        Array.init n (fun _ -> -1.0 +. (2.0 *. Random.State.float st 1.0)))
  in
  for j = 0 to s - 1 do
    for i = 0 to j - 1 do
      let h = Vector.dot ~prec cols.(i) cols.(j) in
      Vector.axpy ~prec (-.h) cols.(i) cols.(j)
    done;
    let nrm = Vector.nrm2 ~prec cols.(j) in
    if nrm > 0.0 then Vector.scal ~prec (1.0 /. nrm) cols.(j)
  done;
  cols

(* Forward substitution with the lower-triangular trailing block
   ms(k.., k..) — the small system of the biortho variant. *)
let[@inline] solve_lower_k prec ms f c k s =
  for i = k to s - 1 do
    let acc = ref f.(i) in
    for j = k to i - 1 do
      acc := R.fma prec (-.ms.(i).(j)) c.(j - k) !acc
    done;
    if ms.(i).(i) = 0.0 then raise Exit;
    c.(i - k) <- R.div prec !acc ms.(i).(i)
  done

let solve_lower ~prec ms f k s =
  let c = Array.make (s - k) 0.0 in
  (match prec with
  | Precision.Double -> (solve_lower_k [@inlined]) Precision.Double ms f c k s
  | Single -> (solve_lower_k [@inlined]) Precision.Single ms f c k s);
  c

(* [f.(i) <- f.(i) - beta·ms(i, k)] for the directions after [k]. *)
let[@inline] update_f_k prec ~beta ms f k s =
  for i = k + 1 to s - 1 do
    f.(i) <- R.fma prec (-.beta) ms.(i).(k) f.(i)
  done

let update_f prec ~beta ms f k s =
  match prec with
  | Precision.Double -> (update_f_k [@inlined]) Precision.Double ~beta ms f k s
  | Single -> (update_f_k [@inlined]) Precision.Single ~beta ms f k s

let solve ?(prec = Precision.Double) ?precond ?(s = 4) ?(seed = 1)
    ?(smoothing = false) ?(config = Solver.default_config) ?refresh_precond
    ?obs a b =
  if s < 1 then invalid_arg "Idr.solve: s < 1";
  let ctx = Solver.make_ctx ~prec ?precond ?obs ~name:"idr" a b config in
  let sguard = Option.map Solver.guard refresh_precond in
  let started = Sys.time () in
  let n = Array.length b in
  let x = Vector.create n in
  let r = Vector.copy b in
  let p = shadow_space ~prec ~seed n s in
  let g = Array.init s (fun _ -> Vector.create n) in
  let u = Array.init s (fun _ -> Vector.create n) in
  (* ms is the s×s biorthogonality matrix, lower triangular by
     construction; start from the identity. *)
  let ms = Array.init s (fun i -> Array.init s (fun j -> if i = j then 1.0 else 0.0)) in
  let om = ref 1.0 in
  let iters = ref 0 in
  let rnorm = ref (Vector.nrm2 ~prec r) in
  (* Optional QMR-style smoothing: (xs, rs) is the returned pair and the
     pair the stopping test sees; eta minimizes ‖rs + eta (r - rs)‖. *)
  let xs = Vector.copy x and rs = Vector.copy r in
  let smooth () =
    if smoothing then begin
      let d = Vector.sub ~prec rs r in
      let dd = Vector.dot ~prec d d in
      if dd > 0.0 then begin
        let eta = R.div prec (Vector.dot ~prec rs d) dd in
        Vector.axpy ~prec (-.eta) d rs;
        let dx = Vector.sub ~prec xs x in
        Vector.axpy ~prec (-.eta) dx xs
      end;
      rnorm := Vector.nrm2 ~prec rs
    end
  in
  Solver.record ctx !rnorm;
  let outcome = ref None in
  if !rnorm <= ctx.Solver.target then outcome := Some Solver.Converged;
  let apply_m v = Preconditioner.apply ctx.Solver.precond v in
  let check_guard () =
    match sguard with
    | None -> ()
    | Some gd -> (
      match Solver.guard_check ctx gd !rnorm with
      | `Ok -> ()
      | `Break why -> outcome := Some (Solver.Breakdown why)
      | `Restart _ -> raise Solver.Guard_restart)
  in
  (* Re-arm the recurrences after a guard-triggered preconditioner
     refresh: keep the iterate (zeroing it if the corruption reached it),
     recompute the true residual, and drop the Sonneveld-space state. *)
  let rearm () =
    if Array.exists (fun v -> not (Float.is_finite v)) x then
      Vector.fill x 0.0;
    let ax = ctx.Solver.spmv x in
    incr iters;
    Vector.blit ~src:b ~dst:r;
    Vector.axpy ~prec (-1.0) ax r;
    for i = 0 to s - 1 do
      g.(i) <- Vector.create n;
      u.(i) <- Vector.create n;
      for j = 0 to s - 1 do
        ms.(i).(j) <- (if i = j then 1.0 else 0.0)
      done
    done;
    om := 1.0;
    rnorm := Vector.nrm2 ~prec r;
    Vector.blit ~src:x ~dst:xs;
    Vector.blit ~src:r ~dst:rs;
    Solver.record ctx !rnorm;
    if !rnorm <= ctx.Solver.target then outcome := Some Solver.Converged
    else if !iters >= config.Solver.max_iters then
      outcome := Some Solver.Max_iterations
  in
  (try
     let again = ref true in
     while !again do
       again := false;
       try
         while !outcome = None do
       let f = Array.init s (fun i -> Vector.dot ~prec p.(i) r) in
       let k = ref 0 in
       while !outcome = None && !k < s do
         let kk = !k in
         let c =
           match solve_lower ~prec ms f kk s with
           | c -> c
           | exception Exit ->
             outcome := Some (Solver.Breakdown "singular biortho system");
             [||]
         in
         if !outcome = None then begin
           (* v = r - Σ c_i g_i over the trailing directions. *)
           let v = Vector.copy r in
           for i = kk to s - 1 do
             Vector.axpy ~prec (-.c.(i - kk)) g.(i) v
           done;
           let vhat = apply_m v in
           (* u_k = om * vhat + Σ c_i u_i. *)
           let uk = Vector.copy vhat in
           Vector.scal ~prec !om uk;
           for i = kk to s - 1 do
             Vector.axpy ~prec c.(i - kk) u.(i) uk
           done;
           let gk = ctx.Solver.spmv uk in
           incr iters;
           (* Bi-orthogonalize the new direction against p_0..p_{k-1}. *)
           for i = 0 to kk - 1 do
             let alpha =
               R.div prec (Vector.dot ~prec p.(i) gk) ms.(i).(i)
             in
             Vector.axpy ~prec (-.alpha) g.(i) gk;
             Vector.axpy ~prec (-.alpha) u.(i) uk
           done;
           u.(kk) <- uk;
           g.(kk) <- gk;
           for i = kk to s - 1 do
             ms.(i).(kk) <- Vector.dot ~prec p.(i) gk
           done;
           if ms.(kk).(kk) = 0.0 then
             outcome := Some (Solver.Breakdown "zero pivot in IDR recurrence")
           else begin
             let beta = R.div prec f.(kk) ms.(kk).(kk) in
             Vector.axpy ~prec (-.beta) gk r;
             Vector.axpy ~prec beta uk x;
             rnorm := Vector.nrm2 ~prec r;
             smooth ();
             Solver.record ctx !rnorm;
             if !rnorm <= ctx.Solver.target then outcome := Some Solver.Converged
             else if !iters >= config.Solver.max_iters then
               outcome := Some Solver.Max_iterations;
             if !outcome = None then check_guard ();
             update_f prec ~beta ms f kk s;
             f.(kk) <- 0.0
           end;
           incr k
         end
       done;
       if !outcome = None then begin
         (* Dimension-reduction step into the next Sonneveld space. *)
         let vhat = apply_m r in
         let t = ctx.Solver.spmv vhat in
         incr iters;
         let tt = Vector.dot ~prec t t in
         let tr = Vector.dot ~prec t r in
         if tt = 0.0 then
           outcome := Some (Solver.Breakdown "t = 0 in dimension-reduction step")
         else begin
           (* rho needs the unsmoothed residual norm. *)
           let tn = sqrt tt and rn = Vector.nrm2 ~prec r in
           let rho = if tn *. rn = 0.0 then 0.0 else tr /. (tn *. rn) in
           om := tr /. tt;
           (* The standard ω-stabilization ("maintaining the convergence"). *)
           if Float.abs rho < 0.7 && Float.abs rho > 0.0 then
             om := !om *. 0.7 /. Float.abs rho;
           if !om = 0.0 then
             outcome := Some (Solver.Breakdown "omega = 0")
           else begin
             Vector.axpy ~prec !om vhat x;
             Vector.axpy ~prec (-. !om) t r;
             rnorm := Vector.nrm2 ~prec r;
             smooth ();
             Solver.record ctx !rnorm;
             if !rnorm <= ctx.Solver.target then outcome := Some Solver.Converged
             else if !iters >= config.Solver.max_iters then
               outcome := Some Solver.Max_iterations;
             if !outcome = None then check_guard ()
           end
         end
       end
         done
       with Solver.Guard_restart ->
         rearm ();
         again := true
     done
   with e ->
     outcome := Some (Solver.Breakdown (Printexc.to_string e)));
  let outcome = match !outcome with Some o -> o | None -> Solver.Max_iterations in
  let x = if smoothing then xs else x in
  (x, Solver.finish ctx ~outcome ~iterations:!iters ~x ~b ~started ~a)
