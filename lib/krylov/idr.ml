open Vblu_smallblas
open Vblu_precond
module Csr = Vblu_sparse.Csr
module Obs = Vblu_obs.Ctx

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

(* Observability hooks.  Each is a no-op without a context, so a solve
   with [?obs] absent is bit-identical to the uninstrumented path. *)

(* One residual sample per iteration.  The solver runs host-side (no
   modelled kernel time) and wall-clock must never enter a trace, so a
   nominal deterministic 1 µs tick spreads the samples along the
   simulated timeline. *)
let record obs rnorm =
  if Obs.enabled obs then begin
    Obs.sample obs "idr.residual" (fun () -> [ ("rnorm", rnorm) ]);
    Obs.incr obs "krylov.records" 1.0;
    Obs.advance obs 1.0
  end

(* [solve_seconds] is wall-clock and deliberately left out of both the
   trace and the registry. *)
let report obs ~outcome ~iterations ~residual_norm =
  if Obs.enabled obs then begin
    let slug =
      match outcome with
      | Solver.Converged -> "converged"
      | Max_iterations -> "max_iterations"
      | Breakdown _ -> "breakdown"
    in
    Obs.instant obs ~cat:"krylov" "idr.done"
      ~args:
        [
          ("outcome", Vblu_obs.Trace.Str slug);
          ("iterations", Vblu_obs.Trace.Int iterations);
          ("residual_norm", Vblu_obs.Trace.Float residual_norm);
        ];
    Obs.incr_l obs "krylov.outcome" [ ("outcome", slug) ] 1.0;
    Obs.incr obs "krylov.solves" 1.0;
    Obs.observe obs "krylov.iterations" (float_of_int iterations)
  end

(* Soft-error guard: trips on a non-finite residual norm, or on
   stagnation — no meaningful improvement across [guard_window]
   consecutive checks.  Built only when the caller passes
   [?refresh_precond], and it only reads the residual norm, so an armed
   guard over a healthy solve changes no bit. *)
type guard = {
  refresh : unit -> Preconditioner.t;
  mutable best : float;
  mutable since : int;
  mutable used : bool;
}

let guard_window = 200

(* The first trip rebuilds the preconditioner (flushing any corrupted
   factors) and returns it as [`Restart]; a second trip is [`Break]. *)
let guard_check obs g rnorm =
  let trip =
    if not (Float.is_finite rnorm) then Some "non-finite residual"
    else begin
      if rnorm < 0.999 *. g.best then begin
        g.best <- rnorm;
        g.since <- 0
      end
      else g.since <- g.since + 1;
      if g.since > guard_window then Some "stagnation" else None
    end
  in
  match trip with
  | None -> `Ok
  | Some why when g.used ->
    Obs.instant obs ~cat:"krylov" "guard.break"
      ~args:[ ("why", Vblu_obs.Trace.Str why) ];
    Obs.incr obs "krylov.guard.breaks" 1.0;
    `Break ("guard: " ^ why)
  | Some why ->
    g.used <- true;
    g.best <- infinity;
    g.since <- 0;
    Obs.instant obs ~cat:"krylov" "guard.restart"
      ~args:[ ("why", Vblu_obs.Trace.Str why) ];
    Obs.incr obs "krylov.guard.restarts" 1.0;
    `Restart (g.refresh ())

exception Restart

let solve ?(prec = Precision.Double) ?precond ?(s = 4) ?(seed = 1)
    ?(config = Solver.default_config) ?refresh_precond ?obs a b =
  if s < 1 then invalid_arg "Idr.solve: s < 1";
  let n, cols = Csr.dims a in
  if n <> cols then invalid_arg "Krylov: matrix not square";
  if Array.length b <> n then invalid_arg "Krylov: rhs dimension mismatch";
  let precond =
    ref (match precond with Some p -> p | None -> Preconditioner.identity n)
  in
  if !precond.Preconditioner.dim <> n then
    invalid_arg "Krylov: preconditioner dimension mismatch";
  let b_norm = Vector.nrm2 ~prec b in
  let target = config.Solver.rtol *. b_norm in
  let guard =
    Option.map
      (fun refresh -> { refresh; best = infinity; since = 0; used = false })
      refresh_precond
  in
  let started = Sys.time () in
  let x = Vector.create n in
  let r = Vector.copy b in
  let p = shadow_space ~prec ~seed n s in
  let g = Array.init s (fun _ -> Vector.create n) in
  let u = Array.init s (fun _ -> Vector.create n) in
  (* Per-solve workspaces: [v] is the inner step's preconditioner
     operand, [t] takes the other products with [A], and the spare pair
     receives each new direction (u_k, g_k) before it is swapped into
     [u]/[g].  The preconditioner's result is read at once, never kept
     across another apply, so it may be a buffer the operator reuses. *)
  let v = Vector.create n and t = Vector.create n in
  let uk_spare = ref (Vector.create n) and gk_spare = ref (Vector.create n) in
  (* ms is the s×s biorthogonality matrix, lower triangular by
     construction; start from the identity. *)
  let ms = Array.init s (fun i -> Array.init s (fun j -> if i = j then 1.0 else 0.0)) in
  let om = ref 1.0 in
  let iters = ref 0 in
  let rnorm = ref (Vector.nrm2 ~prec r) in
  let outcome = ref None in
  record obs !rnorm;
  if !rnorm <= target then outcome := Some Solver.Converged;
  let apply_m v = Preconditioner.apply !precond v in
  (* Re-measure [r] after an update and apply the stopping rule. *)
  let measure () =
    rnorm := Vector.nrm2 ~prec r;
    record obs !rnorm;
    if !rnorm <= target then outcome := Some Solver.Converged
    else if !iters >= config.Solver.max_iters then
      outcome := Some Solver.Max_iterations
  in
  let check_guard () =
    match guard with
    | Some gd when !outcome = None -> (
      match guard_check obs gd !rnorm with
      | `Ok -> ()
      | `Break why -> outcome := Some (Solver.Breakdown why)
      | `Restart m ->
        precond := m;
        raise Restart)
    | _ -> ()
  in
  (* Re-arm the recurrences after a guard-triggered preconditioner
     refresh: keep the iterate (zeroing it if the corruption reached it),
     recompute the true residual, and drop the Sonneveld-space state. *)
  let rearm () =
    if Array.exists (fun v -> not (Float.is_finite v)) x then
      Vector.fill x 0.0;
    Csr.spmv_into ~prec a x t;
    incr iters;
    Vector.blit ~src:b ~dst:r;
    Vector.axpy ~prec (-1.0) t r;
    for i = 0 to s - 1 do
      Vector.fill g.(i) 0.0;
      Vector.fill u.(i) 0.0;
      for j = 0 to s - 1 do
        ms.(i).(j) <- (if i = j then 1.0 else 0.0)
      done
    done;
    om := 1.0;
    measure ()
  in
  (* One IDR cycle: s steps inside the current Sonneveld space, then the
     dimension-reduction step into the next one. *)
  let cycle () =
    let f = Array.init s (fun i -> Vector.dot ~prec p.(i) r) in
    let k = ref 0 in
    while !outcome = None && !k < s do
      let kk = !k in
      match solve_lower ~prec ms f kk s with
      | exception Exit ->
        outcome := Some (Solver.Breakdown "singular biortho system")
      | c ->
        (* v = r - Σ c_i g_i over the trailing directions. *)
        Vector.blit ~src:r ~dst:v;
        for i = kk to s - 1 do
          Vector.axpy ~prec (-.c.(i - kk)) g.(i) v
        done;
        let vhat = apply_m v in
        (* u_k = om * vhat + Σ c_i u_i. *)
        let uk = !uk_spare and gk = !gk_spare in
        Vector.blit ~src:vhat ~dst:uk;
        Vector.scal ~prec !om uk;
        for i = kk to s - 1 do
          Vector.axpy ~prec c.(i - kk) u.(i) uk
        done;
        Csr.spmv_into ~prec a uk gk;
        incr iters;
        (* Bi-orthogonalize the new direction against p_0..p_{k-1}. *)
        for i = 0 to kk - 1 do
          let alpha = R.div prec (Vector.dot ~prec p.(i) gk) ms.(i).(i) in
          Vector.axpy ~prec (-.alpha) g.(i) gk;
          Vector.axpy ~prec (-.alpha) u.(i) uk
        done;
        uk_spare := u.(kk);
        gk_spare := g.(kk);
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
          measure ();
          check_guard ();
          update_f prec ~beta ms f kk s;
          f.(kk) <- 0.0
        end;
        incr k
    done;
    if !outcome = None then begin
      let vhat = apply_m r in
      Csr.spmv_into ~prec a vhat t;
      incr iters;
      let tt = Vector.dot ~prec t t in
      let tr = Vector.dot ~prec t r in
      if tt = 0.0 then
        outcome := Some (Solver.Breakdown "t = 0 in dimension-reduction step")
      else begin
        let tn = sqrt tt and rn = !rnorm in
        let rho = if tn *. rn = 0.0 then 0.0 else tr /. (tn *. rn) in
        om := tr /. tt;
        (* The standard ω-stabilization ("maintaining the convergence"). *)
        if Float.abs rho < 0.7 && Float.abs rho > 0.0 then
          om := !om *. 0.7 /. Float.abs rho;
        if !om = 0.0 then outcome := Some (Solver.Breakdown "omega = 0")
        else begin
          Vector.axpy ~prec !om vhat x;
          Vector.axpy ~prec (-. !om) t r;
          measure ();
          check_guard ()
        end
      end
    end
  in
  (try
     while !outcome = None do
       try cycle () with Restart -> rearm ()
     done
   with e -> outcome := Some (Solver.Breakdown (Printexc.to_string e)));
  let outcome =
    match !outcome with Some o -> o | None -> Solver.Max_iterations
  in
  Csr.spmv_into ~prec a x t;
  let residual_norm = Vector.nrm2 ~prec (Vector.sub ~prec b t) in
  report obs ~outcome ~iterations:!iters ~residual_norm;
  ( x,
    {
      Solver.outcome;
      iterations = !iters;
      residual_norm;
      rhs_norm = b_norm;
      solve_seconds = Sys.time () -. started;
    } )
