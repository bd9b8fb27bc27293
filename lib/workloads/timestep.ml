open Vblu_sparse
open Vblu_precond
open Vblu_krylov
module Ctx = Vblu_obs.Ctx

type family = Jacobi | Ilu0

let family_name = function Jacobi -> "jacobi" | Ilu0 -> "ilu0"

let family_of_string = function
  | "jacobi" -> Ok Jacobi
  | "ilu0" -> Ok Ilu0
  | s -> Error (Printf.sprintf "unknown timestep family %S" s)

type refresh = Every_step | Every_k of int | On_stall of { iters_growth : int }

let refresh_name = function
  | Every_step -> "every-step"
  | Every_k k -> Printf.sprintf "every:%d" k
  | On_stall { iters_growth } -> Printf.sprintf "on-stall:%d" iters_growth

let refresh_of_string s =
  match String.split_on_char ':' s with
  | [ "every-step" ] -> Ok Every_step
  | [ "every"; k ] -> (
    match int_of_string_opt k with
    | Some k when k >= 1 -> Ok (Every_k k)
    | _ -> Error (Printf.sprintf "bad refresh period %S" s))
  | [ "on-stall" ] -> Ok (On_stall { iters_growth = 8 })
  | [ "on-stall"; g ] -> (
    match int_of_string_opt g with
    | Some g when g >= 0 -> Ok (On_stall { iters_growth = g })
    | _ -> Error (Printf.sprintf "bad stall growth %S" s))
  | _ ->
    Error
      (Printf.sprintf
         "unknown refresh policy %S (every-step | every:K | on-stall[:G])" s)

type mode = Full | Partial of float

let mode_name = function
  | Full -> "full"
  | Partial tol -> Printf.sprintf "partial:%g" tol

(* The drifting operator: the 2-D upwind convection–diffusion stencil of
   [Generators.convection_diffusion_2d] whose y-velocity carries a
   compact bump sweeping through the grid rows — at step [t] the rows
   with [y] inside a moving window see a perturbed [cy], everything else
   reproduces the base coefficients bitwise.  The insertion order (hence
   the CSR pattern) never depends on the values, so every step shares
   one sparsity pattern and the dirty set is the window's block rows
   only.  [drift = 0.] makes every step bitwise identical. *)
let matrix ?(nx = 24) ?(ny = 24) ?(peclet = 10.0) ?(drift = 0.05) ~step () =
  let n = nx * ny in
  let h = 1.0 /. float_of_int (nx + 1) in
  let cx = peclet *. h in
  let cy0 = peclet *. h /. 2.0 in
  let w = max 1 (ny / 8) in
  let span = max 1 (ny - w + 1) in
  let y0 = 3 * step mod span in
  let wiggle = drift *. (1.0 +. (0.25 *. float_of_int (step * 37 mod 16))) in
  let cy y = if y >= y0 && y < y0 + w then cy0 *. (1.0 +. wiggle) else cy0 in
  let idx x y = x + (y * nx) in
  let coo = Coo.create ~n_rows:n ~n_cols:n in
  for y = 0 to ny - 1 do
    let cy = cy y in
    for x = 0 to nx - 1 do
      let i = idx x y in
      Coo.add coo i i (4.0 +. cx +. cy);
      if x > 0 then Coo.add coo i (idx (x - 1) y) (-1.0 -. cx);
      if x < nx - 1 then Coo.add coo i (idx (x + 1) y) (-1.0);
      if y > 0 then Coo.add coo i (idx x (y - 1)) (-1.0 -. cy);
      if y < ny - 1 then Coo.add coo i (idx x (y + 1)) (-1.0)
    done
  done;
  Coo.to_csr coo

(* Step-dependent right-hand side, shared by every refresh policy so
   end-to-end comparisons solve the same sequence of systems. *)
let rhs ~n ~step =
  Array.init n (fun i -> 1.0 +. (0.125 *. float_of_int ((i + step) mod 7)))

type step_stat = {
  step : int;
  refreshed : bool;
  dirty : int;
  reused : int;
  launches : int;
  setup_transactions : int;
  setup_modelled_seconds : float;
  iterations : int;
  residual_norm : float;
  converged : bool;
}

type result = {
  steps : step_stat array;
  refreshes : int;
  guard_refreshes : int;
  total_launches : int;
  total_setup_transactions : int;
  total_setup_modelled_seconds : float;
  total_iterations : int;
  final_residual : float;
  solution_checksum : float;
  elapsed_seconds : float;
}

type handle_kind = Hj of Block_jacobi.handle | Hi of Block_ilu0.handle

let run ?pool ?(nx = 24) ?(ny = 24) ?(peclet = 10.0) ?(drift = 0.05)
    ?(steps = 20) ?(family = Jacobi) ?(refresh = Every_step)
    ?(mode = Partial 0.0) ?(max_block_size = 16)
    ?(layout = Vblu_core.Batch.Blocked) ?config ?obs () =
  if steps < 1 then invalid_arg "Timestep.run: steps < 1";
  let n = nx * ny in
  let t0 = Sys.time () in
  let a0 = matrix ~nx ~ny ~peclet ~drift ~step:0 () in
  (* Every build and refresh is one [precond.setup.*] event. *)
  let record ~dirty (u : Block_jacobi.update_stats) =
    Vblu_obs.Setup_metrics.record obs ~family:(family_name family)
      ~fresh:u.Block_jacobi.refactored ~reused:u.Block_jacobi.reused ~dirty;
    u
  in
  let h =
    match family with
    | Jacobi ->
      Hj (Block_jacobi.handle ?pool ~layout ~max_block_size ?obs a0)
    | Ilu0 -> Hi (Block_ilu0.handle ?pool ~layout ~max_block_size ?obs a0)
  in
  let precond =
    match h with Hj h -> Block_jacobi.precond h | Hi h -> Block_ilu0.precond h
  in
  let build_stats =
    record ~dirty:0
      (match h with
      | Hj h -> Block_jacobi.last_update h
      | Hi h -> Block_ilu0.last_update h)
  in
  let tol, force_all =
    match mode with Full -> (0.0, true) | Partial tol -> (tol, false)
  in
  let update ~tol ~force_all a =
    let u =
      match h with
      | Hj h -> Block_jacobi.update ~tol ~force_all h a
      | Hi h -> Block_ilu0.update ~tol ~force_all h a
    in
    record ~dirty:u.Block_jacobi.refactored u
  in
  (* The guard rebuild is always a full refresh on the current operator:
     a tripped solve should restart from factors as fresh as possible. *)
  let guard_refreshes = ref 0 in
  let refresh_precond a () =
    incr guard_refreshes;
    ignore (update ~tol:0.0 ~force_all:true a);
    precond
  in
  let stats = Array.make steps None in
  let refreshes = ref 0 in
  let iters_at_refresh = ref 0 in
  let last_iters = ref 0 in
  let checksum = ref 0.0 in
  let final_residual = ref 0.0 in
  for step = 0 to steps - 1 do
    let a = if step = 0 then a0 else matrix ~nx ~ny ~peclet ~drift ~step () in
    let do_refresh =
      step > 0
      &&
      match refresh with
      | Every_step -> true
      | Every_k k -> step mod k = 0
      | On_stall { iters_growth } ->
        !last_iters > !iters_at_refresh + iters_growth
    in
    let ustats =
      if step = 0 then Some build_stats
      else if do_refresh then begin
        incr refreshes;
        Some (update ~tol ~force_all a)
      end
      else None
    in
    let b = rhs ~n ~step in
    let x, st =
      Idr.solve ?config ~precond ~refresh_precond:(refresh_precond a) ?obs a b
    in
    if step = 0 || do_refresh then iters_at_refresh := st.Solver.iterations;
    last_iters := st.Solver.iterations;
    Array.iter (fun v -> checksum := !checksum +. Float.abs v) x;
    final_residual := st.Solver.residual_norm;
    Ctx.incr obs "timestep.steps" 1.0;
    Ctx.observe obs "timestep.iterations" (float_of_int st.Solver.iterations);
    let dirty, reused, launches, tx, ms =
      match ustats with
      | None -> (0, 0, 0, 0, 0.0)
      | Some u ->
        ( u.Block_jacobi.refactored,
          u.Block_jacobi.reused,
          u.Block_jacobi.launches,
          u.Block_jacobi.setup_transactions,
          u.Block_jacobi.modelled_seconds )
    in
    stats.(step) <-
      Some
        {
          step;
          refreshed = (step = 0 || do_refresh);
          dirty;
          reused;
          launches;
          setup_transactions = tx;
          setup_modelled_seconds = ms;
          iterations = st.Solver.iterations;
          residual_norm = st.Solver.residual_norm;
          converged = Solver.converged st;
        }
  done;
  let steps_arr = Array.map Option.get stats in
  {
    steps = steps_arr;
    refreshes = !refreshes + 1 (* the build counts *);
    guard_refreshes = !guard_refreshes;
    total_launches =
      Array.fold_left (fun acc s -> acc + s.launches) 0 steps_arr;
    total_setup_transactions =
      Array.fold_left (fun acc s -> acc + s.setup_transactions) 0 steps_arr;
    total_setup_modelled_seconds =
      Array.fold_left
        (fun acc s -> acc +. s.setup_modelled_seconds)
        0.0 steps_arr;
    total_iterations =
      Array.fold_left (fun acc s -> acc + s.iterations) 0 steps_arr;
    final_residual = !final_residual;
    solution_checksum = !checksum;
    elapsed_seconds = Sys.time () -. t0;
  }
