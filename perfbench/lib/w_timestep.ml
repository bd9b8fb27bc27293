(* timestep-drift: one step of the drifting convection-diffusion sequence
   per operation.  The step refreshes a block-Jacobi and a block-ILU(0)
   handle with [update ~tol:0.] and solves IDR(4) under each — the
   dirty-block update path, and the only Krylov loop over the
   block-ILU(0) level-wave apply.  The set-up is the two step-0 handles. *)

open Vblu_smallblas
open Vblu_sparse
open Vblu_precond
open Vblu_krylov
open Vblu_workloads

let name = "timestep-drift"
let bound = 16

(* On the 26x26 grid, [Timestep.matrix] and [Timestep.rhs] repeat every
   112 steps (the drift window every 8, its amplitude every 16, the rhs
   every 7). *)
let period = 112

type grid = { nx : int; ny : int; peclet : float; drift : float; step0 : int }

(* A 26x26 grid at Peclet 10; the seed draws the drift amplitude and the
   step the sequence starts from. *)
let grid seed =
  let st = Random.State.make [| 0x7157; seed |] in
  { nx = 26; ny = 26; peclet = 10.0;
    drift = 0.045 +. Random.State.float st 0.01;
    step0 = Random.State.int st 1000 }

let system g k =
  let a = Timestep.matrix ~nx:g.nx ~ny:g.ny ~peclet:g.peclet ~drift:g.drift ~step:k () in
  (a, Timestep.rhs ~n:(g.nx * g.ny) ~step:k)

let input_digest g =
  let h = Hash64.create () in
  for k = g.step0 to g.step0 + 16 do
    let a, b = system g k in
    Hash64.floats h a.Csr.values;
    Hash64.floats h b
  done;
  Hash64.hex h

(* The sampled-step check: the updated handles hold the factors a fresh
   handle on the same matrix computes, bit for bit. *)
let same_as_fresh ~pool a hj hi =
  let fj = Block_jacobi.handle_factors (Block_jacobi.handle ~pool ~max_block_size:bound a) in
  let fi = Block_ilu0.handle_factors (Block_ilu0.handle ~pool ~max_block_size:bound a) in
  let jacobi_ok =
    Array.for_all2
      (fun (x : Lu.factors option) (y : Lu.factors option) ->
        match (x, y) with
        | Some x, Some y ->
          Check.same_bits x.Lu.lu.Matrix.a y.Lu.lu.Matrix.a && x.Lu.perm = y.Lu.perm
        | None, None -> true
        | _ -> false)
      (Block_jacobi.handle_factors hj) fj
  in
  let ilu0_ok =
    Array.for_all2
      (fun ((m : Matrix.t), p) ((m' : Matrix.t), p') ->
        Check.same_bits m.Matrix.a m'.Matrix.a && p = p')
      (Block_ilu0.handle_factors hi) fi
  in
  jacobi_ok && ilu0_ok

(* Per-family accumulators of the update statistics. *)
type fam = {
  mutable refactored : int;
  mutable reused : int;
  mutable setup_tx : float;
  mutable modelled_us : float;
  mutable updates : int;
}

let new_fam () = { refactored = 0; reused = 0; setup_tx = 0.0; modelled_us = 0.0; updates = 0 }

let note fam (u : Block_jacobi.update_stats) =
  fam.refactored <- fam.refactored + u.Block_jacobi.refactored;
  fam.reused <- fam.reused + u.Block_jacobi.reused;
  fam.setup_tx <- fam.setup_tx +. float_of_int u.Block_jacobi.setup_transactions;
  fam.modelled_us <- fam.modelled_us +. (u.Block_jacobi.modelled_seconds *. 1e6);
  fam.updates <- fam.updates + 1

let traced_apply name (p : Preconditioner.t) =
  if !Spans.enabled then
    let apply = p.Preconditioner.apply in
    { p with Preconditioner.apply = (fun r -> Spans.with_span name (fun () -> apply r)) }
  else p

let make ~pool ~seed =
  let g = grid seed in
  let fresh () =
    let a0, _ = system g g.step0 in
    let (hj, hi), setup_s =
      Wall.time (fun () ->
          ( Spans.with_span "precond.jacobi.create" (fun () ->
                Block_jacobi.handle ~pool ~max_block_size:bound a0),
            Spans.with_span "precond.ilu0.create" (fun () ->
                Block_ilu0.handle ~pool ~max_block_size:bound a0) ))
    in
    let out = Hash64.create () in
    let jf = new_fam () and if_ = new_fam () in
    let iterations = ref [] and waves = ref 0.0 and wave_tx = ref 0.0 in
    let op i =
      let k = g.step0 + i + 1 in
      let a, b = system g k in
      Spans.set_op i;
      let solve name p =
        Spans.with_span "krylov.solve" (fun () -> Idr.solve ~s:4 ~precond:(traced_apply name p) a b)
      in
      let (uj, ui, (xj, sj), (xi, si)), wall =
        Wall.time @@ fun () ->
        Spans.with_span "op" @@ fun () ->
        let uj =
          Spans.with_span "precond.jacobi.update" (fun () -> Block_jacobi.update ~tol:0. hj a)
        in
        let ui =
          Spans.with_span "precond.ilu0.update" (fun () -> Block_ilu0.update ~tol:0. hi a)
        in
        let rj = solve "precond.jacobi.apply" (Block_jacobi.precond hj) in
        let ri = solve "precond.ilu0.apply" (Block_ilu0.precond hi) in
        (uj, ui, rj, ri)
      in
      note jf uj;
      note if_ ui;
      (match !((Block_ilu0.handle_info hi).Block_ilu0.last_apply) with
      | Some s ->
        waves := !waves +. float_of_int (Array.length s.Block_ilu0.waves);
        wave_tx :=
          !wave_tx
          +. Array.fold_left
               (fun t w -> t +. float_of_int w.Block_ilu0.transactions)
               0.0 s.Block_ilu0.waves
      | None -> ());
      List.iter (fun s -> iterations := float_of_int s.Solver.iterations :: !iterations) [ sj; si ];
      Hash64.floats out xj;
      Hash64.floats out xi;
      let solved (x, s) = Solver.converged s && Check.residual_ok a b x in
      let checks =
        [ solved (xj, sj); solved (xi, si) ]
        @ if i mod 8 = 0 then [ same_as_fresh ~pool a hj hi ] else []
      in
      { Workload.op_s = wall; busy_s = wall; problems = 2; setup_s = None;
        attempted = List.length checks;
        failed = List.length (List.filter not checks) }
    in
    let layer_metrics self =
      let fam name f =
        let key = "precond." ^ name in
        let per_update x = Stats.ratio x (float_of_int f.updates) in
        [
          (key ^ ".update_ms", Stats.median (self (key ^ ".update")) /. 1e6);
          (key ^ ".apply_us", Stats.mean (self (key ^ ".apply")) /. 1e3);
          ( key ^ ".dirty_frac",
            Stats.ratio (float_of_int f.refactored) (float_of_int (f.refactored + f.reused)) );
          (key ^ ".setup_tx", per_update f.setup_tx);
          (key ^ ".setup_modelled_us", per_update f.modelled_us);
        ]
      in
      let n name = float_of_int (Array.length (self name)) in
      fam "jacobi" jf @ fam "ilu0" if_
      @ [
          ("precond.ilu0.apply_waves", Stats.ratio !waves (float_of_int if_.updates));
          ("precond.ilu0.apply_tx", Stats.ratio !wave_tx (float_of_int if_.updates));
          ( "precond.apply_calls",
            Stats.ratio (n "precond.jacobi.apply" +. n "precond.ilu0.apply") (n "krylov.solve") );
          ("krylov.self_ms", Stats.median (self "krylov.solve") /. 1e6);
          ("krylov.iterations", Stats.mean (Array.of_list !iterations));
        ]
    in
    ( { Workload.op;
        finish = (fun () -> (0, 0));
        digest = (fun () -> Hash64.hex out);
        layer_metrics;
        report = (fun () -> [ ("iterations", Stats.mean (Array.of_list !iterations)) ]) },
      setup_s )
  in
  {
    Workload.name;
    input_digest = input_digest g;
    cold_setup = false;
    cycle = period;
    setup_repeats = 15;
    fresh;
  }
