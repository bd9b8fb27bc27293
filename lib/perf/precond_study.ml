open Vblu_workloads
open Vblu_precond
open Vblu_krylov
module Pool = Vblu_par.Pool
module Batch = Vblu_core.Batch
module Ctx = Vblu_obs.Ctx

type family = Jacobi | Ilu0 | Ras

let family_label = function
  | Jacobi -> "block-jacobi"
  | Ilu0 -> "block-ilu0"
  | Ras -> "ras-ilu0"

type run = {
  entry : Suite.entry;
  family : family;
  converged : bool;
  iterations : int;
  setup_seconds : float;
  solve_seconds : float;
  blocks : int;
  degraded : int;
  lower_levels : int;
  upper_levels : int;
  apply_waves : int;
  apply_transactions : int;
  modelled_apply_seconds : float;
}

type t = {
  runs : run list;
  max_block_size : int;
  subdomains : int;
  overlap : int;
}

(* Block-Jacobi's whole application is one batched TRSV wave over the
   diagonal blocks; model it as exactly that launch so the per-iteration
   comparison against the level-scheduled waves is like for like. *)
let jacobi_apply_model ?pool blocking a =
  let starts = blocking.Supervariable.starts
  and sizes = blocking.Supervariable.sizes in
  let blocks =
    Array.init (Array.length starts) (fun i ->
        Vblu_sparse.Csr.extract_block a ~row_start:starts.(i) ~size:sizes.(i))
  in
  let batch = Batch.of_matrices blocks in
  let lu = Vblu_core.Batched_lu.factor ?pool batch in
  let rhs = Batch.vec_create sizes in
  let tr =
    Vblu_core.Batched_trsv.solve ?pool ~factors:lu.Vblu_core.Batched_lu.factors
      ~pivots:lu.Vblu_core.Batched_lu.pivots rhs
  in
  let st = tr.Vblu_core.Batched_trsv.stats in
  ( Vblu_simt.Counter.transactions st.Vblu_simt.Launch.total,
    st.Vblu_simt.Launch.time_us *. 1e-6 )

let ilu0_apply_stats (stats : Block_ilu0.apply_stats) =
  let tx =
    Array.fold_left
      (fun acc w -> acc + w.Block_ilu0.transactions)
      0 stats.Block_ilu0.waves
  in
  (Array.length stats.Block_ilu0.waves, tx, stats.Block_ilu0.modelled_seconds)

let one_run ?pool ~policy ~max_block_size ~subdomains ~overlap ?obs entry a b
    family =
  let precond, solve_and_finish =
    match family with
    | Jacobi ->
      let precond, info =
        Block_jacobi.create ?pool ~variant:Block_jacobi.Lu ~policy ?obs
          ~max_block_size a
      in
      let blocking = info.Block_jacobi.blocking in
      let finish () =
        let tx, modelled = jacobi_apply_model ?pool blocking a in
        ( Array.length blocking.Supervariable.starts,
          List.length info.Block_jacobi.degraded_blocks,
          1,
          1,
          1,
          tx,
          modelled )
      in
      (precond, finish)
    | Ilu0 ->
      let precond, info =
        Block_ilu0.create ?pool ~policy ?obs ~max_block_size a
      in
      let finish () =
        (* One explicit application pins down the per-apply waves
           deterministically (the solve's last iteration would do, but an
           unconverged 0-iteration run records nothing). *)
        let _ = Preconditioner.apply precond b in
        let waves, tx, modelled =
          match !(info.Block_ilu0.last_apply) with
          | Some s -> ilu0_apply_stats s
          | None -> (0, 0, 0.0)
        in
        ( Array.length info.Block_ilu0.blocking.Supervariable.starts,
          List.length info.Block_ilu0.degraded_blocks,
          Array.length info.Block_ilu0.lower.Vblu_sparse.Levels.level_sets,
          Array.length info.Block_ilu0.upper.Vblu_sparse.Levels.level_sets,
          waves,
          tx,
          modelled )
      in
      (precond, finish)
    | Ras ->
      let precond, rinfo =
        Block_ilu0.ras ?pool ~policy ?obs ~max_block_size ~subdomains ~overlap
          a
      in
      let finish () =
        let _ = Preconditioner.apply precond b in
        let blocks = ref 0
        and degraded = ref 0
        and lower = ref 1
        and upper = ref 1
        and waves = ref 0
        and tx = ref 0
        and modelled = ref 0.0 in
        Array.iter
          (fun (li : Block_ilu0.info) ->
            blocks :=
              !blocks + Array.length li.Block_ilu0.blocking.Supervariable.starts;
            degraded := !degraded + List.length li.Block_ilu0.degraded_blocks;
            lower :=
              max !lower
                (Array.length li.Block_ilu0.lower.Vblu_sparse.Levels.level_sets);
            upper :=
              max !upper
                (Array.length li.Block_ilu0.upper.Vblu_sparse.Levels.level_sets);
            match !(li.Block_ilu0.last_apply) with
            | Some s ->
              let w, t, m = ilu0_apply_stats s in
              waves := !waves + w;
              tx := !tx + t;
              modelled := !modelled +. m
            | None -> ())
          rinfo.Block_ilu0.local_info;
        (!blocks, !degraded, !lower, !upper, !waves, !tx, !modelled)
      in
      (precond, finish)
  in
  let _, stats = Idr.solve ~precond ?obs ~s:4 a b in
  let blocks, degraded, lower_levels, upper_levels, waves, tx, modelled =
    solve_and_finish ()
  in
  {
    entry;
    family;
    converged = Solver.converged stats;
    iterations = stats.Solver.iterations;
    setup_seconds = precond.Preconditioner.setup_seconds;
    solve_seconds = stats.Solver.solve_seconds;
    blocks;
    degraded;
    lower_levels;
    upper_levels;
    apply_waves = waves;
    apply_transactions = tx;
    modelled_apply_seconds = modelled;
  }

let run_suite ?(quick = false) ?entries ?(families = [ Jacobi; Ilu0; Ras ])
    ?(max_block_size = 16) ?(subdomains = 4) ?(overlap = 8)
    ?(pool = Pool.sequential) ?(policy = Block_jacobi.Identity_block) ?obs
    ?(progress = fun _ -> ()) () =
  let entries =
    match entries with
    | Some es -> es
    | None ->
      if quick then List.filteri (fun i _ -> i < 12) Suite.all else Suite.all
  in
  let prepared =
    List.map
      (fun entry ->
        let a = Suite.matrix entry in
        let n, _ = Vblu_sparse.Csr.dims a in
        let b = Array.make n 1.0 in
        progress
          (Printf.sprintf "%2d/%d %s (n=%d, nnz=%d)" entry.Suite.id
             (List.length entries) entry.Suite.name n (Vblu_sparse.Csr.nnz a));
        (entry, a, b))
      entries
  in
  let jobs =
    Array.of_list
      (List.concat_map
         (fun (entry, a, b) -> List.map (fun f -> (entry, a, b, f)) families)
         prepared)
  in
  (* The (entry × family) jobs fan out across the pool's domains — the
     study loop itself parallelizes — with sequential inner
     preconditioners, so the total domain count stays bounded.  Every
     run's iteration counts and modelled numbers are bitwise identical for
     any domain count (the batched kernels are domain-count invariant),
     which is what the CI cross-domain gate checks; only wall-clock fields
     vary.  Observability: each job records into a [Ctx.sub] child grafted
     back in job order, so traces and metrics stay deterministic. *)
  let subs = Array.map (fun _ -> Ctx.sub obs) jobs in
  let results =
    Pool.parallel_init pool (Array.length jobs) (fun i ->
        let entry, a, b, family = jobs.(i) in
        one_run ~pool:Pool.sequential ~policy ~max_block_size ~subdomains
          ~overlap ?obs:subs.(i) entry a b family)
  in
  Array.iter (fun s -> Ctx.graft ~into:obs s) subs;
  { runs = Array.to_list results; max_block_size; subdomains; overlap }

let find t entry family =
  List.find_opt
    (fun r -> r.entry.Suite.id = entry.Suite.id && r.family = family)
    t.runs

let iteration_improvements t =
  List.filter_map
    (fun e ->
      match (find t e Jacobi, find t e Ilu0) with
      | Some j, Some i -> Some (j, i)
      | _ -> None)
    (List.sort_uniq
       (fun a b -> compare a.Suite.id b.Suite.id)
       (List.map (fun r -> r.entry) t.runs))

let total_seconds r = r.setup_seconds +. r.solve_seconds
