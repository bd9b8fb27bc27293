open Vblu_workloads
open Vblu_precond
open Vblu_krylov
module Pool = Vblu_par.Pool
module Batch = Vblu_core.Batch
module Ctx = Vblu_obs.Ctx

type spec =
  | Block_jacobi of Block_jacobi.variant * int
  | Ilu0 of int
  | Ras of { bound : int; subdomains : int; overlap : int }

let label = function
  | Block_jacobi _ -> "block-jacobi"
  | Ilu0 _ -> "block-ilu0"
  | Ras _ -> "ras-ilu0"

(* GH runs before LU at each bound, and GJE before GH-T: the grafted
   trace follows the job order, and fig8's trace file is pinned to this
   one. *)
let sweep ~quick =
  let bj v b = Block_jacobi (v, b) in
  let bounds = if quick then [ 8; 32 ] else [ 8; 12; 16; 24; 32 ] in
  (bj Block_jacobi.Scalar 1
  :: List.concat_map
       (fun b -> [ bj Block_jacobi.Gh b; bj Block_jacobi.Lu b ])
       bounds)
  @ [ bj Block_jacobi.Gje_inverse 32; bj Block_jacobi.Ght 32 ]

let families ~bound ~subdomains ~overlap =
  [
    Block_jacobi (Block_jacobi.Lu, bound);
    Ilu0 bound;
    Ras { bound; subdomains; overlap };
  ]

type info =
  | Jacobi_info of Block_jacobi.info
  | Ilu0_info of Block_ilu0.info
  | Ras_info of Block_ilu0.ras_info

let build ?pool ?policy ?faults ?abft ?recovery ?obs spec a =
  match spec with
  | Block_jacobi (variant, bound) ->
    let p, info =
      Block_jacobi.create ?pool ~variant ?policy ?faults ?abft ?recovery ?obs
        ~max_block_size:bound a
    in
    (p, Jacobi_info info)
  | Ilu0 bound ->
    let p, info =
      Block_ilu0.create ?pool ?policy ?faults ?abft ?recovery ?obs
        ~max_block_size:bound a
    in
    (p, Ilu0_info info)
  | Ras { bound; subdomains; overlap } ->
    let p, info =
      Block_ilu0.ras ?pool ?policy ?faults ?abft ?recovery ?obs
        ~max_block_size:bound ~subdomains ~overlap a
    in
    (p, Ras_info info)

type run = {
  entry : Suite.entry;
  spec : spec;
  converged : bool;
  iterations : int;
  setup_seconds : float;
  solve_seconds : float;
  blocks : int;
  degraded : int;
  perturbed : int;
  lower_levels : int;
  upper_levels : int;
  apply_waves : int;
  apply_transactions : int;
  modelled_apply_seconds : float;
}

type t = { specs : spec list; runs : run list }

(* Block-Jacobi's whole application is one batched TRSV wave over the
   diagonal blocks; model it as exactly that launch so the per-iteration
   comparison against the level-scheduled waves is like for like. *)
let jacobi_apply_model blocking a =
  let starts = blocking.Supervariable.starts
  and sizes = blocking.Supervariable.sizes in
  let blocks =
    Array.init (Array.length starts) (fun i ->
        Vblu_sparse.Csr.extract_block a ~row_start:starts.(i) ~size:sizes.(i))
  in
  let lu = Vblu_core.Batched_lu.factor (Batch.of_matrices blocks) in
  let tr =
    Vblu_core.Batched_trsv.solve ~factors:lu.Vblu_core.Batched_lu.factors
      ~pivots:lu.Vblu_core.Batched_lu.pivots (Batch.vec_create sizes)
  in
  let st = tr.Vblu_core.Batched_trsv.stats in
  ( Vblu_simt.Counter.transactions st.Vblu_simt.Launch.total,
    st.Vblu_simt.Launch.time_us *. 1e-6 )

(* Adds one block-ILU(0) factorization's blocks, outcomes, depths and
   last-apply waves to [r]: once for ILU(0), once per RAS subdomain. *)
let add_ilu0 r (li : Block_ilu0.info) =
  let depth s = Array.length s.Vblu_sparse.Levels.level_sets in
  let waves, tx, modelled =
    match !(li.Block_ilu0.last_apply) with
    | Some s ->
      ( Array.length s.Block_ilu0.waves,
        Array.fold_left
          (fun acc w -> acc + w.Block_ilu0.transactions)
          0 s.Block_ilu0.waves,
        s.Block_ilu0.modelled_seconds )
    | None -> (0, 0, 0.0)
  in
  {
    r with
    blocks =
      r.blocks + Array.length li.Block_ilu0.blocking.Supervariable.starts;
    degraded = r.degraded + List.length li.Block_ilu0.degraded_blocks;
    perturbed = r.perturbed + List.length li.Block_ilu0.perturbed_blocks;
    lower_levels = max r.lower_levels (depth li.Block_ilu0.lower);
    upper_levels = max r.upper_levels (depth li.Block_ilu0.upper);
    apply_waves = r.apply_waves + waves;
    apply_transactions = r.apply_transactions + tx;
    modelled_apply_seconds = r.modelled_apply_seconds +. modelled;
  }

let one_run ~policy ?faults ~abft ?recovery ?obs (entry, a, b) spec =
  let build ?obs () =
    build ~pool:Pool.sequential ~policy ?faults ~abft ?recovery ?obs spec a
  in
  let precond, info = build ?obs () in
  let refresh_precond =
    if abft then Some (fun () -> fst (build ())) else None
  in
  let _, stats = Idr.solve ~precond ?refresh_precond ?obs ~s:4 a b in
  let r =
    {
      entry;
      spec;
      converged = Solver.converged stats;
      iterations = stats.Solver.iterations;
      setup_seconds = precond.Preconditioner.setup_seconds;
      solve_seconds = stats.Solver.solve_seconds;
      blocks = 0;
      degraded = 0;
      perturbed = 0;
      lower_levels = 1;
      upper_levels = 1;
      apply_waves = 0;
      apply_transactions = 0;
      modelled_apply_seconds = 0.0;
    }
  in
  match info with
  | Jacobi_info info ->
    let blocking = info.Block_jacobi.blocking in
    let tx, modelled = jacobi_apply_model blocking a in
    {
      r with
      blocks = Array.length blocking.Supervariable.starts;
      degraded = List.length info.Block_jacobi.degraded_blocks;
      perturbed = List.length info.Block_jacobi.perturbed_blocks;
      apply_waves = 1;
      apply_transactions = tx;
      modelled_apply_seconds = modelled;
    }
  | Ilu0_info li ->
    (* One explicit application pins down the per-apply waves (an
       unconverged 0-iteration solve records none). *)
    ignore (Preconditioner.apply precond b);
    add_ilu0 r li
  | Ras_info ri ->
    ignore (Preconditioner.apply precond b);
    Array.fold_left add_ilu0 r ri.Block_ilu0.local_info

let run ?(quick = false) ?entries ?(pool = Pool.sequential)
    ?(policy = Block_jacobi.Identity_block) ?faults ?(abft = false) ?recovery
    ?obs ?(progress = fun _ -> ()) specs =
  let entries =
    match entries with
    | Some es -> es
    | None ->
      if quick then List.filteri (fun i _ -> i < 12) Suite.all else Suite.all
  in
  let matrices =
    List.map
      (fun entry ->
        let a = Suite.matrix entry in
        let n, _ = Vblu_sparse.Csr.dims a in
        progress
          (Printf.sprintf "%2d/%d %s (n=%d, nnz=%d)" entry.Suite.id
             (List.length entries) entry.Suite.name n (Vblu_sparse.Csr.nnz a));
        (entry, a, Array.make n 1.0))
      entries
  in
  let jobs =
    Array.of_list
      (List.concat_map (fun m -> List.map (fun s -> (m, s)) specs) matrices)
  in
  (* The (matrix × spec) jobs fan out across the pool's domains with
     sequential inner preconditioners, so the total domain count stays
     bounded.  Each job records into its own [Ctx.sub] child, grafted back
     in job order, so traces and metrics are deterministic too.  Each job
     also gets its own copy of the fault plan: claims are one-shot per
     plan, so a shared plan would let the domain schedule decide which
     job absorbs a fault. *)
  let subs = Array.map (fun _ -> Ctx.sub obs) jobs in
  let plan_copy p =
    Result.get_ok Vblu_fault.Fault.Plan.(of_spec (to_spec p))
  in
  let plans = Array.map (fun _ -> Option.map plan_copy faults) jobs in
  let runs =
    Pool.parallel_init pool (Array.length jobs) (fun i ->
        let m, spec = jobs.(i) in
        one_run ~policy ?faults:plans.(i) ~abft ?recovery ?obs:subs.(i) m spec)
  in
  Array.iter (fun s -> Ctx.graft ~into:obs s) subs;
  { specs; runs = Array.to_list runs }

let find t entry spec =
  List.find_opt
    (fun r -> r.entry.Suite.id = entry.Suite.id && r.spec = spec)
    t.runs

let total_seconds r = r.setup_seconds +. r.solve_seconds

type verdict = {
  improved : int;
  compared : int;
  convection_improved : int;
  convection : int;
}

let ilu0_verdict t =
  let pairs =
    List.filter_map
      (fun i ->
        match i.spec with
        | Ilu0 bound ->
          Option.map
            (fun j -> (j, i))
            (find t i.entry (Block_jacobi (Block_jacobi.Lu, bound)))
        | _ -> None)
      t.runs
  in
  let count p = List.length (List.filter p pairs) in
  let better (j, i) = i.iterations < j.iterations in
  let convection (j, _) = j.entry.Suite.family = Suite.Convection in
  {
    improved = count better;
    compared = List.length pairs;
    convection_improved = count (fun p -> convection p && better p);
    convection = count convection;
  }
