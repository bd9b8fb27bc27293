open Vblu_smallblas
open Vblu_sparse
open Vblu_core
open Vblu_precond
open Vblu_fault

type precond = Jacobi | Ilu0

type problem = {
  a : Csr.t;
  rhs : Vector.t;
  max_block_size : int;
  precond : precond;
}

let validate p =
  let n, cols = Csr.dims p.a in
  if n <> cols then
    Error (Printf.sprintf "matrix not square (%dx%d)" n cols)
  else if Array.length p.rhs <> n then
    Error
      (Printf.sprintf "rhs length %d does not match dimension %d"
         (Array.length p.rhs) n)
  else if p.max_block_size < 1 || p.max_block_size > 32 then
    Error
      (Printf.sprintf "max_block_size %d outside the warp range 1..32"
         p.max_block_size)
  else
    let bad v = Array.find_index (fun x -> not (Float.is_finite x)) v in
    match (bad p.a.Csr.values, bad p.rhs) with
    | Some q, _ ->
      let row = ref 0 in
      while p.a.Csr.row_ptr.(!row + 1) <= q do
        incr row
      done;
      Error
        (Printf.sprintf "non-finite matrix entry %g at row %d, column %d"
           p.a.Csr.values.(q) !row p.a.Csr.col_idx.(q))
    | None, Some i ->
      Error (Printf.sprintf "non-finite rhs entry %g at index %d" p.rhs.(i) i)
    | None, None -> Ok ()

type outcome = {
  y : Vector.t;
  blocks : int;
  degraded_blocks : int list;
  faulted_blocks : int list;
}

type launch_report = {
  outcomes : outcome array;
  problems : int;
  coalesced_blocks : int;
  setup_fresh_blocks : int;
  setup_reused_blocks : int;
  modelled_seconds : float;
}

let empty_report =
  { outcomes = [||]; problems = 0; coalesced_blocks = 0;
    setup_fresh_blocks = 0; setup_reused_blocks = 0; modelled_seconds = 0.0 }

(* One block-ILU(0) request: a Block_ilu0 handle — the cached one on a
   fingerprint hit, refreshed by [update ~tol:0.] (whose factors are
   bitwise the fresh ones, and which re-eliminates rows ABFT flagged),
   else a new one — and one level-scheduled apply, priced at its
   modelled wave times. *)
let run_ilu0 ~pool ~prec ?faults ~abft ?cache ?obs (p : problem) =
  let max_block_size = p.max_block_size in
  let h =
    match
      Option.bind cache (fun c ->
          Setup_cache.find c Setup_cache.Ilu0 ~a:p.a ~max_block_size)
    with
    | Some h ->
      ignore (Block_ilu0.update ~tol:0.0 h p.a);
      h
    | None ->
      let h =
        Block_ilu0.handle ~pool ~prec ?faults ~abft ?obs ~max_block_size p.a
      in
      Option.iter
        (fun c -> Setup_cache.store c Setup_cache.Ilu0 ~a:p.a ~max_block_size h)
        cache;
      h
  in
  let y = (Block_ilu0.precond h).Preconditioner.apply p.rhs in
  let info = Block_ilu0.handle_info h and u = Block_ilu0.last_update h in
  let apply_modelled =
    match !(info.Block_ilu0.last_apply) with
    | Some s -> s.Block_ilu0.modelled_seconds
    | None -> 0.0
  in
  ( {
      y;
      blocks = Array.length info.Block_ilu0.blocking.Supervariable.starts;
      degraded_blocks = info.Block_ilu0.degraded_blocks;
      faulted_blocks = info.Block_ilu0.corrupt_blocks;
    },
    u.Block_jacobi.refactored,
    u.Block_jacobi.reused,
    u.Block_jacobi.modelled_seconds +. apply_modelled )

(* The coalesced block-Jacobi path over a subset of the wave's problems;
   returns one outcome per subset member, in subset order.  Each problem
   gets a Block_jacobi handle: the cached one on a fingerprint hit, else
   a new one.  One multi-handle refresh factors every dirty block of the
   wave in one LU launch; one TRSV launch then solves every block against
   the handles' packed factors, and the scatter copies each solution
   segment out — or the rhs segment for a block that broke down, the
   same identity fallback (and bits) as Block_jacobi's. *)
let run_jacobi ~pool ~prec ?faults ~abft ?cache ?obs (problems : problem array)
    =
  if Array.length problems = 0 then empty_report
  else begin
    let found =
      Array.map
        (fun p ->
          Option.bind cache (fun c ->
              Setup_cache.find c Setup_cache.Jacobi ~a:p.a
                ~max_block_size:p.max_block_size))
        problems
    in
    (* Every lookup precedes every store, and a fingerprint recurring
       within the wave gets a copy of the cached handle taken before the
       refresh: each occurrence is diffed against the same snapshot, and
       the last one owns the entry afterwards. *)
    let taken = ref [] in
    let handles =
      Array.mapi
        (fun i p ->
          match found.(i) with
          | Some h when not (List.memq h !taken) ->
            taken := h :: !taken;
            h
          | hit ->
            let h =
              match hit with
              | Some h -> Block_jacobi.copy h
              | None ->
                Block_jacobi.unfactored ~pool ~prec ?obs
                  ~max_block_size:p.max_block_size p.a
            in
            Option.iter
              (fun c ->
                Setup_cache.store c Setup_cache.Jacobi ~a:p.a
                  ~max_block_size:p.max_block_size h)
              cache;
            h)
        problems
    in
    let setup, setup_us =
      Block_jacobi.refresh ?faults ~abft
        (Array.mapi (fun i h -> (h, problems.(i).a)) handles)
    in
    let blockings = Array.map Block_jacobi.handle_blocking handles in
    let factors =
      Array.concat
        (Array.to_list (Array.map Block_jacobi.handle_packed handles))
    in
    let segments =
      Array.concat
        (Array.to_list
           (Array.mapi
              (fun i blk ->
                Array.map2
                  (fun st s -> Array.sub problems.(i).rhs st s)
                  blk.Supervariable.starts blk.Supervariable.sizes)
              blockings))
    in
    let tr =
      Batched_trsv.solve ~pool ~prec ~abft ?obs
        ~factors:(Batch.of_matrices (Array.map (fun f -> f.Lu.lu) factors))
        ~pivots:(Array.map (fun f -> f.Lu.perm) factors)
        (Batch.vec_of_vectors segments)
    in
    (* Scatter, in wave order: global block [g] is problem [i]'s block [j].
       A block flagged by either launch's ABFT verdict is retried by the
       service and refactored by the handle's next refresh. *)
    let g = ref 0 in
    let outcomes =
      Array.mapi
        (fun i h ->
          let blk = blockings.(i) in
          let rhs = problems.(i).rhs in
          let y = Array.make (Array.length rhs) 0.0 in
          let degraded = ref [] and faulted = ref [] in
          Array.iteri
            (fun j st ->
              let s = blk.Supervariable.sizes.(j) in
              if
                Block_jacobi.is_singular h j
                || tr.Batched_trsv.info.(!g) <> 0
              then begin
                degraded := j :: !degraded;
                Array.blit rhs st y st s
              end
              else begin
                let seg = Batch.vec_get tr.Batched_trsv.solutions !g in
                Array.blit seg 0 y st s;
                if
                  Block_jacobi.is_corrupt h j
                  || tr.Batched_trsv.verdicts.(!g) = Fault.Failed
                then begin
                  faulted := j :: !faulted;
                  Block_jacobi.invalidate h j
                end
              end;
              incr g)
            blk.Supervariable.starts;
          { y; blocks = Array.length blk.Supervariable.starts;
            degraded_blocks = List.rev !degraded;
            faulted_blocks = List.rev !faulted })
        handles
    in
    {
      outcomes;
      problems = Array.length problems;
      coalesced_blocks = !g;
      setup_fresh_blocks = setup.Block_jacobi.refactored;
      setup_reused_blocks = setup.Block_jacobi.reused;
      modelled_seconds =
        (setup_us +. tr.Batched_trsv.stats.Vblu_simt.Launch.time_us) *. 1e-6;
    }
  end

let run ?(pool = Vblu_par.Pool.sequential) ?(prec = Precision.Double) ?faults
    ?(abft = false) ?cache ?obs (problems : problem array) =
  let np = Array.length problems in
  if np = 0 then empty_report
  else begin
    Array.iter
      (fun p ->
        match validate p with
        | Ok () -> ()
        | Error msg -> invalid_arg ("Serve.Batcher.run: " ^ msg))
      problems;
    (* Fault waves bypass the cache, in both families: a plan addresses
       blocks by their place in this wave's launches, which reuse would
       shift, and a handle built under a plan keeps it armed. *)
    let cache = if faults = None then cache else None in
    let jac_idx = ref [] and ilu_idx = ref [] in
    Array.iteri
      (fun i p ->
        match p.precond with
        | Jacobi -> jac_idx := i :: !jac_idx
        | Ilu0 -> ilu_idx := i :: !ilu_idx)
      problems;
    let jac_idx = Array.of_list (List.rev !jac_idx)
    and ilu_idx = Array.of_list (List.rev !ilu_idx) in
    let jac_report =
      run_jacobi ~pool ~prec ?faults ~abft ?cache ?obs
        (Array.map (fun i -> problems.(i)) jac_idx)
    in
    let outcomes =
      Array.make np
        { y = [||]; blocks = 0; degraded_blocks = []; faulted_blocks = [] }
    in
    Array.iteri
      (fun j i -> outcomes.(i) <- jac_report.outcomes.(j))
      jac_idx;
    let coalesced = ref jac_report.coalesced_blocks
    and modelled = ref jac_report.modelled_seconds in
    let ilu_fresh = ref 0 and ilu_reused = ref 0 in
    Array.iter
      (fun i ->
        let outcome, fresh, reused, seconds =
          run_ilu0 ~pool ~prec ?faults ~abft ?cache ?obs problems.(i)
        in
        outcomes.(i) <- outcome;
        coalesced := !coalesced + outcome.blocks;
        ilu_fresh := !ilu_fresh + fresh;
        ilu_reused := !ilu_reused + reused;
        modelled := !modelled +. seconds)
      ilu_idx;
    if Array.length jac_idx > 0 then
      Vblu_obs.Setup_metrics.record obs ~family:"jacobi"
        ~fresh:jac_report.setup_fresh_blocks
        ~reused:jac_report.setup_reused_blocks
        ~dirty:jac_report.setup_fresh_blocks;
    if Array.length ilu_idx > 0 then
      Vblu_obs.Setup_metrics.record obs ~family:"ilu0" ~fresh:!ilu_fresh
        ~reused:!ilu_reused ~dirty:!ilu_fresh;
    {
      outcomes;
      problems = np;
      coalesced_blocks = !coalesced;
      setup_fresh_blocks = jac_report.setup_fresh_blocks + !ilu_fresh;
      setup_reused_blocks = jac_report.setup_reused_blocks + !ilu_reused;
      modelled_seconds = !modelled;
    }
  end
