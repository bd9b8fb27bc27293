open Vblu_smallblas
open Vblu_core
module S = Vblu_simt.Sampling
module L = Vblu_simt.Launch
module Pool = Vblu_par.Pool

(* Order-preserving parallel map over the rows of a sweep.  Each row builds
   its own batches from fixed seeds and runs its kernels sequentially, so
   rows are independent and the printed series is identical for any domain
   count; parallelism is applied here (one level only) rather than inside
   the Sampled-mode kernels, which execute just one warp per size class. *)
let pmap pool f lst = Array.to_list (Pool.parallel_map pool f (Array.of_list lst))

(* Observability-aware variant: one child context per row (not per
   domain), grafted back in row order after the join, so the merged trace
   and metrics are bit-identical for any domain count. *)
let pmap_obs obs pool f lst =
  let arr = Array.of_list lst in
  let n = Array.length arr in
  let subs = Array.init n (fun _ -> Vblu_obs.Ctx.sub obs) in
  let results = Pool.parallel_init pool n (fun i -> f subs.(i) arr.(i)) in
  Array.iter (fun child -> Vblu_obs.Ctx.graft ~into:obs child) subs;
  Array.to_list results

(* A uniform batch where only the representative block (index 0) carries
   data — all Sampled-mode runs execute exactly that block. *)
let representative_batch ?(layout = Batch.Blocked) ~count ~size () =
  let sizes = Batch.uniform_sizes ~count ~size in
  let b = Batch.create ~layout sizes in
  let st = Random.State.make [| 0xf19; size |] in
  Batch.set_matrix b 0 (Matrix.random_diagdom ~state:st size);
  b

let gflops (s : L.stats) = Some s.L.gflops

type routine = R_lu | R_gh | R_ght | R_cublas

let routine_name = function
  | R_lu -> "small-LU"
  | R_gh -> "GH"
  | R_ght -> "GH-T"
  | R_cublas -> "cuBLAS"

let routines = [ R_lu; R_gh; R_ght; R_cublas ]

let getrf_stats ?obs ?layout ~prec ~count ~size r =
  let b = representative_batch ?layout ~count ~size () in
  match r with
  | R_lu -> (Batched_lu.factor ~prec ~mode:S.Sampled ?obs b).Batched_lu.stats
  | R_gh -> (Batched_gh.factor ~prec ~mode:S.Sampled ?obs b).Batched_gh.stats
  | R_ght ->
    (Batched_gh.factor ~prec ~mode:S.Sampled ~storage:Gauss_huard.Transposed
       ?obs b)
      .Batched_gh.stats
  | R_cublas ->
    (Cublas_model.factor ~prec ~mode:S.Sampled ?obs b).Cublas_model.stats

let trsv_stats ?obs ?layout ~prec ~count ~size r =
  let b = representative_batch ?layout ~count ~size () in
  let rhs = Batch.vec_random ?layout b.Batch.sizes in
  match r with
  | R_lu ->
    let f = Batched_lu.factor ~prec ~mode:S.Sampled b in
    (Batched_trsv.solve ~prec ~mode:S.Sampled ?obs ~factors:f.Batched_lu.factors
       ~pivots:f.Batched_lu.pivots rhs)
      .Batched_trsv.stats
  | R_gh ->
    let f = Batched_gh.factor ~prec ~mode:S.Sampled b in
    (Batched_gh.solve ~prec ~mode:S.Sampled ?obs f rhs).Batched_gh.solve_stats
  | R_ght ->
    let f =
      Batched_gh.factor ~prec ~mode:S.Sampled ~storage:Gauss_huard.Transposed b
    in
    (Batched_gh.solve ~prec ~mode:S.Sampled ?obs f rhs).Batched_gh.solve_stats
  | R_cublas ->
    let f = Cublas_model.factor ~prec ~mode:S.Sampled b in
    (Cublas_model.solve ~prec ~mode:S.Sampled ?obs f rhs)
      .Cublas_model.solve_stats

let batch_sweep quick =
  if quick then [ 500; 5_000; 40_000 ]
  else [ 500; 1_000; 2_000; 5_000; 10_000; 15_000; 20_000; 30_000; 40_000 ]

let size_sweep quick =
  if quick then [ 4; 8; 16; 24; 32 ]
  else List.init 31 (fun i -> i + 2)

let precisions = [ Precision.Single; Precision.Double ]

(* Titles only mention the layout when it is not the default, so the
   blocked series keep their historical names (shape tests key on them). *)
let layout_suffix = function
  | None | Some Batch.Blocked -> ""
  | Some Batch.Interleaved -> ", interleaved"

let vs_batch_series ?obs ?layout ~stats_of ~what ~pool quick =
  List.concat_map
    (fun prec ->
      List.map
        (fun size ->
          let rows =
            pmap_obs obs pool
              (fun obs count ->
                ( float_of_int count,
                  List.map
                    (fun r ->
                      gflops (stats_of ?obs ?layout ~prec ~count ~size r))
                    routines ))
              (batch_sweep quick)
          in
          {
            Report.title =
              Printf.sprintf "%s GFLOPS vs batch size — block size %d, %s%s"
                what size (Precision.to_string prec) (layout_suffix layout);
            xlabel = "batch";
            columns = List.map routine_name routines;
            rows;
          })
        [ 16; 32 ])
    precisions

let vs_size_series ?obs ?layout ~stats_of ~what ~count ~pool quick =
  List.map
    (fun prec ->
      let rows =
        pmap_obs obs pool
          (fun obs size ->
            ( float_of_int size,
              List.map
                (fun r -> gflops (stats_of ?obs ?layout ~prec ~count ~size r))
                routines ))
          (size_sweep quick)
      in
      {
        Report.title =
          Printf.sprintf "%s GFLOPS vs matrix size — batch %d, %s%s" what
            count (Precision.to_string prec) (layout_suffix layout);
        xlabel = "size";
        columns = List.map routine_name routines;
        rows;
      })
    precisions

let fig4_series ?(quick = false) ?(pool = Pool.sequential) ?obs ?layout () =
  vs_batch_series ?obs ?layout ~stats_of:getrf_stats ~what:"GETRF" ~pool quick

let fig5_series ?(quick = false) ?(pool = Pool.sequential) ?obs ?layout () =
  vs_size_series ?obs ?layout ~stats_of:getrf_stats ~what:"GETRF"
    ~count:(if quick then 5_000 else 40_000)
    ~pool quick

let fig6_series ?(quick = false) ?(pool = Pool.sequential) ?obs ?layout () =
  vs_batch_series ?obs ?layout ~stats_of:trsv_stats ~what:"TRSV" ~pool quick

let fig7_series ?(quick = false) ?(pool = Pool.sequential) ?obs ?layout () =
  vs_size_series ?obs ?layout ~stats_of:trsv_stats ~what:"TRSV"
    ~count:(if quick then 5_000 else 40_000)
    ~pool quick

let print_all ppf series = List.iter (Report.print_series ppf) series

let fig4 ?quick ?pool ?obs ?layout ppf =
  Report.section ppf "Figure 4 — batched factorization vs batch size";
  print_all ppf (fig4_series ?quick ?pool ?obs ?layout ())

let fig5 ?quick ?pool ?obs ?layout ppf =
  Report.section ppf "Figure 5 — batched factorization vs matrix size";
  print_all ppf (fig5_series ?quick ?pool ?obs ?layout ())

let fig6 ?quick ?pool ?obs ?layout ppf =
  Report.section ppf "Figure 6 — batched triangular solves vs batch size";
  print_all ppf (fig6_series ?quick ?pool ?obs ?layout ())

let fig7 ?quick ?pool ?obs ?layout ppf =
  Report.section ppf "Figure 7 — batched triangular solves vs matrix size";
  print_all ppf (fig7_series ?quick ?pool ?obs ?layout ())

(* The pivoting ablation needs blocks that actually pivot: a diagonally
   dominant representative would never swap and the explicit kernel's row
   exchanges would never fire. *)
let pivoting_batch ~count ~size =
  let sizes = Batch.uniform_sizes ~count ~size in
  let b = Batch.create sizes in
  let st = Random.State.make [| 0xf20; size |] in
  Batch.set_matrix b 0 (Matrix.random_general ~state:st size);
  b

let ablation_pivot ?(quick = false) ?(pool = Pool.sequential) ppf =
  Report.section ppf
    "Ablation A — pivoting strategies in the register LU kernel";
  let count = if quick then 5_000 else 40_000 in
  List.iter
    (fun prec ->
      let rows =
        pmap pool
          (fun size ->
            let b = pivoting_batch ~count ~size in
            let run pivoting =
              gflops
                (Batched_lu.factor ~prec ~mode:S.Sampled ~pivoting b)
                  .Batched_lu.stats
            in
            ( float_of_int size,
              [
                run Batched_lu.Implicit;
                run Batched_lu.Explicit;
                run Batched_lu.No_pivoting;
              ] ))
          (size_sweep quick)
      in
      Report.print_series ppf
        {
          Report.title =
            Printf.sprintf "GETRF GFLOPS by pivoting — batch %d, %s" count
              (Precision.to_string prec);
          xlabel = "size";
          columns = [ "implicit"; "explicit"; "none" ];
          rows;
        })
    precisions

let ablation_trsv ?(quick = false) ?(pool = Pool.sequential) ppf =
  Report.section ppf "Ablation B — eager vs lazy triangular solve";
  let count = if quick then 5_000 else 40_000 in
  List.iter
    (fun prec ->
      let rows =
        pmap pool
          (fun size ->
            let b = representative_batch ~count ~size () in
            let f = Batched_lu.factor ~prec ~mode:S.Sampled b in
            let rhs = Batch.vec_random b.Batch.sizes in
            let run variant =
              gflops
                (Batched_trsv.solve ~prec ~mode:S.Sampled ~variant
                   ~factors:f.Batched_lu.factors ~pivots:f.Batched_lu.pivots rhs)
                  .Batched_trsv.stats
            in
            ( float_of_int size,
              [ run Batched_trsv.Eager; run Batched_trsv.Lazy ] ))
          (size_sweep quick)
      in
      Report.print_series ppf
        {
          Report.title =
            Printf.sprintf "TRSV GFLOPS by variant — batch %d, %s" count
              (Precision.to_string prec);
          xlabel = "size";
          columns = [ "eager"; "lazy" ];
          rows;
        })
    precisions

(* SPD representative: B·Bᵀ + n·I. *)
let spd_representative_batch ~count ~size =
  let sizes = Batch.uniform_sizes ~count ~size in
  let b = Batch.create sizes in
  let st = Random.State.make [| 0x59d; size |] in
  let r = Matrix.random ~state:st size size in
  let a = Matrix.matmul r (Matrix.transpose r) in
  let spd =
    Matrix.init size size (fun i j ->
        Matrix.get a i j +. if i = j then float_of_int size else 0.0)
  in
  Batch.set_matrix b 0 spd;
  b

let ablation_cholesky ?(quick = false) ?(pool = Pool.sequential) ppf =
  Report.section ppf
    "Ablation E — Cholesky (future-work kernel) vs pivoted LU on SPD batches";
  let count = if quick then 5_000 else 40_000 in
  List.iter
    (fun prec ->
      let rows =
        pmap pool
          (fun size ->
            let b = spd_representative_batch ~count ~size in
            let rhs = Batch.vec_random b.Batch.sizes in
            let lu = Batched_lu.factor ~prec ~mode:S.Sampled b in
            let ch = Batched_cholesky.factor ~prec ~mode:S.Sampled b in
            let lu_trsv =
              Batched_trsv.solve ~prec ~mode:S.Sampled
                ~factors:lu.Batched_lu.factors ~pivots:lu.Batched_lu.pivots rhs
            in
            let ch_trsv =
              Batched_cholesky.solve ~prec ~mode:S.Sampled
                ~factors:ch.Batched_cholesky.factors rhs
            in
            ( float_of_int size,
              [
                gflops lu.Batched_lu.stats;
                gflops ch.Batched_cholesky.stats;
                (* GFLOPS hide that Cholesky is credited half the flops
                   while SIMT lane masking prevents halving the issue
                   slots — the time ratio is the honest comparison. *)
                Some
                  (lu.Batched_lu.stats.L.time_us
                  /. ch.Batched_cholesky.stats.L.time_us);
                gflops lu_trsv.Batched_trsv.stats;
                gflops ch_trsv.Batched_trsv.stats;
              ] ))
          (size_sweep quick)
      in
      Report.print_series ppf
        {
          Report.title =
            Printf.sprintf
              "SPD factorization/solve — batch %d, %s (GFLOPS credit: 2/3 n^3 \
               LU vs n^3/3 Cholesky; chol-speedup = LU time / chol time)"
              count (Precision.to_string prec);
          xlabel = "size";
          columns =
            [ "LU-getrf"; "chol-getrf"; "chol-speedup"; "LU-trsv"; "chol-trsv" ];
          rows;
        })
    precisions

(* Draw a realistic variable-size batch: the supervariable blocking of a
   suite matrix, with the sizes replicated out to [target] blocks and one
   representative block per distinct size. *)
let blocking_batch ~target (entry : Vblu_workloads.Suite.entry) ~bound =
  let a = Vblu_workloads.Suite.matrix entry in
  let blk = Vblu_precond.Supervariable.blocking ~max_block_size:bound a in
  let base = blk.Vblu_precond.Supervariable.sizes in
  let sizes = Array.init target (fun i -> base.(i mod Array.length base)) in
  let b = Batch.create sizes in
  let seen = Hashtbl.create 8 in
  Array.iteri
    (fun i s ->
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.add seen s ();
        let st = Random.State.make [| 0xab1e; s |] in
        Batch.set_matrix b i (Matrix.random_diagdom ~state:st s)
      end)
    sizes;
  (b, Array.fold_left max 0 sizes)

let ablation_variable_size ?(quick = false) ?(pool = Pool.sequential) ppf =
  Report.section ppf
    "Ablation F — variable-size batches from real supervariable blockings";
  let target = if quick then 5_000 else 40_000 in
  let prec = Precision.Double in
  let entries =
    List.filter
      (fun (e : Vblu_workloads.Suite.entry) ->
        List.mem e.Vblu_workloads.Suite.name
          [ "bcsstk38"; "F2"; "s1rmq4m1"; "ecology2" ])
      Vblu_workloads.Suite.all
  in
  (* Synthetic size mixes complement the (near-uniform) suite blockings:
     with homogeneous supervariables, agglomeration packs every block to
     the bound, so heterogeneous mixes must be injected explicitly. *)
  let synthetic =
    [
      ( "uniform 4..32",
        Batch.random_sizes
          ~state:(Random.State.make [| 0x51ce; 1 |])
          ~count:target ~min_size:4 ~max_size:32 () );
      ( "bimodal 5|32",
        Array.init target (fun i -> if i mod 2 = 0 then 5 else 32) );
      ( "small-heavy 4..12",
        Batch.random_sizes
          ~state:(Random.State.make [| 0x51ce; 2 |])
          ~count:target ~min_size:4 ~max_size:12 () );
    ]
  in
  let batch_of_sizes sizes =
    let b = Batch.create sizes in
    let seen = Hashtbl.create 8 in
    Array.iteri
      (fun i s ->
        if not (Hashtbl.mem seen s) then begin
          Hashtbl.add seen s ();
          let st = Random.State.make [| 0xab1e; s |] in
          Batch.set_matrix b i (Matrix.random_diagdom ~state:st s)
        end)
      sizes;
    (b, Array.fold_left max 0 sizes)
  in
  let cases =
    List.map
      (fun (e : Vblu_workloads.Suite.entry) ->
        ( "blocking of " ^ e.Vblu_workloads.Suite.name,
          blocking_batch ~target e ~bound:32 ))
      entries
    @ List.map (fun (name, sizes) -> (name, batch_of_sizes sizes)) synthetic
  in
  let rows =
    pmap pool
      (fun (name, (b, max_size)) ->
        let lu = Batched_lu.factor ~prec ~mode:S.Sampled b in
        let gh = Batched_gh.factor ~prec ~mode:S.Sampled b in
        (* The fixed-size strategy a cuBLAS-style API forces: pad every
           block to the batch maximum and run the uniform kernel. *)
        let padded =
          let sizes = Batch.uniform_sizes ~count:target ~size:max_size in
          let pb = Batch.create sizes in
          let st = Random.State.make [| 0xab1e; max_size |] in
          Batch.set_matrix pb 0 (Matrix.random_diagdom ~state:st max_size);
          Cublas_model.factor ~prec ~mode:S.Sampled pb
        in
        let mean =
          Array.fold_left ( + ) 0 b.Batch.sizes
          |> fun t -> float_of_int t /. float_of_int target
        in
        [
          name;
          Printf.sprintf "%.1f" mean;
          string_of_int max_size;
          Printf.sprintf "%.1f" lu.Batched_lu.stats.L.gflops;
          Printf.sprintf "%.1f" gh.Batched_gh.stats.L.gflops;
          Printf.sprintf "%.1f" padded.Cublas_model.stats.L.time_us;
          Printf.sprintf "%.1f" lu.Batched_lu.stats.L.time_us;
          Printf.sprintf "%.2fx"
            (padded.Cublas_model.stats.L.time_us
            /. lu.Batched_lu.stats.L.time_us);
        ])
      cases
  in
  Report.print_table ppf
    ~title:
      (Printf.sprintf
         "GETRF on supervariable-blocked batches (%d blocks, double): \
          variable-size kernels vs pad-to-max cuBLAS strategy"
         target)
    ~header:
      [
        "size mix"; "mean size"; "max"; "LU GFLOPS"; "GH GFLOPS";
        "padded us"; "LU us"; "LU speedup";
      ]
    ~rows

(* Both runs credit the same useful flops, so the GFLOPS gap IS the
   checksum work: encode + register verify for LU, the factor re-read for
   TRSV. *)
let abft_overhead ?(quick = false) ?(pool = Pool.sequential) ppf =
  Report.section ppf
    "ABFT overhead — protected vs unprotected batched kernels";
  let count = if quick then 5_000 else 40_000 in
  let prec = Precision.Double in
  let pct (plain : L.stats) (prot : L.stats) =
    100.0 *. (prot.L.time_us -. plain.L.time_us) /. plain.L.time_us
  in
  let rows =
    pmap pool
      (fun size ->
        let b = representative_batch ~count ~size () in
        let rhs = Batch.vec_random b.Batch.sizes in
        let lu_plain = Batched_lu.factor ~prec ~mode:S.Sampled b in
        let lu_abft = Batched_lu.factor ~prec ~mode:S.Sampled ~abft:true b in
        let tr_plain =
          Batched_trsv.solve ~prec ~mode:S.Sampled
            ~factors:lu_plain.Batched_lu.factors
            ~pivots:lu_plain.Batched_lu.pivots rhs
        in
        let tr_abft =
          Batched_trsv.solve ~prec ~mode:S.Sampled ~abft:true
            ~factors:lu_plain.Batched_lu.factors
            ~pivots:lu_plain.Batched_lu.pivots rhs
        in
        [
          string_of_int size;
          Printf.sprintf "%.1f" lu_plain.Batched_lu.stats.L.gflops;
          Printf.sprintf "%.1f" lu_abft.Batched_lu.stats.L.gflops;
          Printf.sprintf "%.1f%%"
            (pct lu_plain.Batched_lu.stats lu_abft.Batched_lu.stats);
          Printf.sprintf "%.1f" tr_plain.Batched_trsv.stats.L.gflops;
          Printf.sprintf "%.1f" tr_abft.Batched_trsv.stats.L.gflops;
          Printf.sprintf "%.1f%%"
            (pct tr_plain.Batched_trsv.stats tr_abft.Batched_trsv.stats);
        ])
      (size_sweep quick)
  in
  Report.print_table ppf
    ~title:
      (Printf.sprintf
         "ABFT-protected vs unprotected GFLOPS — batch %d, double (ovh = \
          modelled time increase)"
         count)
    ~header:
      [ "size"; "LU"; "LU+abft"; "LU ovh"; "TRSV"; "TRSV+abft"; "TRSV ovh" ]
    ~rows

let ablation_extraction ?(quick = false) ?(pool = Pool.sequential) ppf =
  Report.section ppf
    "Ablation C — diagonal-block extraction strategies (balanced vs unbalanced)";
  let block_size = 16 in
  let mk_blocking n =
    let k = n / block_size in
    ( Array.init k (fun i -> i * block_size),
      Array.make k block_size )
  in
  let cases =
    [
      ( "laplacian (balanced)",
        Vblu_workloads.Generators.laplacian_2d
          ~nx:(if quick then 16 else 32)
          ~ny:(if quick then 16 else 32)
          () );
      ( "circuit (unbalanced)",
        Vblu_workloads.Generators.circuit_like
          ~state:(Random.State.make [| 0x5eed; 0x304ad5 |])
          ~n:(if quick then 512 else 2048)
          ~hubs:(if quick then 8 else 16)
          ~hub_degree:(if quick then 128 else 500)
          () );
    ]
  in
  let rows =
    pmap pool
      (fun (name, a) ->
        let n, _ = Vblu_sparse.Csr.dims a in
        let starts, sizes = mk_blocking n in
        let run strategy =
          (Extraction.extract ~strategy a ~block_starts:starts
             ~block_sizes:sizes)
            .Extraction.stats
        in
        let naive = run Extraction.Row_per_thread in
        let shared = run Extraction.Shared_memory in
        [
          name;
          Printf.sprintf "%.2f" (Vblu_sparse.Csr.row_imbalance a);
          Printf.sprintf "%.1f" naive.L.time_us;
          Printf.sprintf "%.1f" shared.L.time_us;
          Printf.sprintf "%.2fx" (naive.L.time_us /. shared.L.time_us);
        ])
      cases
  in
  Report.print_table ppf ~title:"extraction kernel time (modelled, us)"
    ~header:[ "matrix"; "row imbalance"; "row-per-thread"; "shared-memory"; "speedup" ]
    ~rows

(* Layout sweep: the same kernels over the same data in both storage
   layouts, Exact mode (the coalescing model needs every warp's real
   addresses, not one representative per size class).  Counts are small —
   the point is the transaction ratio, not occupancy. *)
let layout_sweep ?(quick = false) ?(pool = Pool.sequential) ppf =
  Report.section ppf "Layout sweep — blocked vs interleaved (SoA) batches";
  let count = if quick then 128 else 512 in
  let prec = Precision.Double in
  let mixes =
    [
      ("uniform 8", Batch.uniform_sizes ~count ~size:8);
      ("uniform 16", Batch.uniform_sizes ~count ~size:16);
      ("uniform 32", Batch.uniform_sizes ~count ~size:32);
      ( "variable 5..30",
        Batch.random_sizes
          ~state:(Random.State.make [| 0x1a9; 7 |])
          ~count ~min_size:5 ~max_size:30 () );
    ]
  in
  let kernels = [ "getrf.lu"; "trsv.eager"; "trsv.lazy"; "gemm" ] in
  let cases =
    List.concat_map (fun k -> List.map (fun m -> (k, m)) mixes) kernels
  in
  let rows =
    pmap pool
      (fun (kernel, (mix, sizes)) ->
        let run layout =
          let st = Random.State.make [| 0x7a90; Hashtbl.hash (kernel, mix) |] in
          let b = Batch.random_diagdom ~state:st ~layout sizes in
          match kernel with
          | "getrf.lu" -> (Batched_lu.factor ~prec b).Batched_lu.stats
          | "trsv.eager" | "trsv.lazy" ->
            let variant =
              if kernel = "trsv.eager" then Batched_trsv.Eager
              else Batched_trsv.Lazy
            in
            let f = Batched_lu.factor ~prec b in
            let rhs = Batch.vec_random ~state:st ~layout sizes in
            (Batched_trsv.solve ~prec ~variant ~factors:f.Batched_lu.factors
               ~pivots:f.Batched_lu.pivots rhs)
              .Batched_trsv.stats
          | _ ->
            let b2 = Batch.random_diagdom ~state:st ~layout sizes in
            (Batched_gemm.multiply ~prec ~a:b ~b:b2 ()).Batched_gemm.stats
        in
        let blocked = run Batch.Blocked
        and interleaved = run Batch.Interleaved in
        let txns (s : L.stats) = s.L.total.Vblu_simt.Counter.gmem_transactions in
        [
          kernel;
          mix;
          Printf.sprintf "%.0f" (txns blocked);
          Printf.sprintf "%.0f" (txns interleaved);
          Printf.sprintf "%.2fx" (txns blocked /. txns interleaved);
          Printf.sprintf "%.1f" blocked.L.gflops;
          Printf.sprintf "%.1f" interleaved.L.gflops;
        ])
      cases
  in
  Report.print_table ppf
    ~title:
      (Printf.sprintf
         "gmem transactions and modelled GFLOPS by layout — %d blocks, \
          double (ratio = blocked / interleaved txns)"
         count)
    ~header:
      [
        "kernel"; "size mix"; "blocked txn"; "interleaved txn"; "txn ratio";
        "blocked GFLOPS"; "interleaved GFLOPS";
      ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Machine-readable benchmark points (BENCH_*.json artifacts).         *)

let routine_slug = function
  | R_lu -> "lu"
  | R_gh -> "gh"
  | R_ght -> "ght"
  | R_cublas -> "cublas"

let bench_points ?(quick = false) ?(pool = Pool.sequential) ?obs () =
  let sizes = if quick then [ 16; 32 ] else [ 8; 16; 24; 32 ] in
  let batches = if quick then [ 5_000 ] else [ 5_000; 40_000 ] in
  let points =
    List.concat_map
      (fun prec ->
        List.concat_map
          (fun size ->
            List.concat_map
              (fun count ->
                List.concat_map
                  (fun r ->
                    [
                      (`Getrf, r, prec, size, count);
                      (`Trsv, r, prec, size, count);
                    ])
                  routines)
              batches)
          sizes)
      precisions
  in
  pmap_obs obs pool
    (fun obs (kind, r, prec, size, count) ->
      let stats =
        match kind with
        | `Getrf -> getrf_stats ?obs ~prec ~count ~size r
        | `Trsv -> trsv_stats ?obs ~prec ~count ~size r
      in
      let family = match kind with `Getrf -> "getrf." | `Trsv -> "trsv." in
      {
        Vblu_obs.Artifact.kernel = family ^ routine_slug r;
        prec = (match prec with Precision.Single -> "fp32" | Double -> "fp64");
        size;
        batch = count;
        gflops = stats.L.gflops;
        bandwidth_gbs = stats.L.bandwidth_gbs;
        time_us = stats.L.time_us;
      })
    points

let bench_artifact ?(quick = false) ?(pool = Pool.sequential) ?obs ~target () =
  let entries = bench_points ~quick ~pool ?obs () in
  Vblu_obs.Artifact.make ~target ~config:"p100"
    ~domains:(Pool.num_domains pool) ~quick entries
