(* Command-line driver: regenerate any of the paper's figures/tables, list
   the workload suite, or solve a Matrix Market system with block-Jacobi
   preconditioned IDR(4). *)

open Cmdliner
open Vblu_perf

let setup_logs () =
  Fmt_tty.setup_std_outputs ();
  (* Setups log from pool domains; one lock keeps the shared formatter
     consistent and each message whole. *)
  let m = Mutex.create () in
  Logs.set_reporter_mutex
    ~lock:(fun () -> Mutex.lock m)
    ~unlock:(fun () -> Mutex.unlock m);
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning)

let quick_arg =
  let doc = "Run a reduced sweep (fewer batch sizes / matrices)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

(* A cmdliner converter from a library parser returning [(_, string)
   result] and its printer. *)
let conv_of parse print =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (parse s)),
      fun ppf v -> Format.pp_print_string ppf (print v) )

(* An integer confined to [lo..hi], rejected at parse time (exit 124). *)
let bounded_int ~lo ~hi =
  conv_of
    (fun s ->
      match int_of_string_opt s with
      | Some v when v >= lo && v <= hi -> Ok v
      | _ ->
        Error (Printf.sprintf "expected an integer in %d..%d, got %S" lo hi s))
    string_of_int

let domains_arg =
  let doc =
    "Host domains for parallel batch execution, 1 to 128 (default: the \
     runtime's recommended domain count).  Results are bit-identical for \
     any value; only wall-clock time changes."
  in
  Arg.(
    value
    & opt
        (bounded_int ~lo:1 ~hi:Vblu_par.Pool.max_domains)
        (Domain.recommended_domain_count ())
    & info [ "domains" ] ~docv:"N" ~doc)

(* The supervariable agglomeration bound.  Every diagonal block is
   factored by one warp, so the bound is 1..32, the range
   [Serve.Batcher.validate] enforces on served problems. *)
let block_size_arg ?(doc = "Supervariable agglomeration bound, 1 to 32.")
    default =
  Arg.(
    value
    & opt (bounded_int ~lo:1 ~hi:32) default
    & info [ "block-size" ] ~docv:"B" ~doc)

(* Reads the square system named on the command line; an unreadable,
   malformed or non-square file is a one-line diagnosis and exit 2, not an
   uncaught exception. *)
let read_matrix file =
  match Vblu_sparse.Mm_io.read file with
  | a ->
    let rows, cols = Vblu_sparse.Csr.dims a in
    if rows <> cols then begin
      Printf.eprintf "vblu: %s: matrix is %dx%d, not square\n" file rows cols;
      exit 2
    end;
    a
  | exception Sys_error msg ->
    Printf.eprintf "vblu: %s\n" msg;
    exit 2
  | exception Vblu_sparse.Mm_io.Parse_error { line; msg } ->
    Printf.eprintf "vblu: %s:%d: %s\n" file line msg;
    exit 2

let policy_conv =
  Vblu_precond.Block_jacobi.(conv_of policy_of_string policy_name)

let policy_arg =
  let doc =
    "What to do with a singular diagonal block: $(b,fail) aborts, \
     $(b,identity) (default) leaves the block unpreconditioned, \
     $(b,perturb:EPS) retries after a diagonal shift of EPS times the \
     block's largest entry."
  in
  Arg.(
    value
    & opt policy_conv Vblu_precond.Block_jacobi.Identity_block
    & info [ "breakdown-policy" ] ~docv:"POLICY" ~doc)

let faults_conv = Vblu_fault.Fault.Plan.(conv_of of_spec to_spec)

let faults_arg =
  let doc =
    "Inject deterministic soft errors described by SPEC \
     (comma-separated $(b,seed=N), $(b,every=N), $(b,phase=N), \
     $(b,target=reg|smem|gmem), $(b,kind=flip:BIT|scale:F|set:F), \
     $(b,at=PROBLEM.STEP.LANE)).  Example: \
     $(b,--inject-faults seed=7,every=3)."
  in
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "inject-faults" ] ~docv:"SPEC" ~doc)

let abft_arg =
  let doc =
    "Verify factors with ABFT checksums and report per-problem verdicts \
     (checksum work is charged to the performance counters)."
  in
  Arg.(value & flag & info [ "abft" ] ~doc)

let recovery_conv =
  Vblu_precond.Block_jacobi.(conv_of recovery_of_string recovery_name)

let recovery_arg =
  let doc =
    "What to do with a diagonal block whose ABFT check fails, in every \
     preconditioner family: $(b,recompute[:N]) (default, N=1) \
     refactorizes up to N times, $(b,degrade) replaces the block with the \
     identity, $(b,fail) aborts with Fault_detected (exit 3)."
  in
  Arg.(
    value
    & opt recovery_conv (Vblu_precond.Block_jacobi.Recompute 1)
    & info [ "recovery-policy" ] ~docv:"POLICY" ~doc)

(* A [fail] breakdown or recovery policy ends a setup by raising; the
   command prints the exception's one line, which names it and the block,
   and exits 3. *)
let policy_exits f =
  match f () with
  | v -> v
  | exception
      (( Vblu_precond.Block_jacobi.Singular_block _
       | Vblu_precond.Block_jacobi.Fault_detected _ ) as e) ->
    Printf.eprintf "vblu: %s\n%!" (Printexc.to_string e);
    exit 3

let policy_exit_info =
  Cmd.Exit.info 3
    ~doc:
      "a $(b,fail) breakdown or recovery policy rejected a diagonal block \
       (stderr names Singular_block or Fault_detected and the block)."

let pool_of n = Vblu_par.Pool.create ~num_domains:n ()
let ppf = Format.std_formatter

let trace_arg =
  let doc =
    "Record every kernel launch, preconditioner setup and solver iteration \
     into a Chrome-tracing JSON written to $(docv) (open it in Perfetto or \
     chrome://tracing).  Traces use modelled simulator time and are \
     bit-identical for any $(b,--domains) value."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write the metrics registry (counters, gauges, histograms) to $(docv) \
     as JSON — or as CSV when $(docv) ends in $(b,.csv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* Build the observability context for --trace/--metrics, run [f] with it,
   then flush the requested files.  With neither flag, [f] gets [None] and
   every instrumented call site stays on its no-op fast path. *)
let with_obs trace metrics f =
  match (trace, metrics) with
  | None, None -> f None
  | _ ->
    let tr = Option.map (fun _ -> Vblu_obs.Trace.create ()) trace in
    let mx = Option.map (fun _ -> Vblu_obs.Metrics.create ()) metrics in
    let r = f (Some (Vblu_obs.Ctx.v ?trace:tr ?metrics:mx ())) in
    Option.iter
      (fun file ->
        Option.iter (Vblu_obs.Trace.write file) tr;
        Printf.eprintf "[obs] wrote trace %s\n%!" file)
      trace;
    Option.iter
      (fun file ->
        Option.iter
          (fun m ->
            if Filename.check_suffix file ".csv" then begin
              let oc = open_out file in
              output_string oc (Vblu_obs.Metrics.to_csv m);
              close_out oc
            end
            else Vblu_obs.Metrics.write file m)
          mx;
        Printf.eprintf "[obs] wrote metrics %s\n%!" file)
      metrics;
    r

(* The kernel tables that record no trace or metrics: ablations and the
   layout sweep. *)
let kernel_cmd name doc
    (driver : ?quick:bool -> ?pool:Vblu_par.Pool.t -> Format.formatter -> unit)
    =
  let run quick domains =
    setup_logs ();
    driver ~quick ~pool:(pool_of domains) ppf;
    Format.pp_print_flush ppf ()
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ quick_arg $ domains_arg)

let layout_conv = Vblu_core.Batch.(conv_of layout_of_string layout_name)

let layout_arg =
  let doc =
    "Batch storage layout: $(b,blocked) (default; matrices back-to-back) \
     or $(b,interleaved) (SoA cohorts — element i of every cohort member \
     contiguous, the coalesced layout).  Results are bit-identical; only \
     the modelled memory traffic changes."
  in
  Arg.(
    value
    & opt layout_conv Vblu_core.Batch.Blocked
    & info [ "layout" ] ~docv:"LAYOUT" ~doc)

(* The figure sweeps also take --layout and record traces and metrics. *)
let fig_cmd name doc
    (driver :
      ?quick:bool ->
      ?pool:Vblu_par.Pool.t ->
      ?obs:Vblu_obs.Ctx.t ->
      ?layout:Vblu_core.Batch.layout ->
      Format.formatter ->
      unit) =
  let run quick domains layout trace metrics =
    setup_logs ();
    with_obs trace metrics (fun obs ->
        driver ~quick ~pool:(pool_of domains) ?obs ~layout ppf);
    Format.pp_print_flush ppf ()
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ quick_arg $ domains_arg $ layout_arg $ trace_arg
      $ metrics_arg)

let with_study quick domains policy faults abft recovery ?obs f =
  setup_logs ();
  let progress msg = Printf.eprintf "[suite] %s\n%!" msg in
  let study =
    policy_exits (fun () ->
        Study.run ~quick ~pool:(pool_of domains) ~policy ?faults ~abft
          ~recovery ?obs ~progress (Study.sweep ~quick))
  in
  f study;
  Format.pp_print_flush ppf ()

let solver_cmd name doc driver =
  let run quick domains policy faults abft recovery trace metrics =
    with_obs trace metrics (fun obs ->
        with_study quick domains policy faults abft recovery ?obs (fun study ->
            driver ppf study))
  in
  Cmd.v
    (Cmd.info name ~doc ~exits:(policy_exit_info :: Cmd.Exit.defaults))
    Term.(
      const run $ quick_arg $ domains_arg $ policy_arg $ faults_arg $ abft_arg
      $ recovery_arg $ trace_arg $ metrics_arg)

let suite_cmd =
  let run () =
    setup_logs ();
    List.iter
      (fun (e : Vblu_workloads.Suite.entry) ->
        let a = Vblu_workloads.Suite.matrix e in
        Format.printf "%2d %-18s %-14s %a@." e.Vblu_workloads.Suite.id
          e.Vblu_workloads.Suite.name
          (Vblu_workloads.Suite.family_name e.Vblu_workloads.Suite.family)
          Vblu_sparse.Csr.pp_stats a)
      Vblu_workloads.Suite.all
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"List the 48 synthetic stand-in matrices.")
    Term.(const run $ const ())

(* Shared knobs for the preconditioner-family commands. *)
let precond_arg =
  let family_conv =
    Arg.enum
      [ ("block-jacobi", `Jacobi); ("block-ilu0", `Ilu0); ("ras-ilu0", `Ras) ]
  in
  let doc =
    "Preconditioner family: $(b,block-jacobi) (default; decoupled \
     diagonal-block solves), $(b,block-ilu0) (coupled block incomplete LU \
     applied as level-scheduled batched triangular solves), or \
     $(b,ras-ilu0) (restricted additive Schwarz over block-ILU(0) \
     subdomain solves)."
  in
  Arg.(value & opt family_conv `Jacobi & info [ "precond" ] ~docv:"FAMILY" ~doc)

let subdomains_arg =
  Arg.(
    value & opt int 4
    & info [ "subdomains" ] ~docv:"N"
        ~doc:"Contiguous RAS subdomains ($(b,ras-ilu0) only).")

let overlap_arg =
  Arg.(
    value & opt int 8
    & info [ "overlap" ] ~docv:"ROWS"
        ~doc:"Rows of one-sided RAS overlap ($(b,ras-ilu0) only).")

let report_ilu0 ?(indent = "  ") policy (info : Vblu_precond.Block_ilu0.info) =
  let module Bi = Vblu_precond.Block_ilu0 in
  let module L = Vblu_sparse.Levels in
  Format.printf "%slower: %a@." indent L.pp_stats (L.stats info.Bi.lower);
  Format.printf "%supper: %a@." indent L.pp_stats (L.stats info.Bi.upper);
  Format.printf "%ssetup: %d batched launches, %.1f us modelled@." indent
    info.Bi.setup_launches
    (info.Bi.setup_modelled_seconds *. 1e6);
  if info.Bi.degraded_blocks <> [] || info.Bi.perturbed_blocks <> [] then
    Format.printf
      "%sbreakdowns (policy %s): %d identity-fallback, %d perturbed@." indent
      (Vblu_precond.Block_jacobi.policy_name policy)
      (List.length info.Bi.degraded_blocks)
      (List.length info.Bi.perturbed_blocks);
  match !(info.Bi.last_apply) with
  | None -> ()
  | Some s ->
    let tx =
      Array.fold_left (fun acc w -> acc + w.Bi.transactions) 0 s.Bi.waves
    in
    Format.printf
      "%sapply: %d level waves, %d gmem transactions, %.1f us modelled@."
      indent
      (Array.length s.Bi.waves)
      tx
      (s.Bi.modelled_seconds *. 1e6)

(* The [faults:] line of a solve under [--inject-faults]: the faults the
   plan fired, the detections ABFT made, and the blocks a rescue recovered
   or left corrupt.  [detected] counts in the unit the plan fires in: a
   block-Jacobi block is one launch problem, an ILU(0) block two (its
   normal and transposed factorizations).  [planted] counts the blocks the
   plan targets, which only block-Jacobi's launch indices name; ILU(0)
   factors its blocks in wave launches, so its line has no planted
   field. *)
let report_faults ?planted faults ~detected ~recovered ~corrupt =
  Option.iter
    (fun plan ->
      let planted =
        Option.fold ~none:"" ~some:(Printf.sprintf "planted=%d ") planted
      in
      Format.printf "faults: %sfired=%d detected=%d recovered=%d corrupt=%d@."
        planted
        (Vblu_fault.Fault.Plan.injected plan)
        detected recovered corrupt)
    faults

let solve_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MATRIX.mtx" ~doc:"Matrix Market file to solve.")
  in
  let bound = block_size_arg 32 in
  let variant =
    let variant_conv =
      Arg.enum
        [
          ("lu", Vblu_precond.Block_jacobi.Lu);
          ("gh", Vblu_precond.Block_jacobi.Gh);
          ("gh-t", Vblu_precond.Block_jacobi.Ght);
          ("gje", Vblu_precond.Block_jacobi.Gje_inverse);
          ("cholesky", Vblu_precond.Block_jacobi.Cholesky);
          ("scalar", Vblu_precond.Block_jacobi.Scalar);
        ]
    in
    Arg.(
      value
      & opt variant_conv Vblu_precond.Block_jacobi.Lu
      & info [ "variant" ]
          ~doc:
            "Batched factorization variant for the preconditioner \
             ($(b,block-jacobi) only).")
  in
  let spec =
    let make family variant bound subdomains overlap =
      match family with
      | `Jacobi -> Study.Block_jacobi (variant, bound)
      | `Ilu0 -> Study.Ilu0 bound
      | `Ras -> Study.Ras { bound; subdomains; overlap }
    in
    Term.(
      const make $ precond_arg $ variant $ bound $ subdomains_arg $ overlap_arg)
  in
  let run file spec domains policy faults abft recovery trace metrics =
    setup_logs ();
    let a = read_matrix file in
    let n, _ = Vblu_sparse.Csr.dims a in
    let b = Array.make n 1.0 in
    let converged =
      with_obs trace metrics @@ fun obs ->
      let pool = pool_of domains in
      Format.printf "matrix: %a@." Vblu_sparse.Csr.pp_stats a;
      let build ?obs () =
        Study.build ~pool ~policy ?faults ~abft ~recovery ?obs spec a
      in
      let precond, info = policy_exits (fun () -> build ?obs ()) in
      let refresh_precond =
        if abft then Some (fun () -> fst (build ())) else None
      in
      let _, stats =
        policy_exits (fun () ->
            Vblu_krylov.Idr.solve ~precond ?refresh_precond ?obs ~s:4 a b)
      in
      let name = precond.Vblu_precond.Preconditioner.name
      and setup = precond.Vblu_precond.Preconditioner.setup_seconds in
      let blocks (blocking : Vblu_precond.Supervariable.blocking) =
        Array.length blocking.Vblu_precond.Supervariable.starts
      in
      (match info with
      | Study.Jacobi_info info ->
        let module Bj = Vblu_precond.Block_jacobi in
        let blocking = info.Bj.blocking in
        Format.printf "preconditioner: %s (%d blocks, setup %.3fs)@." name
          (blocks blocking) setup;
        let degraded = info.Bj.degraded_blocks
        and perturbed = info.Bj.perturbed_blocks in
        if degraded <> [] || perturbed <> [] then
          Format.printf
            "breakdowns (policy %s): %d identity-fallback, %d perturbed@."
            (Bj.policy_name policy) (List.length degraded)
            (List.length perturbed);
        let planted =
          Option.map
            (fun plan ->
              List.length
                (Vblu_fault.Fault.Plan.targeted plan
                   ~problems:(blocks blocking)
                   ~sizes:blocking.Vblu_precond.Supervariable.sizes))
            faults
        in
        report_faults ?planted faults ~detected:info.Bj.abft_failures
          ~recovered:(List.length info.Bj.recovered_blocks)
          ~corrupt:(List.length info.Bj.corrupt_blocks)
      | Study.Ilu0_info info ->
        let module Bi = Vblu_precond.Block_ilu0 in
        Format.printf "preconditioner: %s (%d blocks, setup %.3fs)@." name
          (blocks info.Bi.blocking) setup;
        report_ilu0 policy info;
        report_faults faults ~detected:info.Bi.abft_failures
          ~recovered:(List.length info.Bi.recovered_blocks)
          ~corrupt:(List.length info.Bi.corrupt_blocks)
      | Study.Ras_info rinfo ->
        let module Bi = Vblu_precond.Block_ilu0 in
        Format.printf "preconditioner: %s (setup %.3fs)@." name setup;
        Array.iteri
          (fun d (info : Bi.info) ->
            let lo, hi = rinfo.Bi.extended.(d) in
            Format.printf "  subdomain %d: rows [%d, %d), %d blocks@." d lo hi
              (blocks info.Bi.blocking);
            report_ilu0 ~indent:"    " policy info)
          rinfo.Bi.local_info;
        let sum f =
          Array.fold_left (fun acc info -> acc + f info) 0 rinfo.Bi.local_info
        in
        report_faults faults
          ~detected:(sum (fun i -> i.Bi.abft_failures))
          ~recovered:(sum (fun i -> List.length i.Bi.recovered_blocks))
          ~corrupt:(sum (fun i -> List.length i.Bi.corrupt_blocks)));
      Format.printf "IDR(4): %a@." Vblu_krylov.Solver.pp_stats stats;
      Vblu_krylov.Solver.converged stats
    in
    if not converged then exit 1
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Solve a Matrix Market system with IDR(4) under a block-Jacobi, \
          block-ILU(0), or RAS-ILU(0) preconditioner."
       ~exits:
         (Cmd.Exit.info 1
            ~doc:
              "the solve did not converge: IDR(4) broke down or reached its \
               iteration limit (the $(b,IDR(4):) line names the outcome)."
         :: Cmd.Exit.info 2
              ~doc:"the matrix file is unreadable, malformed or not square."
         :: policy_exit_info :: Cmd.Exit.defaults))
    Term.(
      const run $ file $ spec $ domains_arg $ policy_arg $ faults_arg
      $ abft_arg $ recovery_arg $ trace_arg $ metrics_arg)

let levels_cmd =
  let bound = block_size_arg 16 in
  let matrix =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"MATRIX.mtx"
          ~doc:
            "Matrix Market file to analyse (default: the whole workload \
             suite).")
  in
  let scalar =
    Arg.(
      value & flag
      & info [ "scalar" ]
          ~doc:
            "Row-level analysis (uniform size-1 partition) instead of the \
             supervariable blocking.")
  in
  let run bound matrix scalar =
    setup_logs ();
    let module L = Vblu_sparse.Levels in
    let analyse name a =
      let lower, upper =
        if scalar then (L.scalar L.Lower a, L.scalar L.Upper a)
        else begin
          let blocking =
            Vblu_precond.Supervariable.blocking ~max_block_size:bound a
          in
          let starts = blocking.Vblu_precond.Supervariable.starts
          and sizes = blocking.Vblu_precond.Supervariable.sizes in
          ( L.schedule L.Lower ~starts ~sizes a,
            L.schedule L.Upper ~starts ~sizes a )
        end
      in
      Format.printf "%-22s lower %a@." name L.pp_stats (L.stats lower);
      Format.printf "%-22s upper %a@." "" L.pp_stats (L.stats upper)
    in
    match matrix with
    | Some file ->
      analyse (Filename.basename file) (read_matrix file)
    | None ->
      List.iter
        (fun (e : Vblu_workloads.Suite.entry) ->
          analyse
            (Printf.sprintf "%2d %s" e.Vblu_workloads.Suite.id
               e.Vblu_workloads.Suite.name)
            (Vblu_workloads.Suite.matrix e))
        Vblu_workloads.Suite.all
  in
  Cmd.v
    (Cmd.info "levels"
       ~doc:
         "Level-set schedule statistics of the block-triangular solve DAGs \
          (batched waves per sweep, level widths, critical path) for a \
          matrix or the whole suite.")
    Term.(const run $ bound $ matrix $ scalar)

(* One row per matrix, one column group per spec; block-ILU(0)'s group
   adds its level depths, waves and transactions. *)
let precond_table ppf (study : Study.t) =
  let module S = Vblu_workloads.Suite in
  let entries =
    List.sort_uniq
      (fun (a : S.entry) b -> compare a.S.id b.S.id)
      (List.map (fun (r : Study.run) -> r.Study.entry) study.Study.runs)
  in
  let leveled = function Study.Ilu0 _ -> true | _ -> false in
  let each f = List.iter f study.Study.specs in
  Format.fprintf ppf "%-3s %-18s %-10s" "id" "matrix" "family";
  each (fun s ->
      Format.fprintf ppf " | %-*s"
        (if leveled s then 39 else 16)
        (Study.label s));
  Format.fprintf ppf "@,%-3s %-18s %-10s" "" "" "";
  each (fun s ->
      if leveled s then
        Format.fprintf ppf " | %6s %7s %5s %8s %9s" "iters" "lv(l+u)" "waves"
          "txns" "us/apply"
      else Format.fprintf ppf " | %6s %9s" "iters" "us/apply");
  Format.fprintf ppf "@,";
  List.iter
    (fun (e : S.entry) ->
      Format.fprintf ppf "%3d %-18s %-10s" e.S.id e.S.name
        (S.family_name e.S.family);
      each (fun s ->
          match Study.find study e s with
          | Some r ->
            Format.fprintf ppf " | %5d%s" r.Study.iterations
              (if r.Study.converged then " " else "*");
            if leveled s then
              Format.fprintf ppf " %3d+%-3d %5d %8d" r.Study.lower_levels
                r.Study.upper_levels r.Study.apply_waves
                r.Study.apply_transactions;
            Format.fprintf ppf " %9.2f" (r.Study.modelled_apply_seconds *. 1e6)
          | None ->
            if leveled s then
              Format.fprintf ppf " | %6s %7s %5s %8s %9s" "-" "-" "-" "-" "-"
            else Format.fprintf ppf " | %6s %9s" "-" "-");
      Format.fprintf ppf "@,")
    entries

let improvement_summary ppf (study : Study.t) =
  let v = Study.ilu0_verdict study in
  Format.fprintf ppf
    "block-ilu0 reduced IDR(4) iterations on %d/%d matrices (%d/%d \
     convection-dominated)@,"
    v.Study.improved v.Study.compared v.Study.convection_improved
    v.Study.convection

let precond_cmd =
  let bound =
    block_size_arg
      ~doc:"Supervariable agglomeration bound shared by every family, 1 to 32."
      16
  in
  let run quick bound subdomains overlap domains policy trace metrics =
    setup_logs ();
    with_obs trace metrics @@ fun obs ->
    let progress msg = Printf.eprintf "[suite] %s\n%!" msg in
    let study =
      policy_exits (fun () ->
          Study.run ~quick ~pool:(pool_of domains) ~policy ?obs ~progress
            (Study.families ~bound ~subdomains ~overlap))
    in
    Format.printf "@[<v>%a%a@]@." precond_table study improvement_summary
      study
  in
  Cmd.v
    (Cmd.info "precond"
       ~doc:
         "Head-to-head preconditioner-family study over the workload \
          suite: block-Jacobi vs block-ILU(0) vs RAS-ILU(0) — IDR(4) \
          iterations against modelled time per application (level waves \
          and their memory transactions)."
       ~exits:(policy_exit_info :: Cmd.Exit.defaults))
    Term.(
      const run $ quick_arg $ bound $ subdomains_arg $ overlap_arg
      $ domains_arg $ policy_arg $ trace_arg $ metrics_arg)

let csv_cmd =
  let dir =
    Arg.(
      value & opt string "results"
      & info [ "dir" ] ~doc:"Directory to write the CSV files into.")
  in
  let run dir quick domains =
    setup_logs ();
    let pool = pool_of domains in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let slug title =
      String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c
          | _ -> '_')
        title
    in
    let dump series =
      List.iter
        (fun (s : Report.series) ->
          let path = Filename.concat dir (slug s.Report.title ^ ".csv") in
          let oc = open_out path in
          output_string oc (Report.csv_of_series s);
          close_out oc;
          Printf.printf "wrote %s\n" path)
        series
    in
    dump (Kernel_figs.fig4_series ~quick ~pool ());
    dump (Kernel_figs.fig5_series ~quick ~pool ());
    dump (Kernel_figs.fig6_series ~quick ~pool ());
    dump (Kernel_figs.fig7_series ~quick ~pool ())
  in
  Cmd.v
    (Cmd.info "csv"
       ~doc:"Export the Figure 4-7 data series as CSV files for plotting.")
    Term.(const run $ dir $ quick_arg $ domains_arg)

let all_cmd =
  let run quick domains policy faults abft recovery trace metrics =
    setup_logs ();
    let pool = pool_of domains in
    with_obs trace metrics @@ fun obs ->
    Kernel_figs.fig4 ~quick ~pool ?obs ppf;
    Kernel_figs.fig5 ~quick ~pool ?obs ppf;
    Kernel_figs.fig6 ~quick ~pool ?obs ppf;
    Kernel_figs.fig7 ~quick ~pool ?obs ppf;
    Kernel_figs.ablation_pivot ~quick ~pool ppf;
    Kernel_figs.ablation_trsv ~quick ~pool ppf;
    Kernel_figs.ablation_extraction ~quick ~pool ppf;
    Kernel_figs.ablation_cholesky ~quick ~pool ppf;
    Kernel_figs.ablation_variable_size ~quick ~pool ppf;
    Kernel_figs.abft_overhead ~quick ~pool ppf;
    Kernel_figs.layout_sweep ~quick ~pool ppf;
    with_study quick domains policy faults abft recovery ?obs (fun study ->
        Solver_figs.fig8 ppf study;
        Solver_figs.fig9 ppf study;
        Solver_figs.table1 ppf study;
        Solver_figs.ablation_variants ppf study)
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every figure, table and ablation."
       ~exits:(policy_exit_info :: Cmd.Exit.defaults))
    Term.(
      const run $ quick_arg $ domains_arg $ policy_arg $ faults_arg $ abft_arg
      $ recovery_arg $ trace_arg $ metrics_arg)

let bench_compare_cmd =
  let base =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASE" ~doc:"Baseline BENCH_*.json artifact.")
  in
  let cur =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"Current BENCH_*.json artifact.")
  in
  let tolerance =
    Arg.(
      value & opt float 5.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:
            "Maximum tolerated GFLOPS regression per entry, in percent. \
             Improvements and new entries never fail; entries present in \
             BASE but missing from CURRENT always fail.")
  in
  let run base cur tolerance =
    setup_logs ();
    match (Vblu_obs.Artifact.read base, Vblu_obs.Artifact.read cur) with
    | Error e, _ ->
      Printf.eprintf "bench-compare: %s: %s\n" base e;
      exit 2
    | _, Error e ->
      Printf.eprintf "bench-compare: %s: %s\n" cur e;
      exit 2
    | Ok b, Ok c ->
      let cmp = Vblu_obs.Artifact.compare ~tolerance_pct:tolerance ~base:b ~cur:c in
      Vblu_obs.Artifact.pp_comparison ppf cmp;
      Format.pp_print_flush ppf ();
      if not cmp.Vblu_obs.Artifact.passed then exit 1
  in
  Cmd.v
    (Cmd.info "bench-compare"
       ~doc:
         "Compare two benchmark artifacts (see the bench harness's \
          $(b,artifact) target / $(b,--json)) and fail on regressions \
          beyond the tolerance.")
    Term.(const run $ base $ cur $ tolerance)

(* Shared knobs for the service-layer commands. *)
let serve_requests_arg =
  Arg.(
    value & opt int 200
    & info [ "requests" ] ~docv:"N" ~doc:"Number of requests to generate.")

let serve_seed_arg =
  Arg.(
    value & opt int 7
    & info [ "seed" ] ~docv:"N"
        ~doc:"Workload seed; the whole run is a pure function of it.")

let serve_load_arg =
  Arg.(
    value & opt float 1.0
    & info [ "load" ] ~docv:"X"
        ~doc:
          "Offered load as a multiple of the service's drain capacity \
           (2.0 = the overload soak).")

let serve_capacity_arg =
  Arg.(
    value & opt int Vblu_serve.Service.default_config.Vblu_serve.Service.capacity
    & info [ "capacity" ] ~docv:"N" ~doc:"Admission queue bound.")

let serve_max_batch_arg =
  Arg.(
    value
    & opt int Vblu_serve.Service.default_config.Vblu_serve.Service.max_batch
    & info [ "max-batch" ] ~docv:"N"
        ~doc:"Max requests coalesced into one shared launch.")

let serve_deadline_arg =
  Arg.(
    value & opt float 50.0
    & info [ "deadline-windows" ] ~docv:"W"
        ~doc:
          "Per-request deadline, in dispatch windows past submission \
           (0 disables deadlines).")

let serve_config capacity max_batch =
  { Vblu_serve.Service.default_config with
    Vblu_serve.Service.capacity; max_batch }

let serve_ilu0_share_arg =
  Arg.(
    value & opt float 0.0
    & info [ "ilu0-share" ] ~docv:"X"
        ~doc:
          "Fraction of requests asking for the block-ILU(0) family \
           (selected deterministically by request index; the rest are \
           block-Jacobi).")

let serve_cmd =
  let run requests seed domains capacity max_batch ilu0_share faults trace
      metrics =
    setup_logs ();
    let module S = Vblu_serve in
    with_obs trace metrics @@ fun obs ->
    let config = serve_config capacity max_batch in
    let svc = S.Service.create ~pool:(pool_of domains) ?faults ?obs config in
    (* A simple client: submit a seeded stream of block-tridiagonal
       systems across three tenants, step the dispatcher, pick up the
       results — the transcript a real integration would produce. *)
    let st = Random.State.make [| seed |] in
    let tenants = [| "alpha"; "beta"; "gamma" |] in
    let ids =
      Array.init requests (fun i ->
          let blocks = 2 + Random.State.int st 5 in
          let block_size = 4 + Random.State.int st 13 in
          let a =
            Vblu_workloads.Generators.block_tridiagonal ~state:st ~blocks
              ~block_size ()
          in
          let n, _ = Vblu_sparse.Csr.dims a in
          let rhs = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
          let precond =
            if float_of_int (i mod 100) < (ilu0_share *. 100.0) -. 1e-9 then
              S.Batcher.Ilu0
            else S.Batcher.Jacobi
          in
          let id =
            S.Service.submit svc
              ~tenant:tenants.(i mod Array.length tenants)
              { S.Batcher.a; rhs; max_block_size = 32; precond }
          in
          if i mod 8 = 7 then S.Service.step svc;
          id)
    in
    S.Service.drain svc;
    let completed =
      Array.fold_left
        (fun acc id ->
          match S.Service.status svc id with
          | S.Service.Completed _ -> acc + 1
          | _ -> acc)
        0 ids
    in
    Format.printf "completed %d/%d requests@." completed requests;
    Format.printf "%a@." S.Service.pp_health (S.Service.health svc);
    Format.printf "@[<v>per-tenant:@,%a@]@."
      (fun ppf l ->
        List.iter
          (fun (name, c) ->
            Format.fprintf ppf "  %-8s submitted=%d completed=%d failed=%d@,"
              name c.S.Tenant.submitted c.S.Tenant.completed c.S.Tenant.failed)
          l)
      (S.Service.tenants svc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the coalescing solver service over a generated request \
          stream and print its accounting.")
    Term.(
      const run $ serve_requests_arg $ serve_seed_arg $ domains_arg
      $ serve_capacity_arg $ serve_max_batch_arg $ serve_ilu0_share_arg
      $ faults_arg $ trace_arg $ metrics_arg)

let loadgen_cmd =
  let checksum_arg =
    Arg.(
      value & flag
      & info [ "checksum" ]
          ~doc:
            "Print only the one-line report fingerprint (what the CI soak \
             diffs across $(b,--domains) values).")
  in
  let no_verify_arg =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:
            "Skip the bit-identity audit against direct per-request \
             block-Jacobi solves.")
  in
  let repeat_share_arg =
    Arg.(
      value & opt float 0.0
      & info [ "repeat-share" ] ~docv:"X"
          ~doc:
            "Fraction of requests replaced by recurring-tenant \
             resubmissions: the same sparsity pattern as an earlier \
             request with slightly drifted values (selected \
             deterministically by index, so non-repeat requests are \
             bit-identical for any share).")
  in
  let setup_cache_arg =
    Arg.(
      value & flag
      & info [ "setup-cache" ]
          ~doc:
            "Keep a cross-wave setup cache so recurring requests reuse \
             their previous factorizations and only refactor drifted \
             blocks.  Results stay bit-identical.")
  in
  let run requests seed load deadline_windows domains capacity max_batch
      ilu0_share repeat_share setup_cache checksum no_verify trace metrics =
    setup_logs ();
    let module S = Vblu_serve in
    with_obs trace metrics @@ fun obs ->
    let spec =
      {
        S.Loadgen.default_spec with
        S.Loadgen.requests;
        seed;
        load;
        deadline_windows;
        ilu0_share;
        repeat_share;
        verify = not no_verify;
      }
    in
    let config =
      { (serve_config capacity max_batch) with
        Vblu_serve.Service.setup_cache }
    in
    let report = S.Loadgen.run ~pool:(pool_of domains) ?obs ~config spec in
    if checksum then print_endline (S.Loadgen.checksum report)
    else Format.printf "%a@." S.Loadgen.pp_report report;
    (* The overload contract, enforced with a nonzero exit so CI can
       gate on it: full accounting, bounded deadline overshoot, and
       bit-identical completed results. *)
    let bad msg =
      Printf.eprintf "loadgen: property violated: %s\n" msg;
      exit 1
    in
    if not report.S.Loadgen.accounted then
      bad "unaccounted requests (completed+rejected+shed+failed <> submitted)";
    if not report.S.Loadgen.within_bound then
      bad "deadline overshoot beyond one batch window";
    if not report.S.Loadgen.verified then
      bad "completed result differs from a direct preconditioner solve"
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive the service with a seeded (optionally overloaded) request \
          stream and fail on any robustness-contract violation.")
    Term.(
      const run $ serve_requests_arg $ serve_seed_arg $ serve_load_arg
      $ serve_deadline_arg $ domains_arg $ serve_capacity_arg
      $ serve_max_batch_arg $ serve_ilu0_share_arg $ repeat_share_arg
      $ setup_cache_arg $ checksum_arg $ no_verify_arg $ trace_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* Time-stepping workload: amortized preconditioner setup              *)

let ts_refresh_conv =
  Vblu_workloads.Timestep.(conv_of refresh_of_string refresh_name)

let ts_family_conv =
  Vblu_workloads.Timestep.(conv_of family_of_string family_name)

let timestep_cmd =
  let module T = Vblu_workloads.Timestep in
  let steps_arg =
    Arg.(
      value & opt int 20
      & info [ "steps" ] ~docv:"N" ~doc:"Number of time steps to solve.")
  in
  let nx_arg =
    Arg.(value & opt int 24 & info [ "nx" ] ~docv:"N" ~doc:"Grid width.")
  in
  let ny_arg =
    Arg.(value & opt int 24 & info [ "ny" ] ~docv:"N" ~doc:"Grid height.")
  in
  let peclet_arg =
    Arg.(
      value & opt float 10.0
      & info [ "peclet" ] ~docv:"PE" ~doc:"Convection strength.")
  in
  let drift_arg =
    Arg.(
      value & opt float 0.05
      & info [ "drift" ] ~docv:"X"
          ~doc:
            "Relative amplitude of the drifting convection band — how \
             much of the matrix changes per step (the sparsity pattern \
             never changes).")
  in
  let refresh_arg =
    Arg.(
      value & opt ts_refresh_conv T.Every_step
      & info [ "refresh" ] ~docv:"POLICY"
          ~doc:
            "Preconditioner refresh policy: $(b,every-step), \
             $(b,every:K) (refresh every K steps), or $(b,on-stall) / \
             $(b,on-stall:G) (refresh when IDR(4) iterations grow by \
             more than G over the last refresh).")
  in
  let tol_arg =
    Arg.(
      value & opt float 0.0
      & info [ "tol" ] ~docv:"T"
          ~doc:
            "Dirty-block tolerance: a block is refactored when its max \
             entry change exceeds T (0 = any bitwise change refactors — \
             results then match a fresh setup bit for bit).")
  in
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Disable partial refactorization: every refresh rebuilds \
             every block (the baseline the partial path is gated \
             against).")
  in
  let family_arg =
    Arg.(
      value & opt ts_family_conv T.Jacobi
      & info [ "precond" ] ~docv:"FAMILY"
          ~doc:"Preconditioner family: $(b,jacobi) or $(b,ilu0).")
  in
  let run steps nx ny peclet drift refresh tol full family domains layout
      trace metrics =
    setup_logs ();
    with_obs trace metrics @@ fun obs ->
    let mode = if full then T.Full else T.Partial tol in
    let r =
      T.run ~pool:(pool_of domains) ~nx ~ny ~peclet ~drift ~steps ~family
        ~refresh ~mode ~layout ?obs ()
    in
    Format.printf
      "@[<v>timestep: %s, refresh %s, mode %s, %dx%d grid, %d steps@,@,\
       %-5s %-9s %6s %6s %8s %9s %6s %10s@,"
      (T.family_name family) (T.refresh_name refresh) (T.mode_name mode) nx
      ny steps "step" "refreshed" "dirty" "reused" "launches" "setup-tx"
      "iters" "residual";
    Array.iter
      (fun (s : T.step_stat) ->
        Format.printf "%-5d %-9s %6d %6d %8d %9d %6d %10.3e@," s.T.step
          (if s.T.refreshed then "yes" else "-")
          s.T.dirty s.T.reused s.T.launches s.T.setup_transactions
          s.T.iterations s.T.residual_norm)
      r.T.steps;
    Format.printf
      "@,refreshes      %d (+%d stall guards)@,setup launches %d@,setup \
       transactions %d@,setup modelled %.6fs@,total iterations %d@,final \
       residual %.3e@,solution checksum %.17g@]@."
      r.T.refreshes r.T.guard_refreshes r.T.total_launches
      r.T.total_setup_transactions r.T.total_setup_modelled_seconds
      r.T.total_iterations r.T.final_residual r.T.solution_checksum
  in
  Cmd.v
    (Cmd.info "timestep"
       ~doc:
         "Time-stepping workload: re-solve a drifting \
          convection–diffusion system over N steps, amortizing \
          preconditioner setup with dirty-block tracking and partial batched \
          refactorization.")
    Term.(
      const run $ steps_arg $ nx_arg $ ny_arg $ peclet_arg $ drift_arg
      $ refresh_arg $ tol_arg $ full_arg $ family_arg $ domains_arg
      $ layout_arg $ trace_arg $ metrics_arg)

let cmds =
  [
    fig_cmd "fig4" "Figure 4: factorization GFLOPS vs batch size."
      Kernel_figs.fig4;
    fig_cmd "fig5" "Figure 5: factorization GFLOPS vs matrix size."
      Kernel_figs.fig5;
    fig_cmd "fig6" "Figure 6: triangular-solve GFLOPS vs batch size."
      Kernel_figs.fig6;
    fig_cmd "fig7" "Figure 7: triangular-solve GFLOPS vs matrix size."
      Kernel_figs.fig7;
    kernel_cmd "layout-sweep"
      "Blocked vs interleaved storage: transactions and GFLOPS."
      Kernel_figs.layout_sweep;
    kernel_cmd "ablation-pivot" "Implicit vs explicit vs no pivoting."
      Kernel_figs.ablation_pivot;
    kernel_cmd "ablation-trsv" "Eager vs lazy triangular solves."
      Kernel_figs.ablation_trsv;
    kernel_cmd "ablation-extract" "Extraction strategies."
      Kernel_figs.ablation_extraction;
    kernel_cmd "ablation-cholesky" "Cholesky (future work) vs LU on SPD."
      Kernel_figs.ablation_cholesky;
    kernel_cmd "ablation-varsize"
      "Variable-size batches from real supervariable blockings."
      Kernel_figs.ablation_variable_size;
    kernel_cmd "abft-overhead"
      "ABFT checksum overhead: protected vs unprotected LU/TRSV."
      Kernel_figs.abft_overhead;
    solver_cmd "fig8" "Figure 8: LU vs GH convergence histogram."
      Solver_figs.fig8;
    solver_cmd "fig9" "Figure 9: total solver time per matrix."
      Solver_figs.fig9;
    solver_cmd "table1" "Table I: iterations and runtimes." Solver_figs.table1;
    solver_cmd "ablation-variants"
      "Factorization vs inversion based block-Jacobi."
      Solver_figs.ablation_variants;
    suite_cmd;
    solve_cmd;
    levels_cmd;
    precond_cmd;
    serve_cmd;
    loadgen_cmd;
    timestep_cmd;
    csv_cmd;
    all_cmd;
    bench_compare_cmd;
  ]

let () =
  let info =
    Cmd.info "vblu" ~version:"1.0.0"
      ~doc:
        "Variable-size batched LU for small matrices and block-Jacobi \
         preconditioning — reproduction toolkit."
  in
  exit (Cmd.eval (Cmd.group info cmds))
