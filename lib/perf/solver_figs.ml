open Vblu_workloads
open Vblu_precond

let bj study e variant bound =
  Study.find study e (Study.Block_jacobi (variant, bound))

(* The bounds of the LU sweep: Figure 8's rows and Table I's columns. *)
let lu_bounds (study : Study.t) =
  List.filter_map
    (function Study.Block_jacobi (Block_jacobi.Lu, b) -> Some b | _ -> None)
    study.Study.specs

let fig8 ppf (study : Study.t) =
  Report.section ppf
    "Figure 8 — IDR(4) iteration overhead: LU-based vs GH-based block-Jacobi";
  (* Buckets of iteration overhead in percent.  A case lands left of
     centre when LU needed fewer iterations (GH pays the overhead), right
     of centre when GH was the better preconditioner. *)
  let edges = [ -50.0; -20.0; -5.0; -2.0; 0.0; 0.0001; 2.0; 5.0; 20.0; 50.0 ] in
  let bucket_names =
    [
      "LU>50%";
      "20-50%";
      "5-20%";
      "2-5%";
      "0-2%";
      "equal";
      "0-2%";
      "2-5%";
      "5-20%";
      "20-50%";
      "GH>50%";
    ]
  in
  let bucket_of overhead =
    let rec go i = function
      | [] -> i
      | e :: rest -> if overhead < e then i else go (i + 1) rest
    in
    go 0 edges
  in
  let rows =
    List.map
      (fun bound ->
        let counts = Array.make (List.length bucket_names) 0 in
        List.iter
          (fun (e : Suite.entry) ->
            match
              ( bj study e Block_jacobi.Lu bound,
                bj study e Block_jacobi.Gh bound )
            with
            | Some lu, Some gh when lu.converged && gh.converged ->
              (* Positive overhead: GH converged faster, LU pays. *)
              let lu_i = float_of_int lu.iterations in
              let gh_i = float_of_int gh.iterations in
              let overhead = 100.0 *. (lu_i -. gh_i) /. Float.min lu_i gh_i in
              (* Map to the histogram orientation: negative = LU better. *)
              let b = bucket_of overhead in
              counts.(b) <- counts.(b) + 1
            | _ -> ())
          Suite.all;
        string_of_int bound
        :: Array.to_list (Array.map string_of_int counts))
      (lu_bounds study)
  in
  Report.print_table ppf
    ~title:
      "test cases per overhead bucket (rows: block-size bound; left of centre \
       = LU-based better)"
    ~header:("bound" :: bucket_names)
    ~rows

let fig9 ppf (study : Study.t) =
  Report.section ppf
    "Figure 9 — IDR(4) total time (setup+solve), block-Jacobi bound 32";
  let cases =
    List.filter_map
      (fun (e : Suite.entry) ->
        match
          ( bj study e Block_jacobi.Lu 32,
            bj study e Block_jacobi.Gh 32,
            bj study e Block_jacobi.Ght 32 )
        with
        | Some lu, Some gh, Some ght ->
          if lu.converged then Some (e, lu, gh, ght) else None
        | _ -> None)
      Suite.all
  in
  let sorted =
    List.sort
      (fun (_, a, _, _) (_, b, _, _) ->
        compare (Study.total_seconds a) (Study.total_seconds b))
      cases
  in
  let rows =
    List.map
      (fun ((e : Suite.entry), lu, gh, ght) ->
        let t (r : Study.run) =
          if r.converged then
            Printf.sprintf "%.3f" (Study.total_seconds r)
          else "-"
        in
        [ string_of_int e.Suite.id; e.Suite.name; t lu; t gh; t ght ])
      sorted
  in
  Report.print_table ppf
    ~title:"total runtime [s], matrices sorted by LU-based runtime"
    ~header:[ "ID"; "matrix"; "LU-based"; "GH-based"; "GHT-based" ]
    ~rows

let table1 ppf (study : Study.t) =
  Report.section ppf
    "Table I — IDR(4) iterations and runtime: scalar Jacobi vs block-Jacobi";
  let cell (r : Study.run option) =
    match r with
    | Some r when r.converged ->
      ( string_of_int r.iterations,
        Printf.sprintf "%.3f" (Study.total_seconds r) )
    | _ -> ("-", "-")
  in
  let header =
    [ "matrix"; "size"; "nnz"; "ID"; "jacobi its"; "time[s]" ]
    @ List.concat_map
        (fun b -> [ Printf.sprintf "bj(%d) its" b; "time[s]" ])
        (lu_bounds study)
  in
  let rows =
    List.map
      (fun (e : Suite.entry) ->
        let a = Suite.matrix e in
        let n, _ = Vblu_sparse.Csr.dims a in
        let ji, jt = cell (bj study e Block_jacobi.Scalar 1) in
        let lu =
          List.concat_map
            (fun b ->
              let i, t = cell (bj study e Block_jacobi.Lu b) in
              [ i; t ])
            (lu_bounds study)
        in
        [
          e.Suite.name;
          string_of_int n;
          string_of_int (Vblu_sparse.Csr.nnz a);
          string_of_int e.Suite.id;
          ji;
          jt;
        ]
        @ lu)
      Suite.all
  in
  Report.print_table ppf ~title:"per-matrix convergence and runtime" ~header ~rows;
  (* Breakdown accounting: any run whose setup degraded blocks to the
     identity (or salvaged them by perturbation) is listed so the
     iteration counts above can be read with that caveat. *)
  let flagged =
    List.filter
      (fun (r : Study.run) -> r.degraded > 0 || r.perturbed > 0)
      study.Study.runs
  in
  if flagged = [] then
    Format.fprintf ppf "degraded blocks: none (every diagonal block factored)@."
  else
    List.iter
      (fun (r : Study.run) ->
        let spec =
          match r.spec with
          | Study.Block_jacobi (v, b) ->
            Printf.sprintf "%s(%d)" (Block_jacobi.variant_name v) b
          | s -> Study.label s
        in
        Format.fprintf ppf
          "degraded blocks: %s %s: %d of %d identity-fallback, %d perturbed@."
          r.entry.Suite.name spec r.degraded r.blocks r.perturbed)
      flagged

let ablation_variants ppf (study : Study.t) =
  Report.section ppf
    "Ablation D — factorization-based vs inversion-based block-Jacobi (bound 32)";
  let rows =
    List.filter_map
      (fun (e : Suite.entry) ->
        match
          ( bj study e Block_jacobi.Lu 32,
            bj study e Block_jacobi.Gje_inverse 32 )
        with
        | Some lu, Some gje ->
          let fmt (r : Study.run) =
            if r.converged then
              Printf.sprintf "%d its %.3f+%.3fs" r.iterations
                r.setup_seconds r.solve_seconds
            else "no convergence"
          in
          Some [ string_of_int e.Suite.id; e.Suite.name; fmt lu; fmt gje ]
        | _ -> None)
      Suite.all
  in
  Report.print_table ppf ~title:"LU factors vs GJE explicit inverse"
    ~header:[ "ID"; "matrix"; "LU (setup+solve)"; "GJE (setup+solve)" ]
    ~rows
