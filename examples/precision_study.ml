(* Single vs double precision for the batched kernels: performance (the
   kernels' modelled GFLOPS at both precisions, as in Figures 4-7) and
   numerics (factorization backward error and element growth with and
   without pivoting, which is why the paper insists on partial pivoting).

   Run with:  dune exec examples/precision_study.exe *)

open Vblu_smallblas
open Vblu_core
module S = Vblu_simt.Sampling
module L = Vblu_simt.Launch

let () =
  (* Performance: one fixed-size batch per precision. *)
  let count = 40_000 and size = 32 in
  let sizes = Batch.uniform_sizes ~count ~size in
  let batch = Batch.create sizes in
  Batch.set_matrix batch 0
    (Matrix.random_diagdom ~state:(Random.State.make [| 0x5eed; 0x3a7 |]) size);
  List.iter
    (fun prec ->
      let f = Batched_lu.factor ~prec ~mode:S.Sampled batch in
      let rhs = Batch.vec_random sizes in
      let s =
        Batched_trsv.solve ~prec ~mode:S.Sampled ~factors:f.Batched_lu.factors
          ~pivots:f.Batched_lu.pivots rhs
      in
      Format.printf "%s: GETRF %6.1f GFLOPS | TRSV %5.1f GFLOPS@."
        (Precision.to_string prec) f.Batched_lu.stats.L.gflops
        s.Batched_trsv.stats.L.gflops)
    [ Precision.Single; Precision.Double ];

  (* Numerics: backward error of the factorization in both precisions,
     with implicit pivoting vs no pivoting. *)
  let st = Random.State.make [| 77 |] in
  let trials = 200 in
  let worst = Hashtbl.create 8 in
  let note key v =
    let cur = Option.value ~default:0.0 (Hashtbl.find_opt worst key) in
    Hashtbl.replace worst key (Float.max cur v)
  in
  for _ = 1 to trials do
    let n = 4 + Random.State.int st 29 in
    let a = Matrix.random_general ~state:st n in
    List.iter
      (fun prec ->
        let f = Lu.factor_implicit ~prec a in
        note (Precision.to_string prec, "pivoting: residual")
          (Diagnostics.factor_residual a f);
        note (Precision.to_string prec, "pivoting: growth")
          (Diagnostics.growth_factor a f);
        match Lu.factor_nopivot ~prec a with
        | f0 ->
          note (Precision.to_string prec, "no pivoting: residual")
            (Diagnostics.factor_residual a f0);
          note (Precision.to_string prec, "no pivoting: growth")
            (Diagnostics.growth_factor a f0)
        | exception Lu.Singular _ ->
          note (Precision.to_string prec, "no pivoting: breakdowns") 1.0)
      [ Precision.Single; Precision.Double ]
  done;
  Format.printf "@.worst case over %d random blocks (4..32):@." trials;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) worst []
  |> List.sort compare
  |> List.iter (fun ((prec, what), v) ->
         Format.printf "  %-6s %-24s %.3e@." prec what v);
  Format.printf
    "@.(machine epsilon: single %.1e, double %.1e — pivoted residuals sit at@ \
     a small multiple of epsilon; unpivoted growth can be orders of@ \
     magnitude larger, which is what implicit pivoting prevents at no@ \
     data-movement cost.)@."
    (Precision.eps Precision.Single)
    (Precision.eps Precision.Double)
