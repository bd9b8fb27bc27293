(* Golden counter/output parity: every kernel × sizes {1,7,16,32} × both
   precisions must reproduce the seed engine's recorded counters, modelled
   stats and output payloads bit-for-bit — sequentially, under pools of 2
   and 4 domains, and with an observability context attached.  The goldens
   in [Goldens_data] were recorded by [golden_gen] before the engine
   rework; any drift here is a contract violation, not a tolerance issue. *)

open Vblu_obs

let golden_of name =
  match List.assoc_opt name Goldens_data.goldens with
  | Some g -> g
  | None -> Alcotest.failf "no golden recorded for %s" name

let check_outcome name (o : Golden_cases.outcome) =
  let exp_stats, exp_digest, exp_len = golden_of name in
  let got_stats = Golden_cases.stats_bits o.Golden_cases.stats in
  Array.iteri
    (fun i b ->
      if not (Int64.equal b got_stats.(i)) then
        Alcotest.failf "%s: stats slot %d drifted: golden %Lx, got %Lx" name i
          b got_stats.(i))
    exp_stats;
  Alcotest.(check int)
    (name ^ ": payload length")
    exp_len
    (List.length o.Golden_cases.payload);
  let got_digest = Golden_cases.digest o.Golden_cases.payload in
  if not (Int64.equal exp_digest got_digest) then
    Alcotest.failf "%s: payload digest drifted: golden %Lx, got %Lx" name
      exp_digest got_digest

let run_config ?pool ?obs () =
  List.iter
    (fun (c : Golden_cases.case) ->
      check_outcome c.Golden_cases.name (c.Golden_cases.run ?pool ?obs ()))
    (Golden_cases.cases ())

let test_sequential () = run_config ()

let test_with_obs () =
  let obs = Ctx.v ~trace:(Trace.create ()) ~metrics:(Metrics.create ()) () in
  run_config ~obs ()

let test_domains n () =
  let pool = Vblu_par.Pool.create ~num_domains:n () in
  let obs = Ctx.v ~trace:(Trace.create ()) ~metrics:(Metrics.create ()) () in
  run_config ~pool ();
  run_config ~pool ~obs ()

(* Kernels, named as in the case names, whose launch passes [?direct] to
   [Sampling.run]. *)
let direct_kernels =
  [
    "lu.implicit"; "lu.nopivot"; "trsv.eager"; "trsv.lazy"; "trsm"; "gemm";
    "gh.factor"; "ght.factor"; "gh.solve"; "potrf"; "potrs";
    "extract.shared"; "extract.naive";
  ]

(* Implicit-pivoting LU on poisoned blocks: a breakdown de-certifies its
   class's entry, so whether a second run is served directly depends on
   which problem of the class broke down last.  Exempt from both checks. *)
let value_dependent = [ "lu.breakdown" ]

let test_direct_active () =
  (* The parity suite must pass WITH the direct fast path taken, kernel by
     kernel — a kernel that silently fell off it would still agree with
     the goldens.  The first pass over the cases warms the cache (and runs
     each case's setup launch); on the second, every case of a
     direct-capable kernel must add direct hits, and no other case may.
     The second pass then runs again under a trace and metrics context:
     tracing must keep the same kernels on the direct path. *)
  let module C = Vblu_simt.Launch.Cache in
  C.clear ();
  let cases = Golden_cases.cases () in
  let run ?obs (c : Golden_cases.case) =
    check_outcome c.Golden_cases.name (c.Golden_cases.run ?obs ())
  in
  List.iter (fun c -> run c) cases;
  let served ?obs () =
    List.map
      (fun (c : Golden_cases.case) ->
        let before = C.direct_hits () in
        run ?obs c;
        let name = c.Golden_cases.name in
        (name, List.hd (String.split_on_char '/' name), C.direct_hits () > before))
      cases
  in
  let untraced = served () in
  let obs = Ctx.v ~trace:(Trace.create ()) ~metrics:(Metrics.create ()) () in
  let traced = served ~obs () in
  C.clear ();
  List.iter
    (fun (label, served) ->
      let cases_where p =
        List.filter_map
          (fun (name, k, d) -> if p k d then Some name else None)
          served
      in
      Alcotest.(check (list string))
        (label ^ ": direct-capable cases served directly")
        []
        (cases_where (fun k d -> List.mem k direct_kernels && not d));
      Alcotest.(check (list string))
        (label ^ ": other cases never served directly")
        []
        (cases_where (fun k d ->
             d && not (List.mem k direct_kernels || List.mem k value_dependent))))
    [ ("untraced", untraced); ("traced", traced) ];
  let served_directly served =
    List.filter_map
      (fun (name, k, d) ->
        if List.mem k value_dependent then None else Some (name, d))
      served
  in
  Alcotest.(check (list (pair string bool)))
    "traced pass served the same cases directly" (served_directly untraced)
    (served_directly traced)

let test_no_missing_goldens () =
  (* Every recorded golden corresponds to a live case — catches silently
     dropped coverage when the case list shrinks. *)
  let live =
    List.map (fun (c : Golden_cases.case) -> c.Golden_cases.name)
      (Golden_cases.cases ())
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem name live) then
        Alcotest.failf "golden %s has no live case" name)
    Goldens_data.goldens

let () =
  Alcotest.run "golden-parity"
    [
      ( "parity",
        [
          Alcotest.test_case "sequential" `Quick test_sequential;
          Alcotest.test_case "with-obs" `Quick test_with_obs;
          Alcotest.test_case "domains-2" `Quick (test_domains 2);
          Alcotest.test_case "domains-4" `Quick (test_domains 4);
          Alcotest.test_case "direct-active" `Quick test_direct_active;
          Alcotest.test_case "goldens-cover-cases" `Quick
            test_no_missing_goldens;
        ] );
    ]
