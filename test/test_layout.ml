(* Layout-polymorphic batch tests: Blocked ↔ Interleaved round-trips,
   cross-layout bit-identity of every batched kernel, the coalescing
   advantage of the interleaved layout on the simulated device, and the
   Launch.Cache layout-salt regression. *)

open Vblu_smallblas
open Vblu_core
module L = Vblu_simt.Launch
module C = Vblu_simt.Counter

let state seed = Random.State.make [| 0x1a70; seed |]

let bits = Int64.bits_of_float

let check_bits_arr name (a : float array) (b : float array) =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun k v ->
      if bits v <> bits b.(k) then
        Alcotest.failf "%s: element %d differs (%h vs %h)" name k v b.(k))
    a

(* Bitwise batch comparison through the layout-polymorphic accessors, so
   it works across layouts (padding excluded by construction). *)
let check_batch_bits name (x : Batch.t) (y : Batch.t) =
  Alcotest.(check int) (name ^ " count") (Batch.count x) (Batch.count y);
  for i = 0 to Batch.count x - 1 do
    let s = x.Batch.sizes.(i) in
    Alcotest.(check int) (name ^ " size") s y.Batch.sizes.(i);
    for j = 0 to s - 1 do
      for r = 0 to s - 1 do
        let a = x.Batch.values.(Batch.index x i r j)
        and b = y.Batch.values.(Batch.index y i r j) in
        if bits a <> bits b then
          Alcotest.failf "%s: block %d (%d,%d) differs (%h vs %h)" name i r j
            a b
      done
    done
  done

let check_vec_bits name (x : Batch.vec) (y : Batch.vec) =
  Alcotest.(check int) (name ^ " vcount") x.Batch.vcount y.Batch.vcount;
  for i = 0 to x.Batch.vcount - 1 do
    for k = 0 to x.Batch.vsizes.(i) - 1 do
      let a = x.Batch.vvalues.(Batch.vec_index x i k)
      and b = y.Batch.vvalues.(Batch.vec_index y i k) in
      if bits a <> bits b then
        Alcotest.failf "%s: vec %d elem %d differs (%h vs %h)" name i k a b
    done
  done

let txns (s : L.stats) = s.L.total.C.gmem_transactions

(* ------------------------------------------------------------------ *)
(* Container: empty batches, geometry, round-trips                     *)

let test_empty_sizes () =
  Alcotest.(check (array int)) "uniform count:0" [||]
    (Batch.uniform_sizes ~count:0 ~size:7);
  Alcotest.(check (array int)) "random count:0" [||]
    (Batch.random_sizes ~count:0 ~min_size:1 ~max_size:9 ());
  Alcotest.check_raises "negative count"
    (Invalid_argument "Batch.uniform_sizes: negative count") (fun () ->
      ignore (Batch.uniform_sizes ~count:(-1) ~size:7));
  Alcotest.check_raises "non-positive size"
    (Invalid_argument "Batch.uniform_sizes: non-positive size") (fun () ->
      ignore (Batch.uniform_sizes ~count:3 ~size:0));
  (* Empty batches are legal in either layout. *)
  let e = Batch.create ~layout:Batch.Interleaved [||] in
  Alcotest.(check int) "empty interleaved" 0 (Batch.count e);
  Alcotest.(check int) "no storage" 0 (Batch.total_values e)

let test_geometry () =
  let sizes = Batch.random_sizes ~state:(state 1) ~count:200 ~min_size:1
      ~max_size:32 () in
  let b = Batch.create ~layout:Batch.Interleaved sizes in
  for i = 0 to Batch.count b - 1 do
    (match Batch.cohort b i with
    | None -> Alcotest.fail "interleaved problem without cohort"
    | Some (w, slot) ->
        Alcotest.(check bool) "cohort width bounds" true (w >= 1 && w <= 32);
        Alcotest.(check bool) "slot in cohort" true (slot >= 0 && slot < w);
        Alcotest.(check int) "stride = width" w (Batch.stride b i);
        (* Cohort bases are 32-element aligned. *)
        Alcotest.(check int) "aligned cohort base" 0
          ((Batch.base b i - slot) mod 32));
    (* Every element lands inside the storage and the last one exactly at
       base + stride*(s²-1). *)
    let s = sizes.(i) in
    let last = Batch.index b i (s - 1) (s - 1) in
    Alcotest.(check bool) "in bounds" true
      (last < Batch.total_values b
      && last = Batch.base b i + (Batch.stride b i * ((s * s) - 1)))
  done;
  (* A vector batch over the same sizes agrees on cohort geometry, so one
     warp cohort context serves matrix and vector buffers. *)
  let v = Batch.vec_create ~layout:Batch.Interleaved sizes in
  for i = 0 to Batch.count b - 1 do
    Alcotest.(check (option (pair int int))) "matrix/vec cohorts agree"
      (Batch.cohort b i) (Batch.vec_cohort v i)
  done

let test_salt_classes () =
  let sizes = Batch.random_sizes ~state:(state 2) ~count:64 ~min_size:1
      ~max_size:32 () in
  let bb = Batch.random_diagdom ~state:(state 3) sizes in
  let bi = Batch.with_layout Batch.Interleaved bb in
  List.iter
    (fun align ->
      for i = 0 to Batch.count bb - 1 do
        let cb = Batch.salt_class bb i ~align
        and ci = Batch.salt_class bi i ~align in
        Alcotest.(check bool) "blocked class in [0, align)" true
          (cb >= 0 && cb < align);
        Alcotest.(check bool) "interleaved class > align" true (ci > align);
        (* Disjoint ranges: a blocked and an interleaved problem can never
           share a Launch.Cache salt component. *)
        Alcotest.(check bool) "disjoint" true (cb <> ci)
      done)
    [ 4; 8 ]

let qcheck_roundtrip =
  QCheck.Test.make ~count:60 ~name:"layout round-trip is bitwise lossless"
    QCheck.(pair small_int (int_bound 30))
    (fun (seed, n) ->
      let st = state (1000 + seed) in
      let sizes =
        Batch.random_sizes ~state:st ~count:(1 + (n mod 24)) ~min_size:1
          ~max_size:32 ()
      in
      let b = Batch.random_general ~state:st sizes in
      let i = Batch.with_layout Batch.Interleaved b in
      let back = Batch.with_layout Batch.Blocked i in
      check_bits_arr "roundtrip" b.Batch.values back.Batch.values;
      check_batch_bits "accessor equality" b i;
      let v = Batch.vec_random ~state:st sizes in
      let vi = Batch.vec_with_layout Batch.Interleaved v in
      let vback = Batch.vec_with_layout Batch.Blocked vi in
      check_bits_arr "vec roundtrip" v.Batch.vvalues vback.Batch.vvalues;
      check_vec_bits "vec accessor equality" v vi;
      true)

let test_interleaved_builders () =
  (* random_* builders draw per problem in batch order, so the same seed
     yields bitwise identical data in either layout. *)
  let sizes = Batch.random_sizes ~state:(state 4) ~count:40 ~min_size:1
      ~max_size:32 () in
  let bb = Batch.random_diagdom ~state:(state 5) sizes in
  let bi = Batch.random_diagdom ~state:(state 5) ~layout:Batch.Interleaved
      sizes in
  Alcotest.(check bool) "layout tag" true
    (Batch.layout bi = Batch.Interleaved);
  check_batch_bits "diagdom builders agree" bb bi;
  let vb = Batch.vec_random ~state:(state 6) sizes in
  let vi = Batch.vec_random ~state:(state 6) ~layout:Batch.Interleaved sizes in
  check_vec_bits "vec builders agree" vb vi

(* ------------------------------------------------------------------ *)
(* Cross-layout kernel bit-identity                                    *)

let workload prec =
  let seed = match prec with Precision.Double -> 10 | Single -> 11 in
  let st = state seed in
  let sizes = Batch.random_sizes ~state:st ~count:48 ~min_size:1 ~max_size:32
      () in
  let b = Batch.random_general ~state:st sizes in
  (sizes, b, Batch.with_layout Batch.Interleaved b)

let check_info name a b = Alcotest.(check (array int)) name a b

let check_pivots name a b =
  Alcotest.(check bool) name true
    (Array.for_all2 (fun (x : int array) y -> x = y) a b)

let test_lu_parity prec () =
  let _, bb, bi = workload prec in
  List.iter
    (fun pivoting ->
      let rb = Batched_lu.factor ~prec ~pivoting bb in
      let ri = Batched_lu.factor ~prec ~pivoting bi in
      check_batch_bits "factors" rb.Batched_lu.factors ri.Batched_lu.factors;
      check_pivots "pivots" rb.Batched_lu.pivots ri.Batched_lu.pivots;
      check_info "info" rb.Batched_lu.info ri.Batched_lu.info;
      Alcotest.(check bool) "factors inherit layout" true
        (Batch.layout ri.Batched_lu.factors = Batch.Interleaved))
    [ Batched_lu.Implicit; Batched_lu.Explicit; Batched_lu.No_pivoting ]

let test_trsv_parity prec () =
  let sizes, bb, bi = workload prec in
  let lb = Batched_lu.factor ~prec bb in
  let li = Batched_lu.factor ~prec bi in
  let rhs = Batch.vec_random ~state:(state 12) sizes in
  let rhsi = Batch.vec_with_layout Batch.Interleaved rhs in
  List.iter
    (fun variant ->
      let rb =
        Batched_trsv.solve ~prec ~variant ~factors:lb.Batched_lu.factors
          ~pivots:lb.Batched_lu.pivots rhs
      in
      let ri =
        Batched_trsv.solve ~prec ~variant ~factors:li.Batched_lu.factors
          ~pivots:li.Batched_lu.pivots rhsi
      in
      check_vec_bits "solutions" rb.Batched_trsv.solutions
        ri.Batched_trsv.solutions;
      check_info "info" rb.Batched_trsv.info ri.Batched_trsv.info)
    [ Batched_trsv.Eager; Batched_trsv.Lazy ];
  (* Mixing layouts between factors and right-hand sides is a caller bug. *)
  Alcotest.check_raises "layout mismatch"
    (Invalid_argument "Batched_trsv.solve: factors/rhs layout mismatch")
    (fun () ->
      ignore
        (Batched_trsv.solve ~prec ~factors:li.Batched_lu.factors
           ~pivots:li.Batched_lu.pivots rhs))

let test_trsm_parity prec () =
  let sizes, bb, bi = workload prec in
  let lb = Batched_lu.factor ~prec bb in
  let li = Batched_lu.factor ~prec bi in
  let sets =
    Array.init 3 (fun r -> Batch.vec_random ~state:(state (20 + r)) sizes)
  in
  let seti = Array.map (Batch.vec_with_layout Batch.Interleaved) sets in
  let rb =
    Batched_trsm.solve ~prec ~factors:lb.Batched_lu.factors
      ~pivots:lb.Batched_lu.pivots sets
  in
  let ri =
    Batched_trsm.solve ~prec ~factors:li.Batched_lu.factors
      ~pivots:li.Batched_lu.pivots seti
  in
  check_info "info" rb.Batched_trsm.info ri.Batched_trsm.info;
  Array.iteri
    (fun r sb ->
      check_vec_bits "solutions" sb ri.Batched_trsm.solutions.(r))
    rb.Batched_trsm.solutions

let test_gemm_parity prec () =
  let sizes, ab, ai = workload prec in
  let bbat = Batch.random_general ~state:(state 13) sizes in
  let cbat = Batch.random_general ~state:(state 14) sizes in
  let bi = Batch.with_layout Batch.Interleaved bbat in
  let ci = Batch.with_layout Batch.Interleaved cbat in
  let rb =
    Batched_gemm.multiply ~prec ~alpha:1.5 ~beta:0.5 ~a:ab ~b:bbat ~c:cbat ()
  in
  let ri = Batched_gemm.multiply ~prec ~alpha:1.5 ~beta:0.5 ~a:ai ~b:bi ~c:ci ()
  in
  check_batch_bits "products" rb.Batched_gemm.products ri.Batched_gemm.products

let spd_workload prec =
  let seed = match prec with Precision.Double -> 15 | Single -> 16 in
  let st = state seed in
  let sizes = Batch.random_sizes ~state:st ~count:32 ~min_size:1 ~max_size:32
      () in
  let ms =
    Array.map
      (fun n ->
        let a = Matrix.random_diagdom ~state:st n in
        (* Aᵀ·A + n·I is SPD. *)
        let ata = Matrix.matmul (Matrix.transpose a) a in
        Matrix.add ata (Matrix.scale (float_of_int n) (Matrix.identity n)))
      sizes
  in
  (sizes, Batch.of_matrices ms, Batch.of_matrices ~layout:Batch.Interleaved ms)

let test_cholesky_parity prec () =
  let sizes, bb, bi = spd_workload prec in
  let fb = Batched_cholesky.factor ~prec bb in
  let fi = Batched_cholesky.factor ~prec bi in
  check_batch_bits "factors" fb.Batched_cholesky.factors
    fi.Batched_cholesky.factors;
  check_info "info" fb.Batched_cholesky.info fi.Batched_cholesky.info;
  let rhs = Batch.vec_random ~state:(state 17) sizes in
  let rhsi = Batch.vec_with_layout Batch.Interleaved rhs in
  let sb = Batched_cholesky.solve ~prec ~factors:fb.Batched_cholesky.factors
      rhs in
  let si = Batched_cholesky.solve ~prec ~factors:fi.Batched_cholesky.factors
      rhsi in
  check_vec_bits "solutions" sb.Batched_trsv.solutions
    si.Batched_trsv.solutions;
  check_info "solve info" sb.Batched_trsv.info si.Batched_trsv.info

let test_gh_parity prec () =
  let sizes, bb, bi = workload prec in
  let rb = Batched_gh.factor ~prec bb in
  let ri = Batched_gh.factor ~prec bi in
  check_info "info" rb.Batched_gh.info ri.Batched_gh.info;
  Array.iteri
    (fun i (f : Gauss_huard.factors) ->
      check_bits_arr "gh factors" f.Gauss_huard.gh.Matrix.a
        ri.Batched_gh.factors.(i).Gauss_huard.gh.Matrix.a)
    rb.Batched_gh.factors;
  let rhs = Batch.vec_random ~state:(state 18) sizes in
  let rhsi = Batch.vec_with_layout Batch.Interleaved rhs in
  let sb = Batched_gh.solve ~prec rb rhs in
  let si = Batched_gh.solve ~prec ri rhsi in
  check_vec_bits "solutions" sb.Batched_gh.solutions si.Batched_gh.solutions;
  check_info "solve info" sb.Batched_gh.solve_info si.Batched_gh.solve_info

let test_gje_parity prec () =
  let sizes, bb, bi = workload prec in
  let rb = Batched_gje.invert ~prec bb in
  let ri = Batched_gje.invert ~prec bi in
  check_info "info" rb.Batched_gje.info ri.Batched_gje.info;
  Array.iteri
    (fun i (m : Matrix.t) ->
      check_bits_arr "inverses" m.Matrix.a
        ri.Batched_gje.inverses.(i).Matrix.a)
    rb.Batched_gje.inverses;
  let rhs = Batch.vec_random ~state:(state 19) sizes in
  let rhsi = Batch.vec_with_layout Batch.Interleaved rhs in
  let sb = Batched_gje.apply ~prec rb rhs in
  let si = Batched_gje.apply ~prec ri rhsi in
  check_vec_bits "products" sb.Batched_gje.products si.Batched_gje.products

let test_cublas_parity prec () =
  (* The cuBLAS model only accepts uniform sizes. *)
  let sizes = Batch.uniform_sizes ~count:24 ~size:16 in
  let st = state 21 in
  let bb = Batch.random_general ~state:st sizes in
  let bi = Batch.with_layout Batch.Interleaved bb in
  let rb = Cublas_model.factor ~prec bb in
  let ri = Cublas_model.factor ~prec bi in
  check_batch_bits "factors" rb.Cublas_model.factors ri.Cublas_model.factors;
  check_pivots "pivots" rb.Cublas_model.pivots ri.Cublas_model.pivots;
  check_info "info" rb.Cublas_model.info ri.Cublas_model.info;
  let rhs = Batch.vec_random ~state:(state 22) sizes in
  let rhsi = Batch.vec_with_layout Batch.Interleaved rhs in
  let sb = Cublas_model.solve ~prec rb rhs in
  let si = Cublas_model.solve ~prec ri rhsi in
  check_vec_bits "solutions" sb.Cublas_model.solutions
    si.Cublas_model.solutions;
  check_info "solve info" sb.Cublas_model.solve_info si.Cublas_model.solve_info

(* ------------------------------------------------------------------ *)
(* Coalescing: interleaved must cost strictly fewer transactions        *)

let check_fewer_transactions name (bb, rhs) (bi, rhsi) =
  let lb = Batched_lu.factor bb and li = Batched_lu.factor bi in
  Alcotest.(check bool)
    (Printf.sprintf "%s LU: interleaved %.0f < blocked %.0f txns" name
       (txns li.Batched_lu.stats) (txns lb.Batched_lu.stats))
    true
    (txns li.Batched_lu.stats < txns lb.Batched_lu.stats);
  List.iter
    (fun variant ->
      let tb =
        Batched_trsv.solve ~variant ~factors:lb.Batched_lu.factors
          ~pivots:lb.Batched_lu.pivots rhs
      in
      let ti =
        Batched_trsv.solve ~variant ~factors:li.Batched_lu.factors
          ~pivots:li.Batched_lu.pivots rhsi
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s TRSV: interleaved %.0f < blocked %.0f txns" name
           (txns ti.Batched_trsv.stats) (txns tb.Batched_trsv.stats))
        true
        (txns ti.Batched_trsv.stats < txns tb.Batched_trsv.stats))
    [ Batched_trsv.Eager; Batched_trsv.Lazy ]

let test_fewer_transactions () =
  (* Variable sizes make blocked bases straddle transaction segments, so
     the cohort-cooperative interleaved layout must win on every strided
     kernel of the LU / TRSV pipeline (the acceptance criterion). *)
  let st = state 30 in
  let sizes = Batch.random_sizes ~state:st ~count:64 ~min_size:5 ~max_size:30
      () in
  let bb = Batch.random_diagdom ~state:st sizes in
  let rhs = Batch.vec_random ~state:st sizes in
  check_fewer_transactions "converted" (bb, rhs)
    ( Batch.with_layout Batch.Interleaved bb,
      Batch.vec_with_layout Batch.Interleaved rhs );
  (* The coalescing gate's workload: each layout draws its own matrices
     and right-hand sides from the same seed. *)
  let sizes =
    Batch.random_sizes
      ~state:(Random.State.make [| 0x10c; 1 |])
      ~count:64 ~min_size:5 ~max_size:30 ()
  in
  let drawn layout =
    let st = Random.State.make [| 0x10c; 2 |] in
    let b = Batch.random_diagdom ~state:st ~layout sizes in
    (b, Batch.vec_random ~state:st ~layout sizes)
  in
  check_fewer_transactions "drawn" (drawn Batch.Blocked)
    (drawn Batch.Interleaved)

let test_cache_layout_salts () =
  (* Regression for the layout/cache collision: a blocked and an
     interleaved launch over the same (kernel, precision, size, config)
     must not share a Launch.Cache entry.  Before the salt ranges were
     made disjoint, whichever layout ran second replayed the counters the
     first had charged — so with the blocked batch run first the
     interleaved one reported blocked transaction counts.  Uniform sizes
     with unaligned blocks make the difference visible. *)
  L.Cache.clear ();
  let sizes = Batch.uniform_sizes ~count:32 ~size:7 in
  let bb = Batch.random_diagdom ~state:(state 31) sizes in
  let bi = Batch.with_layout Batch.Interleaved bb in
  let rb = Batched_lu.factor bb in
  let ri = Batched_lu.factor bi in
  check_batch_bits "values still agree" rb.Batched_lu.factors
    ri.Batched_lu.factors;
  Alcotest.(check bool)
    (Printf.sprintf "distinct counters (interleaved %.0f vs blocked %.0f)"
       (txns ri.Batched_lu.stats) (txns rb.Batched_lu.stats))
    true
    (txns ri.Batched_lu.stats <> txns rb.Batched_lu.stats);
  (* And the same launch replayed is cache-stable. *)
  let ri2 = Batched_lu.factor bi in
  Alcotest.(check bool) "interleaved rerun identical" true
    (Float.equal (txns ri.Batched_lu.stats) (txns ri2.Batched_lu.stats))

let () =
  let q = QCheck_alcotest.to_alcotest in
  let per_prec name f =
    [
      Alcotest.test_case (name ^ " fp64") `Quick (f Precision.Double);
      Alcotest.test_case (name ^ " fp32") `Quick (f Precision.Single);
    ]
  in
  Alcotest.run "layout"
    [
      ( "container",
        [
          Alcotest.test_case "empty sizes" `Quick test_empty_sizes;
          Alcotest.test_case "interleaved geometry" `Quick test_geometry;
          Alcotest.test_case "salt classes" `Quick test_salt_classes;
          q qcheck_roundtrip;
          Alcotest.test_case "builders by layout" `Quick
            test_interleaved_builders;
        ] );
      ( "kernel parity",
        per_prec "lu" test_lu_parity
        @ per_prec "trsv" test_trsv_parity
        @ per_prec "trsm" test_trsm_parity
        @ per_prec "gemm" test_gemm_parity
        @ per_prec "cholesky" test_cholesky_parity
        @ per_prec "gauss-huard" test_gh_parity
        @ per_prec "gauss-jordan" test_gje_parity
        @ per_prec "cublas model" test_cublas_parity );
      ( "coalescing",
        [
          Alcotest.test_case "interleaved fewer transactions" `Quick
            test_fewer_transactions;
          Alcotest.test_case "cache layout salts" `Quick
            test_cache_layout_salts;
        ] );
    ]
