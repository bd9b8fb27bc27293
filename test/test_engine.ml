(* Tests for the zero-allocation warp engine and the cross-launch stats
   cache: in-place ops must be bit-identical to the allocating wrappers,
   the generation-stamped segment table must agree with a reference
   distinct-segment count, and Launch.Cache must be value-independent,
   deterministic, bypassed under fault injection, and self-healing on
   divergent (breakdown) charge streams. *)

open Vblu_smallblas
open Vblu_simt
open Vblu_core

let qtest = QCheck_alcotest.to_alcotest

let counters_equal (a : Counter.t) (b : Counter.t) =
  Float.equal a.Counter.fma_instrs b.Counter.fma_instrs
  && Float.equal a.Counter.div_instrs b.Counter.div_instrs
  && Float.equal a.Counter.shfl_instrs b.Counter.shfl_instrs
  && Float.equal a.Counter.gmem_instrs b.Counter.gmem_instrs
  && Float.equal a.Counter.gmem_transactions b.Counter.gmem_transactions
  && Float.equal a.Counter.gmem_bytes b.Counter.gmem_bytes
  && Float.equal a.Counter.gmem_elems b.Counter.gmem_elems
  && Float.equal a.Counter.smem_accesses b.Counter.smem_accesses
  && Float.equal a.Counter.useful_flops b.Counter.useful_flops
  && a.Counter.gmem_rounds = b.Counter.gmem_rounds

let stats_equal (a : Launch.stats) (b : Launch.stats) =
  Float.equal a.Launch.time_us b.Launch.time_us
  && Float.equal a.Launch.gflops b.Launch.gflops
  && Float.equal a.Launch.bandwidth_gbs b.Launch.bandwidth_gbs
  && a.Launch.warps = b.Launch.warps
  && counters_equal a.Launch.total b.Launch.total
  && a.Launch.faults_injected = b.Launch.faults_injected

(* ------------------------------------------------------------------ *)
(* Lane ops vs the scalar [Precision] reference                        *)

let lane_arrays =
  QCheck.(
    pair
      (array_of_size (Gen.return 32) (float_range (-100.) 100.))
      (array_of_size (Gen.return 32) bool))

let qcheck_into_reference =
  QCheck.Test.make ~count:100 ~name:"into-ops match Precision ops"
    QCheck.(pair lane_arrays lane_arrays)
    (fun (((a, active), (b, _)) : (float array * bool array) * (float array * bool array)) ->
      let c = Array.map (fun x -> x +. 1.0) b in
      List.for_all
        (fun prec ->
          let w = Warp.create prec () in
          let into op =
            let dst = Warp.reg w 70 in
            op ~dst;
            Array.copy dst
          in
          (* Active lanes take the scalar op, inactive ones [pass]. *)
          let lanewise f pass =
            Array.init 32 (fun i -> if active.(i) then f i else pass.(i))
          in
          let eq x y = Array.for_all2 (fun u v -> Float.equal u v) x y in
          let cnt = Warp.counter w in
          eq
            (into (fun ~dst -> Warp.fma_into w ~active ~dst a b c))
            (lanewise (fun i -> Precision.fma prec a.(i) b.(i) c.(i)) c)
          && eq
               (into (fun ~dst -> Warp.fnma_into w ~active ~dst a b c))
               (lanewise (fun i -> Precision.fma prec (-.a.(i)) b.(i) c.(i)) c)
          && eq
               (into (fun ~dst -> Warp.add_into w ~active ~dst a b))
               (lanewise (fun i -> Precision.add prec a.(i) b.(i)) a)
          && eq
               (into (fun ~dst -> Warp.mul_into w ~active ~dst a b))
               (lanewise (fun i -> Precision.mul prec a.(i) b.(i)) a)
          && eq
               (into (fun ~dst -> Warp.div_into w ~active ~dst a c))
               (lanewise (fun i -> Precision.div prec a.(i) c.(i)) a)
          && eq
               (into (fun ~dst -> Warp.sqrt_into w ~active ~dst a))
               (lanewise (fun i -> Precision.round prec (sqrt a.(i))) a)
          && eq
               (into (fun ~dst -> Warp.broadcast_into w ~dst a ~src:7))
               (Array.make 32 a.(7))
          && cnt.Counter.fma_instrs = 4.0
          && cnt.Counter.div_instrs = 2.0
          && cnt.Counter.shfl_instrs = 1.0)
        [ Precision.Double; Precision.Single ])

let qcheck_into_aliasing =
  QCheck.Test.make ~count:100 ~name:"aliased dst matches unaliased result"
    lane_arrays
    (fun (a, active) ->
      let b = Array.map (fun x -> (2.0 *. x) +. 1.0) a in
      let w1 = Warp.create Precision.Double () in
      let w2 = Warp.create Precision.Double () in
      let r = Array.make 32 0.0 in
      Warp.fma_into w1 ~active ~dst:r a b a;
      let dst = Warp.reg w2 70 in
      Array.blit a 0 dst 0 32;
      (* dst aliases the addend: fma_into must read before writing. *)
      Warp.fma_into w2 ~active ~dst a b dst;
      Array.for_all2 Float.equal r dst)

(* ------------------------------------------------------------------ *)
(* Generation-stamped segment table vs reference                       *)

let qcheck_segments =
  QCheck.Test.make ~count:200
    ~name:"gen-stamped segment count = Hashtbl reference"
    QCheck.(
      pair
        (array_of_size (Gen.return 32) (int_range 0 4096))
        (array_of_size (Gen.return 32) bool))
    (fun (addrs, active) ->
      QCheck.assume (Array.exists (fun x -> x) active);
      let prec = Precision.Double in
      let cfg = Config.p100 in
      let w = Warp.create ~cfg prec () in
      let mem = Gmem.create prec 8192 in
      Warp.load_into w mem ~active addrs ~dst:(Warp.reg w 0);
      (* Reference: distinct segments over a Hashtbl, plus the replay
         formula. *)
      let per = Config.elements_per_transaction cfg prec in
      let seen = Hashtbl.create 64 in
      let n = ref 0 and act = ref 0 in
      Array.iteri
        (fun i a ->
          if active.(i) then begin
            incr act;
            let s = a / per in
            if not (Hashtbl.mem seen s) then begin
              Hashtbl.add seen s ();
              incr n
            end
          end)
        addrs;
      let min_txns = max 1 ((!act + per - 1) / per) in
      let replays =
        Float.max 1.0 (float_of_int !n /. float_of_int min_txns /. 2.0)
      in
      let c = Warp.counter w in
      Float.equal c.Counter.gmem_transactions (float_of_int !n)
      && Float.equal c.Counter.gmem_instrs replays
      && Float.equal c.Counter.gmem_bytes
           (float_of_int (!n * cfg.Config.transaction_bytes))
      && Float.equal c.Counter.gmem_elems (float_of_int !act))

(* ------------------------------------------------------------------ *)
(* Launch.Cache: value-independence, determinism, bypass, healing      *)

let state seed = Random.State.make [| 0xe4c; seed |]

let sized_batch seed =
  let st = state seed in
  let sizes = Batch.random_sizes ~state:st ~count:24 ~min_size:1 ~max_size:32 () in
  (sizes, Batch.random_diagdom ~state:st sizes)

let qcheck_cache_value_independence =
  QCheck.Test.make ~count:20
    ~name:"cached counters independent of matrix values"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let sizes, b1 = sized_batch seed in
      let b2 = Batch.random_diagdom ~state:(state (seed + 5000)) sizes in
      let factor b = Batched_lu.factor ~prec:Precision.Double b in
      (* Cold: b2 with an empty cache. *)
      Launch.Cache.clear ();
      let cold = (factor b2).Batched_lu.stats in
      (* Warm: the cache primed by b1 (same sizes, different values). *)
      Launch.Cache.clear ();
      ignore (factor b1);
      let warm = (factor b2).Batched_lu.stats in
      Launch.Cache.clear ();
      stats_equal cold warm)

let test_cache_hit_determinism () =
  let _, b = sized_batch 42 in
  Launch.Cache.clear ();
  let r1 = Batched_lu.factor b in
  let h1, _ = Launch.Cache.stats () in
  let r2 = Batched_lu.factor b in
  let h2, _ = Launch.Cache.stats () in
  Alcotest.(check bool) "second run hits the cache" true (h2 > h1);
  Alcotest.(check bool) "stats bit-identical" true
    (stats_equal r1.Batched_lu.stats r2.Batched_lu.stats);
  Alcotest.(check (array (float 0.0))) "factors bit-identical"
    r1.Batched_lu.factors.Batch.values r2.Batched_lu.factors.Batch.values;
  Launch.Cache.clear ()

let test_cache_bypass_under_injection () =
  let _, b = sized_batch 7 in
  let plan =
    match
      Vblu_fault.Fault.Plan.of_spec "seed=3,every=2,target=reg,kind=flip:12"
    with
    | Ok p -> p
    | Error m -> Alcotest.failf "bad spec: %s" m
  in
  Launch.Cache.clear ();
  let r = Batched_lu.factor ~faults:plan b in
  let hits, misses = Launch.Cache.stats () in
  Alcotest.(check int) "no cache lookups under injection" 0 (hits + misses);
  Alcotest.(check bool) "faults actually fired" true
    (r.Batched_lu.stats.Launch.faults_injected > 0);
  Launch.Cache.clear ()

let test_cache_disabled_equals_enabled () =
  let _, b = sized_batch 11 in
  Launch.Cache.clear ();
  Launch.Cache.set_enabled false;
  let off = Batched_lu.factor b in
  let h, m = Launch.Cache.stats () in
  Alcotest.(check int) "disabled cache sees no traffic" 0 (h + m);
  Launch.Cache.set_enabled true;
  ignore (Batched_lu.factor b);
  let on2 = Batched_lu.factor b in
  Alcotest.(check bool) "stats equal with and without cache" true
    (stats_equal off.Batched_lu.stats on2.Batched_lu.stats);
  Launch.Cache.clear ()

let test_cache_breakdown_heals () =
  (* Two same-size SPD blocks behind a non-SPD first block: the first
     (cached) execution takes the breakdown early-exit, so the healthy
     replays must detect the event-signature mismatch and rerun charging.
     The resulting stats must match a cache-disabled run bit-for-bit. *)
  let st = state 3 in
  let bad = Matrix.identity 8 in
  Matrix.set bad 0 0 (-1.0);
  let spd () =
    let m = Matrix.random_diagdom ~state:st 8 in
    (* Diagonally dominant with positive diagonal is SPD enough for an
       unflagged Cholesky sweep. *)
    m
  in
  let b = Batch.of_matrices [| bad; spd (); spd () |] in
  Launch.Cache.clear ();
  let cached = Batched_cholesky.factor b in
  Launch.Cache.clear ();
  Launch.Cache.set_enabled false;
  let direct = Batched_cholesky.factor b in
  Launch.Cache.set_enabled true;
  Launch.Cache.clear ();
  Alcotest.(check (array int)) "info agrees" direct.Batched_cholesky.info
    cached.Batched_cholesky.info;
  Alcotest.(check bool) "first block flagged" true
    (cached.Batched_cholesky.info.(0) > 0);
  Alcotest.(check bool) "stats heal to the uncached run" true
    (stats_equal direct.Batched_cholesky.stats cached.Batched_cholesky.stats);
  Alcotest.(check (array (float 0.0))) "factors bit-identical"
    direct.Batched_cholesky.factors.Batch.values
    cached.Batched_cholesky.factors.Batch.values

(* ------------------------------------------------------------------ *)
(* Direct execution: host numerics ≡ interpreted numerics, bitwise     *)

(* Reference result with the cache (and thus the direct path) off. *)
let with_cache_off f =
  Launch.Cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Launch.Cache.set_enabled true) f

(* Fresh-cache run with direct active; returns (result, direct_hits). *)
let with_direct_on f =
  Launch.Cache.clear ();
  let r = f () in
  let dh = Launch.Cache.direct_hits () in
  Launch.Cache.clear ();
  (r, dh)

let direct_kernel_sizes st =
  (* The warp-kernel corner sizes; repeats make cache hits likely, so the
     direct path usually serves problems instead of only certifying. *)
  let picks = [| 1; 7; 16; 32 |] in
  Array.init 20 (fun _ -> picks.(Random.State.int st 4))

let qcheck_direct_lu_parity =
  QCheck.Test.make ~count:25
    ~name:"direct getrf bitwise = simulated (values, pivots, info, stats)"
    QCheck.(pair (int_range 0 1000) bool)
    (fun (seed, single) ->
      let prec = if single then Precision.Single else Precision.Double in
      let st = state seed in
      let sizes = direct_kernel_sizes st in
      let b = Batch.random_diagdom ~state:st sizes in
      let run () = Batched_lu.factor ~prec b in
      let reference = with_cache_off run in
      Launch.Cache.clear ();
      let r = run () in
      let hits, _ = Launch.Cache.stats () in
      let dh = Launch.Cache.direct_hits () in
      Launch.Cache.clear ();
      (* Every hit must be served directly (clean diag-dominant blocks all
         certify), but a size sequence can land each problem in its own
         (size, alignment-salt) class and legitimately see zero hits — the
         deterministic all-kernels test pins the dh > 0 guarantee with a
         repeat-class construction. *)
      dh = hits
      && r.Batched_lu.factors.Batch.values
         = reference.Batched_lu.factors.Batch.values
      && r.Batched_lu.pivots = reference.Batched_lu.pivots
      && r.Batched_lu.info = reference.Batched_lu.info
      && stats_equal r.Batched_lu.stats reference.Batched_lu.stats)

(* Symmetrize (lower triangle wins) and lift the diagonal so every block
   is SPD and the Cholesky sweep runs unflagged — a breakdown would
   de-certify the entry and mask the direct path. *)
let spd_batch ?layout st sizes =
  Batch.of_matrices ?layout
    (Array.map
       (fun s ->
         let m = Matrix.random_diagdom ~state:st s in
         for r = 0 to s - 1 do
           for c = 0 to r - 1 do
             Matrix.set m c r (Matrix.get m r c)
           done;
           Matrix.set m r r (Float.abs (Matrix.get m r r) +. float_of_int s)
         done;
         m)
       sizes)

let test_direct_all_kernels () =
  (* Every kernel exposing a direct closure, both precisions: bitwise
     value/info parity against the cache-off interpreter, with the direct
     path actually exercised. *)
  let sizes = [| 8; 8; 8; 16; 16; 32; 7; 7; 1; 1 |] in
  let check name (values_equal, dh) =
    Alcotest.(check bool) (name ^ " bitwise") true values_equal;
    Alcotest.(check bool) (name ^ " exercised direct") true (dh > 0)
  in
  List.iter
    (fun prec ->
      let ps = Precision.to_string prec in
      let st = state 91 in
      let b = Batch.random_diagdom ~state:st sizes in
      let lu = with_cache_off (fun () -> Batched_lu.factor ~prec b) in
      let rhs = Batch.vec_random ~state:st sizes in
      List.iter
        (fun (vname, variant) ->
          let run () =
            Batched_trsv.solve ~prec ~variant ~factors:lu.Batched_lu.factors
              ~pivots:lu.Batched_lu.pivots rhs
          in
          let reference = with_cache_off run in
          let r, dh = with_direct_on run in
          check
            (Printf.sprintf "trsv.%s %s" vname ps)
            ( r.Batched_trsv.solutions.Batch.vvalues
              = reference.Batched_trsv.solutions.Batch.vvalues
              && r.Batched_trsv.info = reference.Batched_trsv.info
              && stats_equal r.Batched_trsv.stats reference.Batched_trsv.stats,
              dh ))
        [ ("eager", Batched_trsv.Eager); ("lazy", Batched_trsv.Lazy) ];
      let rhs_sets = [| rhs; Batch.vec_random ~state:st sizes |] in
      let run_trsm () =
        Batched_trsm.solve ~prec ~factors:lu.Batched_lu.factors
          ~pivots:lu.Batched_lu.pivots rhs_sets
      in
      let reference = with_cache_off run_trsm in
      let r, dh = with_direct_on run_trsm in
      check ("trsm " ^ ps)
        ( Array.for_all2
            (fun (x : Batch.vec) (y : Batch.vec) ->
              x.Batch.vvalues = y.Batch.vvalues)
            r.Batched_trsm.solutions reference.Batched_trsm.solutions
          && r.Batched_trsm.info = reference.Batched_trsm.info,
          dh );
      let ba = Batch.random_general ~state:st sizes
      and bb = Batch.random_general ~state:st sizes in
      let run_gemm () =
        Batched_gemm.multiply ~prec ~alpha:1.25 ~beta:0.5 ~a:ba ~b:bb ~c:b ()
      in
      let reference = with_cache_off run_gemm in
      let r, dh = with_direct_on run_gemm in
      check ("gemm " ^ ps)
        ( r.Batched_gemm.products.Batch.values
          = reference.Batched_gemm.products.Batch.values,
          dh );
      let spd = spd_batch st sizes in
      let ch = with_cache_off (fun () -> Batched_cholesky.factor ~prec spd) in
      let run_potrf () = Batched_cholesky.factor ~prec spd in
      let reference = with_cache_off run_potrf in
      let r, dh = with_direct_on run_potrf in
      check ("potrf " ^ ps)
        ( r.Batched_cholesky.factors.Batch.values
          = reference.Batched_cholesky.factors.Batch.values
          && r.Batched_cholesky.info = reference.Batched_cholesky.info,
          dh );
      let run_potrs () =
        Batched_cholesky.solve ~prec ~factors:ch.Batched_cholesky.factors rhs
      in
      let reference = with_cache_off run_potrs in
      let r, dh = with_direct_on run_potrs in
      check ("potrs " ^ ps)
        ( r.Batched_trsv.solutions.Batch.vvalues
          = reference.Batched_trsv.solutions.Batch.vvalues
          && r.Batched_trsv.info = reference.Batched_trsv.info,
          dh );
      let ghf = with_cache_off (fun () -> Batched_gh.factor ~prec b) in
      let run_ghf () = Batched_gh.factor ~prec b in
      let reference = with_cache_off run_ghf in
      let r, dh = with_direct_on run_ghf in
      check ("gh.factor " ^ ps)
        ( r.Batched_gh.info = reference.Batched_gh.info
          && Array.for_all2
               (fun (x : Gauss_huard.factors) (y : Gauss_huard.factors) ->
                 x.Gauss_huard.gh = y.Gauss_huard.gh
                 && x.Gauss_huard.cperm = y.Gauss_huard.cperm)
               r.Batched_gh.factors reference.Batched_gh.factors,
          dh );
      let run_ghs () = Batched_gh.solve ~prec ghf rhs in
      let reference = with_cache_off run_ghs in
      let r, dh = with_direct_on run_ghs in
      check ("gh.solve " ^ ps)
        ( r.Batched_gh.solutions.Batch.vvalues
          = reference.Batched_gh.solutions.Batch.vvalues
          && r.Batched_gh.solve_info = reference.Batched_gh.solve_info,
          dh ))
    [ Precision.Double; Precision.Single ]

let test_direct_breakdown_heals () =
  (* A singular block between healthy same-size blocks: the certified
     direct run surfaces the breakdown, demotes the hit, and the charging
     interpreter reruns the problem — values, info and stats must land
     exactly on the cache-off result, with the healthy neighbours still
     served directly. *)
  let st = state 23 in
  let mk () = Matrix.random_diagdom ~state:st 8 in
  let bad = Matrix.create 8 8 in
  let b = Batch.of_matrices [| mk (); mk (); bad; mk () |] in
  let run () = Batched_lu.factor b in
  let reference = with_cache_off run in
  let r, dh = with_direct_on run in
  Alcotest.(check bool) "singular block flagged" true (r.Batched_lu.info.(2) > 0);
  Alcotest.(check bool) "healthy blocks served directly" true (dh > 0);
  Alcotest.(check (array (float 0.0))) "factors bit-identical"
    reference.Batched_lu.factors.Batch.values r.Batched_lu.factors.Batch.values;
  Alcotest.(check (array int)) "info bit-identical" reference.Batched_lu.info
    r.Batched_lu.info;
  Alcotest.(check bool) "stats heal to the uncached run" true
    (stats_equal reference.Batched_lu.stats r.Batched_lu.stats)

let test_direct_respects_disabled_cache () =
  let _, b = sized_batch 19 in
  Launch.Cache.clear ();
  ignore (Batched_lu.factor b);
  let primed = Launch.Cache.direct_hits () in
  Launch.Cache.set_enabled false;
  ignore (Batched_lu.factor b);
  Launch.Cache.set_enabled true;
  Alcotest.(check int) "no direct hits while the cache is disabled" primed
    (Launch.Cache.direct_hits ());
  Launch.Cache.clear ()

(* ------------------------------------------------------------------ *)
(* Extraction: exact sparsity-signature salts and the direct gather     *)

let same_bits x y =
  Array.length x = Array.length y
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       x y

(* CSR from explicit per-row column lists (values [value r k]). *)
let csr_of_rows ~n_cols ?(value = fun _ _ -> 1.0) rows =
  let row_ptr = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun r cols -> row_ptr.(r + 1) <- row_ptr.(r) + List.length cols) rows;
  let col_idx = Array.concat (Array.to_list (Array.map Array.of_list rows)) in
  let values = Array.make (Array.length col_idx) 0.0 in
  Array.iteri
    (fun r cols -> List.iteri (fun k _ -> values.(row_ptr.(r) + k) <- value r k) cols)
    rows;
  Vblu_sparse.Csr.create ~n_rows:(Array.length rows) ~n_cols ~row_ptr ~col_idx
    ~values

(* A random pattern tiled by blocks of order 1..32: empty rows, rows longer
   than a warp, columns in and out of the block (and past the last row),
   non-finite, signed-zero and subnormal values.  [Csr.create] rejects
   duplicate columns, but both kernels let the later duplicate win, so
   some are planted afterwards by overwriting an index in place. *)
let random_extraction_input st =
  let sizes =
    Array.init
      (1 + Random.State.int st 5)
      (fun _ ->
        match Random.State.int st 4 with
        | 0 -> 1
        | 1 -> 32
        | _ -> 1 + Random.State.int st 32)
  in
  let starts = Array.make (Array.length sizes) 0 in
  for i = 1 to Array.length sizes - 1 do
    starts.(i) <- starts.(i - 1) + sizes.(i - 1)
  done;
  let n = Array.fold_left ( + ) 0 sizes in
  let n_cols = n + 64 in
  let rows =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun b s ->
              Array.init s (fun _ ->
                  let picked = Array.make n_cols false in
                  (match Random.State.int st 6 with
                  | 0 -> ()
                  | 1 ->
                    (* Longer than a warp: 33 consecutive columns. *)
                    let w = Random.State.int st (n_cols - 32) in
                    Array.fill picked w 33 true
                  | _ ->
                    for _ = 0 to Random.State.int st 10 do
                      let c =
                        if Random.State.bool st then
                          starts.(b) + Random.State.int st s
                        else Random.State.int st n_cols
                      in
                      picked.(c) <- true
                    done);
                  List.filter (fun c -> picked.(c)) (List.init n_cols Fun.id)))
            sizes))
  in
  let value _ _ =
    match Random.State.int st 10 with
    | 0 -> Float.nan
    | 1 -> Float.infinity
    | 2 -> Float.neg_infinity
    | 3 -> -0.0
    | 4 -> 1e-310
    | _ -> Random.State.float st 2.0 -. 1.0
  in
  let a = csr_of_rows ~n_cols ~value rows in
  let rp = a.Vblu_sparse.Csr.row_ptr and ci = a.Vblu_sparse.Csr.col_idx in
  for r = 0 to n - 1 do
    let len = rp.(r + 1) - rp.(r) in
    if len >= 2 && Random.State.int st 3 = 0 then begin
      let k = rp.(r) + 1 + Random.State.int st (len - 1) in
      ci.(k) <- ci.(k - 1)
    end
  done;
  (a, starts, sizes)

let qcheck_extraction_direct_parity =
  QCheck.Test.make ~count:60
    ~name:"warm extraction bitwise = cache-off (blocks, stats), served directly"
    QCheck.(triple (int_range 0 100_000) bool bool)
    (fun (seed, single, naive) ->
      let prec = if single then Precision.Single else Precision.Double in
      let strategy =
        if naive then Extraction.Row_per_thread else Extraction.Shared_memory
      in
      let a, block_starts, block_sizes = random_extraction_input (state seed) in
      let run () = Extraction.extract ~prec ~strategy a ~block_starts ~block_sizes in
      let reference = with_cache_off run in
      Launch.Cache.clear ();
      let cold = run () in
      let dh = Launch.Cache.direct_hits () in
      let warm = run () in
      let served = Launch.Cache.direct_hits () - dh in
      Launch.Cache.clear ();
      let same (r : Extraction.result) =
        same_bits r.Extraction.blocks.Batch.values
          reference.Extraction.blocks.Batch.values
        && stats_equal r.Extraction.stats reference.Extraction.stats
      in
      same cold && same warm && served = Array.length block_sizes)

let test_intern_exact () =
  (* Arrays agreeing in their first ten words look alike to
     [Hashtbl.hash]; interning must still tell them apart. *)
  Launch.Cache.clear ();
  let a = Array.init 40 Fun.id in
  let b = Array.mapi (fun i x -> if i = 39 then x + 1 else x) a in
  let ia = Launch.Cache.intern a and ib = Launch.Cache.intern b in
  Alcotest.(check bool) "distinct arrays, distinct ids" true (ia <> ib);
  Alcotest.(check int) "equal arrays, one id" ia
    (Launch.Cache.intern (Array.copy a));
  Alcotest.(check bool) "a prefix is another signature" true
    (Launch.Cache.intern (Array.sub a 0 39) <> ia);
  Launch.Cache.clear ();
  Alcotest.(check int) "clear restarts the ids" 0 (Launch.Cache.intern b);
  Launch.Cache.clear ()

let test_extraction_no_alias () =
  (* Pairs of launches whose order-8 block agrees in everything the charge
     streams read but one item: one in-block column (row 0 hits {0,1} or
     {0,4}; 4*8 = 32 lands on bank 0 too, a shared-memory conflict), one
     row's length (an extra column outside the block), the positions of a
     row's matches, or the alignment of the block's start row, of its
     first row pointer, or of its output offset.  Whichever launch warms the cache first, the other must keep
     its cold stats. *)
  let s = 8 in
  (* The block after the rows [pad]; rows 1.. hit three block columns. *)
  let mk ?(pad = []) row0 =
    let lead = List.length pad in
    let block =
      List.init s (fun r ->
          List.map (( + ) lead)
            (if r = 0 then row0
             else List.sort_uniq compare [ r; (r + 1) mod s; (r + 2) mod s ]))
    in
    (csr_of_rows ~n_cols:(lead + s + 8) (Array.of_list (pad @ block)), lead)
  in
  let one (a, start) = (a, [| start |], [| s |]) in
  let base = mk [ 0; 1 ] in
  let padded, start = mk ~pad:[ [ 0 ]; [ 1 ] ] [ 0; 1 ] in
  (* One leading row of 1 or 8 entries: the block's row pointers start at
     1 or 8, misaligned or aligned to a transaction. *)
  let pointer1 = mk ~pad:[ [ s + 1 ] ] [ 0; 1 ]
  and pointer8 = mk ~pad:[ 0 :: List.init 7 (fun k -> s + 1 + k) ] [ 0; 1 ] in
  (* Row 0 keeps block columns {0,1} and one outside column, placed before
     or after them: the matches sit at positions {1,2} or {0,1}, and a
     6-entry leading row makes only the former straddle a transaction. *)
  let six = [ List.init 6 (fun k -> s + 1 + k) ] in
  let before = mk ~pad:six [ -1; 0; 1 ] and after = mk ~pad:six [ 0; 1; s + 3 ] in
  let shared = Extraction.Shared_memory and naive = Extraction.Row_per_thread in
  let pairs =
    [
      ("column", shared, one base, one (mk [ 0; 4 ]));
      ("row length", shared, one base, one (mk [ 0; 1; s + 3 ]));
      ("row length", naive, one base, one (mk [ 0; 1; s + 3 ]));
      ("start row", shared, one base, one (mk ~pad:[ [] ] [ 0; 1 ]));
      ("first row pointer", shared, one pointer1, one pointer8);
      ("position in row", shared, one before, one after);
      ("position in row", naive, one before, one after);
      ( "output offset", shared,
        (padded, [| 0; start |], [| 1; s |]),
        (padded, [| 0; start |], [| 2; s |]) );
    ]
  in
  List.iter
    (fun prec ->
      List.iter
        (fun (what, strategy, x, y) ->
          let run (a, block_starts, block_sizes) =
            (Extraction.extract ~prec ~strategy a ~block_starts ~block_sizes)
              .Extraction.stats
          in
          let cold_x = with_cache_off (fun () -> run x)
          and cold_y = with_cache_off (fun () -> run y) in
          let label = Printf.sprintf "%s (%s)" what (Precision.to_string prec) in
          Alcotest.(check bool) (label ^ ": patterns charge differently") false
            (stats_equal cold_x cold_y);
          List.iter
            (fun (first, second, cold) ->
              Launch.Cache.clear ();
              ignore (run first);
              Alcotest.(check bool) (label ^ ": keeps its cold stats") true
                (stats_equal cold (run second)))
            [ (x, y, cold_y); (y, x, cold_x) ])
        pairs)
    [ Precision.Double; Precision.Single ];
  Launch.Cache.clear ()

(* ------------------------------------------------------------------ *)
(* Config fingerprints                                                 *)

(* ------------------------------------------------------------------ *)
(* Launch inputs                                                       *)

(* A Double launch reads its inputs in place and returns the buffer its
   kernels wrote, so no run may change an input array by a bit or return
   an output array [==] to an input.  Modes: cache off (interpreter
   only), a cold cache, a warm cache (the second of two runs, served by
   the direct path), and an armed gmem fault plan with ABFT, for the
   kernels that take them. *)
type launch_mode = Cache_off | Cold | Warm | Faulted

type launch_case = {
  kernel : string;
  floats : float array list;  (** every float input *)
  ints : int array list;  (** every int input *)
  faultable : bool;  (** takes [?faults] and [~abft] *)
  direct : bool;  (** a warm run is served by the direct path *)
  run : Vblu_fault.Fault.Plan.t option -> float array list;
}

let launch_cases prec layout =
  let sizes = [| 8; 8; 8; 16; 16; 32; 7; 7; 1; 1 |] in
  let st = state 23 in
  let b = Batch.random_general ~state:st ~layout sizes in
  let spd = spd_batch ~layout st sizes in
  let rhs = Batch.vec_random ~state:st ~layout sizes
  and rhs2 = Batch.vec_random ~state:st ~layout sizes in
  let c = Batch.random_general ~state:st ~layout sizes in
  let lu = with_cache_off (fun () -> Batched_lu.factor ~prec b) in
  let ch = with_cache_off (fun () -> Batched_cholesky.factor ~prec spd) in
  let a, block_starts, block_sizes = random_extraction_input st in
  let factors = lu.Batched_lu.factors and pivots = lu.Batched_lu.pivots in
  let chf = ch.Batched_cholesky.factors in
  let case ?(ints = []) ?(faultable = false) ?(direct = true) kernel floats
      run =
    { kernel; floats; ints; faultable; direct; run }
  in
  let getrf name pivoting =
    case name [ b.Batch.values ] ~faultable:true
      ~direct:(pivoting <> Batched_lu.Explicit) (fun faults ->
        let r =
          Batched_lu.factor ~prec ~pivoting ?faults ~abft:(faults <> None) b
        in
        [ r.Batched_lu.factors.Batch.values ])
  in
  let trsv name variant =
    case name
      [ factors.Batch.values; rhs.Batch.vvalues ]
      ~ints:(Array.to_list pivots) ~faultable:true (fun faults ->
        let r =
          Batched_trsv.solve ~prec ~variant ?faults ~abft:(faults <> None)
            ~factors ~pivots rhs
        in
        [ r.Batched_trsv.solutions.Batch.vvalues ])
  in
  [
    case "extract" [ a.Vblu_sparse.Csr.values ]
      ~ints:[ a.Vblu_sparse.Csr.row_ptr; a.Vblu_sparse.Csr.col_idx ]
      (fun _ ->
        let r = Extraction.extract ~prec a ~block_starts ~block_sizes in
        [ r.Extraction.blocks.Batch.values ]);
    getrf "getrf implicit" Batched_lu.Implicit;
    getrf "getrf explicit" Batched_lu.Explicit;
    getrf "getrf nopivot" Batched_lu.No_pivoting;
    trsv "trsv eager" Batched_trsv.Eager;
    trsv "trsv lazy" Batched_trsv.Lazy;
    case "trsm"
      [ factors.Batch.values; rhs.Batch.vvalues; rhs2.Batch.vvalues ]
      ~ints:(Array.to_list pivots)
      (fun _ ->
        let r = Batched_trsm.solve ~prec ~factors ~pivots [| rhs; rhs2 |] in
        Array.to_list
          (Array.map (fun (v : Batch.vec) -> v.Batch.vvalues)
             r.Batched_trsm.solutions));
    case "gemm" [ b.Batch.values; spd.Batch.values; c.Batch.values ]
      (fun _ ->
        let r =
          Batched_gemm.multiply ~prec ~alpha:1.25 ~beta:0.5 ~a:b ~b:spd ~c ()
        in
        [ r.Batched_gemm.products.Batch.values ]);
    case "potrf" [ spd.Batch.values ] (fun _ ->
        [ (Batched_cholesky.factor ~prec spd).Batched_cholesky.factors
            .Batch.values ]);
    case "potrs" [ chf.Batch.values; rhs.Batch.vvalues ] (fun _ ->
        let r = Batched_cholesky.solve ~prec ~factors:chf rhs in
        [ r.Batched_trsv.solutions.Batch.vvalues ]);
  ]

let check_launch_case name mode lc =
  let fsnap = List.map Array.copy lc.floats
  and isnap = List.map Array.copy lc.ints in
  Launch.Cache.clear ();
  let outs =
    match mode with
    | Cache_off -> with_cache_off (fun () -> lc.run None)
    | Cold -> lc.run None
    | Warm ->
      ignore (lc.run None);
      let outs = lc.run None in
      Alcotest.(check bool) (name ^ ": served directly") lc.direct
        (Launch.Cache.direct_hits () > 0);
      outs
    | Faulted ->
      let module F = Vblu_fault.Fault in
      lc.run (Some (F.Plan.make ~seed:5 ~every:2 ~target:F.Global ()))
  in
  Launch.Cache.clear ();
  List.iter2
    (fun snap x ->
      Alcotest.(check bool) (name ^ ": input unchanged") true
        (same_bits snap x))
    fsnap lc.floats;
  List.iter2
    (fun snap x ->
      Alcotest.(check (array int)) (name ^ ": int input unchanged") snap x)
    isnap lc.ints;
  List.iter
    (fun o ->
      Alcotest.(check bool) (name ^ ": output is not an input") false
        (List.exists (fun i -> o == i) lc.floats))
    outs

let test_launch_inputs_untouched () =
  List.iter
    (fun prec ->
      List.iter
        (fun layout ->
          List.iter
            (fun lc ->
              List.iter
                (fun (mname, mode) ->
                  if mode <> Faulted || lc.faultable then
                    check_launch_case
                      (String.concat " "
                         [ lc.kernel; Precision.to_string prec;
                           Batch.layout_name layout; mname ])
                      mode lc)
                [ ("cache off", Cache_off); ("cold", Cold); ("warm", Warm);
                  ("gmem faults", Faulted) ])
            (launch_cases prec layout))
        [ Batch.Blocked; Batch.Interleaved ])
    [ Precision.Double; Precision.Single ]

let test_config_fingerprints () =
  Alcotest.(check bool) "p100 fingerprint stamped" true
    (Config.p100.Config.fingerprint <> 0);
  let again = Config.validate Config.p100 in
  Alcotest.(check int) "revalidation is idempotent"
    Config.p100.Config.fingerprint again.Config.fingerprint;
  let variant =
    Config.validate
      { Config.p100 with Config.name = "Tesla P100 (variant)"; num_sms = 60 }
  in
  Alcotest.(check bool) "distinct presets get distinct fingerprints" true
    (variant.Config.fingerprint <> Config.p100.Config.fingerprint
    && variant.Config.fingerprint <> 0)

(* ------------------------------------------------------------------ *)
(* Sampled mode with an armed fault plan degrades to Exact             *)

let test_sampled_faults_runs_every_problem () =
  (* Problem 2 is not a size-class representative (index 0 is), so under
     the old semantics its explicit site never fired.  The launch must
     degrade to per-problem execution and inject it. *)
  let st = state 31 in
  let b = Batch.random_diagdom ~state:st [| 8; 8; 8; 8 |] in
  let plan =
    match
      Vblu_fault.Fault.Plan.of_spec "every=0,at=2.3.1,target=reg,kind=flip:12"
    with
    | Ok p -> p
    | Error m -> Alcotest.failf "bad spec: %s" m
  in
  let r = Batched_lu.factor ~mode:Sampling.Sampled ~faults:plan b in
  Alcotest.(check int) "the non-representative site fired" 1
    r.Batched_lu.stats.Launch.faults_injected;
  (* And the armed launch really ran every problem: counters match an
     Exact fault-free run (faults never charge), not a sampled one. *)
  let exact = Batched_lu.factor b in
  Alcotest.(check bool) "counters are the Exact-mode counters" true
    (counters_equal r.Batched_lu.stats.Launch.total
       exact.Batched_lu.stats.Launch.total);
  Launch.Cache.clear ()

(* ------------------------------------------------------------------ *)
(* Batch.random_* seeding contract                                     *)

let test_random_order_independence () =
  let sizes = [| 4; 9; 17; 32 |] in
  let v1 = Batch.vec_random sizes in
  (* Interleave other unseeded draws: they must not perturb the next
     unseeded vec_random. *)
  ignore (Batch.random_diagdom sizes);
  ignore (Batch.random_general sizes);
  ignore (Batch.random_sizes ~count:5 ~min_size:1 ~max_size:8 ());
  let v2 = Batch.vec_random sizes in
  Alcotest.(check (array (float 0.0))) "unseeded vec_random is pure"
    v1.Batch.vvalues v2.Batch.vvalues;
  let b1 = Batch.random_diagdom sizes and b2 = Batch.random_diagdom sizes in
  Alcotest.(check (array (float 0.0))) "unseeded random_diagdom is pure"
    b1.Batch.values b2.Batch.values;
  (* Distinct functions draw from distinct derived streams. *)
  let g = Batch.random_general sizes in
  Alcotest.(check bool) "diagdom and general differ" true
    (b1.Batch.values <> g.Batch.values)

let () =
  Alcotest.run "engine"
    [
      ( "into-ops",
        [ qtest qcheck_into_reference; qtest qcheck_into_aliasing ] );
      ("segments", [ qtest qcheck_segments ]);
      ( "cache",
        [
          qtest qcheck_cache_value_independence;
          Alcotest.test_case "hit determinism" `Quick test_cache_hit_determinism;
          Alcotest.test_case "bypass under injection" `Quick
            test_cache_bypass_under_injection;
          Alcotest.test_case "disabled = enabled" `Quick
            test_cache_disabled_equals_enabled;
          Alcotest.test_case "breakdown stream heals" `Quick
            test_cache_breakdown_heals;
        ] );
      ( "direct",
        [
          qtest qcheck_direct_lu_parity;
          Alcotest.test_case "all kernels bitwise parity" `Quick
            test_direct_all_kernels;
          Alcotest.test_case "breakdown demotes and heals" `Quick
            test_direct_breakdown_heals;
          Alcotest.test_case "disabled cache disables direct" `Quick
            test_direct_respects_disabled_cache;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "intern is exact" `Quick test_intern_exact;
          qtest qcheck_extraction_direct_parity;
          Alcotest.test_case "distinct patterns never alias" `Quick
            test_extraction_no_alias;
        ] );
      ( "launch inputs",
        [
          Alcotest.test_case "read in place, never written" `Quick
            test_launch_inputs_untouched;
        ] );
      ( "config",
        [
          Alcotest.test_case "fingerprints" `Quick test_config_fingerprints;
        ] );
      ( "sampled-faults",
        [
          Alcotest.test_case "armed plan runs every problem" `Quick
            test_sampled_faults_runs_every_problem;
        ] );
      ( "seeding",
        [
          Alcotest.test_case "order independence" `Quick
            test_random_order_independence;
        ] );
    ]
