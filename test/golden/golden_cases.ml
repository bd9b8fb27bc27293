(* Shared case definitions for the golden counter-parity suite.

   Each case deterministically constructs its own inputs (explicit
   [Random.State] seeds — never the [Batch.random_*] defaults, so the
   goldens survive reseeding of that API) and runs one batched kernel,
   returning the launch stats plus a flat [int64] stream of every
   observable output (values, pivots, info, verdicts).  [golden_gen]
   runs the cases on one engine and records digests; [test_golden_parity]
   re-runs them on the current engine — optionally under a pool and an
   observability context — and checks counters, modelled time and output
   digests bit-for-bit. *)

open Vblu_smallblas
open Vblu_simt
open Vblu_core

type outcome = { stats : Launch.stats; payload : int64 list }

type case = {
  name : string;
  run : ?pool:Vblu_par.Pool.t -> ?obs:Vblu_obs.Ctx.t -> unit -> outcome;
}

let bits = Int64.bits_of_float

let of_floats a = Array.to_list (Array.map bits a)

let of_ints a = Array.to_list (Array.map Int64.of_int a)

let of_matrix m =
  let r, c = Matrix.dims m in
  let out = ref [] in
  for i = r - 1 downto 0 do
    for j = c - 1 downto 0 do
      out := bits (Matrix.get m i j) :: !out
    done
  done;
  Int64.of_int r :: !out

let of_verdicts vs =
  Array.to_list
    (Array.map
       (fun v ->
         match (v : Vblu_fault.Fault.verdict) with
         | Vblu_fault.Fault.Unchecked -> 0L
         | Vblu_fault.Fault.Passed -> 1L
         | Vblu_fault.Fault.Failed -> 2L)
       vs)

let batch_payload (b : Batch.t) = of_floats b.Batch.values

let vec_payload (v : Batch.vec) = of_floats v.Batch.vvalues

let pivots_payload p = List.concat_map of_ints (Array.to_list p)

let gh_payload fs =
  List.concat_map
    (fun (f : Gauss_huard.factors) -> of_matrix f.Gauss_huard.gh)
    (Array.to_list fs)

(* Deterministic inputs, salted per case family so no two cases share a
   stream. *)
let state ~salt ~size = Random.State.make [| 0x90; 0x1d; salt; size |]

let general_batch ?layout ~salt sizes =
  let st = state ~salt ~size:(Array.fold_left ( + ) 0 sizes) in
  Batch.of_matrices ?layout
    (Array.map (fun s -> Matrix.random_general ~state:st s) sizes)

let spd_batch ~salt sizes =
  let st = state ~salt ~size:(Array.fold_left ( + ) 0 sizes) in
  Batch.of_matrices
    (Array.map
       (fun s ->
         let m = Matrix.random_general ~state:st s in
         let p = Matrix.matmul m (Matrix.transpose m) in
         Matrix.init s s (fun i j ->
             Matrix.get p i j +. if i = j then float_of_int s +. 1.0 else 0.0))
       sizes)

let rhs_batch ~salt sizes =
  let st = state ~salt ~size:(Array.fold_left ( + ) 0 sizes) in
  let v = Batch.vec_create sizes in
  for k = 0 to Array.length v.Batch.vvalues - 1 do
    v.Batch.vvalues.(k) <- -1.0 +. (2.0 *. Random.State.float st 1.0)
  done;
  v

(* A block-diagonal CSR (4 dense-ish blocks of order [s]) with off-diagonal
   couplings, for the extraction kernels.  The couplings are ignored by
   extraction but walked by the row streams, so they shape the charges. *)
let extraction_matrix ~s =
  let n = 4 * s in
  let st = state ~salt:77 ~size:s in
  let coo = Vblu_sparse.Coo.create ~n_rows:n ~n_cols:n in
  for b = 0 to 3 do
    let base = b * s in
    for i = 0 to s - 1 do
      for j = 0 to s - 1 do
        if i = j || Random.State.float st 1.0 < 0.6 then
          Vblu_sparse.Coo.add coo (base + i) (base + j)
            (1.0 +. Random.State.float st 1.0)
      done
    done
  done;
  for i = 0 to n - 2 do
    if Random.State.float st 1.0 < 0.3 then
      Vblu_sparse.Coo.add coo i (n - 1 - i) 0.25
  done;
  Vblu_sparse.Coo.to_csr coo

let sizes_for size = Array.make 5 size

(* Copies column 0 over column [size/2] of every even-indexed block, forcing
   a mid-factorization breakdown — covering the frozen-state/info paths. *)
let poison_singular (b : Batch.t) =
  Array.iteri
    (fun i s ->
      if s > 1 && i land 1 = 0 then begin
        let off = b.Batch.offsets.(i) in
        let dup = s / 2 in
        for r = 0 to s - 1 do
          b.Batch.values.(off + r + (dup * s)) <- b.Batch.values.(off + r)
        done
      end)
    b.Batch.sizes

let lu_payload (r : Batched_lu.result) =
  batch_payload r.Batched_lu.factors
  @ pivots_payload r.Batched_lu.pivots
  @ of_ints r.Batched_lu.info
  @ of_verdicts r.Batched_lu.verdicts

let trsv_payload (r : Batched_trsv.result) =
  vec_payload r.Batched_trsv.solutions
  @ of_ints r.Batched_trsv.info
  @ of_verdicts r.Batched_trsv.verdicts

let lu_mixed_case ?layout ?pool ?obs () =
  let b = general_batch ?layout ~salt:2 [| 1; 7; 16; 32; 3 |] in
  let r = Batched_lu.factor ?pool ?obs b in
  { stats = r.Batched_lu.stats; payload = lu_payload r }

(* The interleaved twin covers the SoA address generation end to end: the
   raw [values]/[vvalues] streams digested here are cohort-interleaved, so
   any drift in the layout's offset/stride bookkeeping — not just in the
   numerics — breaks the digest. *)
let trsv_mixed_case ?layout () =
  let sz = [| 1; 7; 16; 32; 3 |] in
  let f = lazy (Batched_lu.factor (general_batch ?layout ~salt:3 sz)) in
  fun ?pool ?obs () ->
    let rhs = Batch.vec_random ~state:(state ~salt:4 ~size:59) ?layout sz in
    let f = Lazy.force f in
    let r =
      Batched_trsv.solve ?pool ?obs ~factors:f.Batched_lu.factors
        ~pivots:f.Batched_lu.pivots rhs
    in
    { stats = r.Batched_trsv.stats; payload = trsv_payload r }

(* A case's setup launch (the factorization a solve consumes) runs once,
   on the case's first run, and later runs of the same case value reuse
   it: the payload and stats cover the measured launch only, so a second
   run executes that launch alone, and the direct-active parity check can
   attribute its direct hits to it. *)
let setup make run =
  let input = lazy (make ()) in
  fun ?pool ?obs () -> run (Lazy.force input) ?pool ?obs ()

let cases () =
  let sizes = [ 1; 7; 16; 32 ] in
  let precs = [ (Precision.Single, "fp32"); (Precision.Double, "fp64") ] in
  List.concat_map
    (fun (prec, pname) ->
      List.concat_map
        (fun size ->
          let mk name run =
            {
              name = Printf.sprintf "%s/%s/n%d" name pname size;
              run = (fun ?pool ?obs () -> run ?pool ?obs ());
            }
          in
          [
            mk "lu.implicit" (fun ?pool ?obs () ->
                let b = general_batch ~salt:1 (sizes_for size) in
                let r = Batched_lu.factor ~prec ?pool ?obs b in
                { stats = r.Batched_lu.stats; payload = lu_payload r });
            mk "lu.explicit" (fun ?pool ?obs () ->
                let b = general_batch ~salt:1 (sizes_for size) in
                let r =
                  Batched_lu.factor ~prec ~pivoting:Batched_lu.Explicit ?pool
                    ?obs b
                in
                { stats = r.Batched_lu.stats; payload = lu_payload r });
            mk "lu.nopivot" (fun ?pool ?obs () ->
                let b = spd_batch ~salt:24 (sizes_for size) in
                let r =
                  Batched_lu.factor ~prec ~pivoting:Batched_lu.No_pivoting
                    ?pool ?obs b
                in
                { stats = r.Batched_lu.stats; payload = lu_payload r });
            mk "lu.implicit+abft" (fun ?pool ?obs () ->
                let b = general_batch ~salt:1 (sizes_for size) in
                let r = Batched_lu.factor ~prec ~abft:true ?pool ?obs b in
                { stats = r.Batched_lu.stats; payload = lu_payload r });
            mk "lu.breakdown" (fun ?pool ?obs () ->
                let b = general_batch ~salt:23 (sizes_for size) in
                poison_singular b;
                let r = Batched_lu.factor ~prec ?pool ?obs b in
                { stats = r.Batched_lu.stats; payload = lu_payload r });
            mk "trsv.eager" (setup (fun () ->
                Batched_lu.factor ~prec (general_batch ~salt:3 (sizes_for size)))
              @@ fun f ?pool ?obs () ->
                let rhs = rhs_batch ~salt:4 (sizes_for size) in
                let r =
                  Batched_trsv.solve ~prec ?pool ?obs
                    ~factors:f.Batched_lu.factors ~pivots:f.Batched_lu.pivots
                    rhs
                in
                { stats = r.Batched_trsv.stats; payload = trsv_payload r });
            mk "trsv.eager+abft" (setup (fun () ->
                Batched_lu.factor ~prec (general_batch ~salt:3 (sizes_for size)))
              @@ fun f ?pool ?obs () ->
                let rhs = rhs_batch ~salt:4 (sizes_for size) in
                let r =
                  Batched_trsv.solve ~prec ~abft:true ?pool ?obs
                    ~factors:f.Batched_lu.factors ~pivots:f.Batched_lu.pivots
                    rhs
                in
                { stats = r.Batched_trsv.stats; payload = trsv_payload r });
            mk "trsv.lazy" (setup (fun () ->
                Batched_lu.factor ~prec (general_batch ~salt:3 (sizes_for size)))
              @@ fun f ?pool ?obs () ->
                let rhs = rhs_batch ~salt:4 (sizes_for size) in
                let r =
                  Batched_trsv.solve ~prec ~variant:Batched_trsv.Lazy ?pool
                    ?obs ~factors:f.Batched_lu.factors
                    ~pivots:f.Batched_lu.pivots rhs
                in
                { stats = r.Batched_trsv.stats; payload = trsv_payload r });
            mk "trsm" (setup (fun () ->
                Batched_lu.factor ~prec (general_batch ~salt:5 (sizes_for size)))
              @@ fun f ?pool ?obs () ->
                let sz = sizes_for size in
                let rhs0 = rhs_batch ~salt:6 sz
                and rhs1 = rhs_batch ~salt:7 sz in
                let r =
                  Batched_trsm.solve ~prec ?pool ?obs
                    ~factors:f.Batched_lu.factors ~pivots:f.Batched_lu.pivots
                    [| rhs0; rhs1 |]
                in
                {
                  stats = r.Batched_trsm.stats;
                  payload =
                    List.concat_map vec_payload
                      (Array.to_list r.Batched_trsm.solutions)
                    @ of_ints r.Batched_trsm.info;
                });
            mk "gemm" (fun ?pool ?obs () ->
                let sz = sizes_for size in
                let a = general_batch ~salt:8 sz in
                let b = general_batch ~salt:9 sz in
                let c = general_batch ~salt:10 sz in
                let r =
                  Batched_gemm.multiply ~prec ?pool ?obs ~alpha:1.5 ~beta:0.5
                    ~a ~b ~c ()
                in
                {
                  stats = r.Batched_gemm.stats;
                  payload = batch_payload r.Batched_gemm.products;
                });
            mk "gh.factor" (fun ?pool ?obs () ->
                let b = general_batch ~salt:11 (sizes_for size) in
                let r = Batched_gh.factor ~prec ?pool ?obs b in
                {
                  stats = r.Batched_gh.stats;
                  payload =
                    gh_payload r.Batched_gh.factors
                    @ of_ints r.Batched_gh.info
                    @ of_verdicts r.Batched_gh.verdicts;
                });
            mk "ght.factor" (fun ?pool ?obs () ->
                let b = general_batch ~salt:11 (sizes_for size) in
                let r =
                  Batched_gh.factor ~prec ~storage:Gauss_huard.Transposed
                    ?pool ?obs b
                in
                {
                  stats = r.Batched_gh.stats;
                  payload =
                    gh_payload r.Batched_gh.factors
                    @ of_ints r.Batched_gh.info;
                });
            mk "gh.factor+abft" (fun ?pool ?obs () ->
                let b = general_batch ~salt:11 (sizes_for size) in
                let r = Batched_gh.factor ~prec ~abft:true ?pool ?obs b in
                {
                  stats = r.Batched_gh.stats;
                  payload =
                    of_ints r.Batched_gh.info
                    @ of_verdicts r.Batched_gh.verdicts;
                });
            mk "gh.solve" (setup (fun () ->
                Batched_gh.factor ~prec (general_batch ~salt:12 (sizes_for size)))
              @@ fun f ?pool ?obs () ->
                let rhs = rhs_batch ~salt:13 (sizes_for size) in
                let r = Batched_gh.solve ~prec ?pool ?obs f rhs in
                {
                  stats = r.Batched_gh.solve_stats;
                  payload =
                    vec_payload r.Batched_gh.solutions
                    @ of_ints r.Batched_gh.solve_info;
                });
            mk "gje.invert" (fun ?pool ?obs () ->
                let b = general_batch ~salt:14 (sizes_for size) in
                let r = Batched_gje.invert ~prec ?pool ?obs b in
                {
                  stats = r.Batched_gje.stats;
                  payload =
                    List.concat_map of_matrix
                      (Array.to_list r.Batched_gje.inverses)
                    @ of_ints r.Batched_gje.info;
                });
            mk "gje.apply" (setup (fun () ->
                Batched_gje.invert ~prec (general_batch ~salt:15 (sizes_for size)))
              @@ fun inv ?pool ?obs () ->
                let rhs = rhs_batch ~salt:16 (sizes_for size) in
                let r = Batched_gje.apply ~prec ?pool ?obs inv rhs in
                {
                  stats = r.Batched_gje.apply_stats;
                  payload = vec_payload r.Batched_gje.products;
                });
            mk "potrf" (fun ?pool ?obs () ->
                let b = spd_batch ~salt:17 (sizes_for size) in
                let r = Batched_cholesky.factor ~prec ?pool ?obs b in
                {
                  stats = r.Batched_cholesky.stats;
                  payload =
                    batch_payload r.Batched_cholesky.factors
                    @ of_ints r.Batched_cholesky.info;
                });
            mk "potrs" (setup (fun () ->
                Batched_cholesky.factor ~prec (spd_batch ~salt:18 (sizes_for size)))
              @@ fun f ?pool ?obs () ->
                let rhs = rhs_batch ~salt:19 (sizes_for size) in
                let r =
                  Batched_cholesky.solve ~prec ?pool ?obs
                    ~factors:f.Batched_cholesky.factors rhs
                in
                { stats = r.Batched_trsv.stats; payload = trsv_payload r });
            mk "cublas.getrf" (fun ?pool ?obs () ->
                let b = general_batch ~salt:20 (sizes_for size) in
                let r = Cublas_model.factor ~prec ?pool ?obs b in
                {
                  stats = r.Cublas_model.stats;
                  payload =
                    batch_payload r.Cublas_model.factors
                    @ pivots_payload r.Cublas_model.pivots
                    @ of_ints r.Cublas_model.info;
                });
            mk "cublas.getrs" (setup (fun () ->
                Cublas_model.factor ~prec (general_batch ~salt:21 (sizes_for size)))
              @@ fun f ?pool ?obs () ->
                let rhs = rhs_batch ~salt:22 (sizes_for size) in
                let r = Cublas_model.solve ~prec ?pool ?obs f rhs in
                {
                  stats = r.Cublas_model.solve_stats;
                  payload =
                    vec_payload r.Cublas_model.solutions
                    @ of_ints r.Cublas_model.solve_info;
                });
            mk "extract.shared" (fun ?pool ?obs () ->
                let a = extraction_matrix ~s:size in
                let r =
                  Extraction.extract ~prec ?pool ?obs a
                    ~block_starts:(Array.init 4 (fun i -> i * size))
                    ~block_sizes:(Array.make 4 size)
                in
                {
                  stats = r.Extraction.stats;
                  payload = batch_payload r.Extraction.blocks;
                });
            mk "extract.naive" (fun ?pool ?obs () ->
                let a = extraction_matrix ~s:size in
                let r =
                  Extraction.extract ~prec ~strategy:Extraction.Row_per_thread
                    ?pool ?obs a
                    ~block_starts:(Array.init 4 (fun i -> i * size))
                    ~block_sizes:(Array.make 4 size)
                in
                {
                  stats = r.Extraction.stats;
                  payload = batch_payload r.Extraction.blocks;
                });
          ])
        sizes)
    precs
  @ [
      {
        name = "lu.implicit/mixed-sizes";
        run = (fun ?pool ?obs () -> lu_mixed_case ?pool ?obs ());
      };
      {
        name = "lu.implicit/mixed-sizes/interleaved";
        run =
          (fun ?pool ?obs () ->
            lu_mixed_case ~layout:Batch.Interleaved ?pool ?obs ());
      };
      {
        name = "trsv.eager/mixed-sizes/interleaved";
        run = trsv_mixed_case ~layout:Batch.Interleaved ();
      };
    ]

(* FNV-1a over the payload stream, byte by byte. *)
let digest payload =
  let h = ref 0xcbf29ce484222325L in
  List.iter
    (fun x ->
      for shift = 0 to 7 do
        let b = Int64.logand (Int64.shift_right_logical x (shift * 8)) 0xffL in
        h := Int64.mul (Int64.logxor !h b) 0x100000001b3L
      done)
    payload;
  !h

(* Every observable of a launch, as bits: the counter fields that feed the
   timing model plus the modelled stats themselves. *)
let stats_bits (s : Launch.stats) =
  let c = s.Launch.total in
  [|
    bits c.Counter.fma_instrs;
    bits c.Counter.div_instrs;
    bits c.Counter.shfl_instrs;
    bits c.Counter.smem_accesses;
    bits c.Counter.gmem_instrs;
    bits c.Counter.gmem_transactions;
    bits c.Counter.gmem_bytes;
    bits c.Counter.gmem_elems;
    Int64.of_int c.Counter.gmem_rounds;
    bits c.Counter.useful_flops;
    bits s.Launch.time_us;
    bits s.Launch.gflops;
    bits s.Launch.bandwidth_gbs;
    Int64.of_int s.Launch.warps;
    Int64.of_int s.Launch.faults_injected;
  |]
