(* batched-kernels: one pass of the paper's kernels over the diagonal
   blocks of a sparse matrix with unbalanced rows — shared-memory
   extraction, then variable-size batched LU, then batched TRSV — on the
   simulated P100.  Passes alternate the blocked and interleaved layouts;
   the set-up is the cold-cache pass in each layout. *)

open Vblu_smallblas
open Vblu_sparse
open Vblu_simt
open Vblu_core
open Vblu_workloads

let name = "batched-kernels"

type input = {
  a : Csr.t;
  starts : int array;
  sizes : int array;
  rhs : Vector.t array;
  ref_factors : Lu.factors array;  (* Lu.factor_implicit per block *)
  ref_solutions : Vector.t array;  (* Lu.solve per block *)
}

let generate seed =
  let st = Random.State.make [| 0xb10c; seed |] in
  (* A fixed size and hub structure, so peak_heap_mb and the work per
     pass hardly depend on the seed. *)
  let n = 12_500 in
  let a = Generators.circuit_like ~state:st ~n ~hubs:10 ~hub_degree:900 () in
  (* Tile the rows with seed-drawn block sizes 1..32. *)
  let rec tile row acc =
    if row >= n then List.rev acc
    else
      let s = min (n - row) (1 + Random.State.int st 32) in
      tile (row + s) ((row, s) :: acc)
  in
  let blocks = Array.of_list (tile 0 []) in
  let starts = Array.map fst blocks and sizes = Array.map snd blocks in
  let rhs = Array.map (fun s -> Array.init s (fun _ -> Random.State.float st 2.0 -. 1.0)) sizes in
  let ref_factors =
    Array.mapi
      (fun i s -> Lu.factor_implicit (Csr.extract_block a ~row_start:starts.(i) ~size:s))
      sizes
  in
  let ref_solutions = Array.mapi (fun i f -> Lu.solve f rhs.(i)) ref_factors in
  { a; starts; sizes; rhs; ref_factors; ref_solutions }

let input_digest inp =
  let h = Hash64.create () in
  Hash64.ints h inp.a.Csr.row_ptr;
  Hash64.ints h inp.a.Csr.col_idx;
  Hash64.floats h inp.a.Csr.values;
  Hash64.ints h inp.sizes;
  Array.iter (Hash64.floats h) inp.rhs;
  Hash64.hex h

(* Per-layout, per-kernel accumulators of the modelled launch figures. *)
type acc = {
  mutable passes : int;
  modelled_us : float array;  (* extract, getrf, trsv *)
  gmem_tx : float array;
  mutable flops : float;  (* useful flops of getrf + trsv *)
  mutable lu_trsv_us : float;
}

let new_acc () =
  { passes = 0; modelled_us = Array.make 3 0.0; gmem_tx = Array.make 3 0.0;
    flops = 0.0; lu_trsv_us = 0.0 }

let make ~pool ~seed =
  let inp = generate seed in
  let count = Array.length inp.sizes in
  let fresh () =
    let out = Hash64.create () in
    let accs = [| new_acc (); new_acc () |] in
    let breakdowns = ref 0 in
    (* One pass in [layout]; returns its wall seconds and the number of
       problems whose factors or solution differ from the reference
       (checked only when [check]). *)
    let pass layout ~check =
      let lname = Batch.layout_name layout in
      let kspan k f = Spans.with_span (Printf.sprintf "core.%s.%s" lname k) f in
      let (ex, lu, tr), wall =
        Wall.time @@ fun () ->
        Spans.with_span "op" (fun () ->
            let ex =
              kspan "extract" (fun () ->
                  let r =
                    Extraction.extract ~pool ~strategy:Extraction.Shared_memory inp.a
                      ~block_starts:inp.starts ~block_sizes:inp.sizes
                  in
                  (r, Batch.with_layout layout r.Extraction.blocks))
            in
            let lu = kspan "getrf" (fun () -> Batched_lu.factor ~pool (snd ex)) in
            let tr =
              kspan "trsv" (fun () ->
                  Batched_trsv.solve ~pool ~factors:lu.Batched_lu.factors
                    ~pivots:lu.Batched_lu.pivots
                    (Batch.vec_of_vectors ~layout inp.rhs))
            in
            (fst ex, lu, tr))
      in
      let acc = accs.(if layout = Batch.Blocked then 0 else 1) in
      acc.passes <- acc.passes + 1;
      List.iteri
        (fun k (s : Launch.stats) ->
          acc.modelled_us.(k) <- acc.modelled_us.(k) +. s.Launch.time_us;
          acc.gmem_tx.(k) <- acc.gmem_tx.(k) +. float_of_int (Counter.transactions s.Launch.total))
        [ ex.Extraction.stats; lu.Batched_lu.stats; tr.Batched_trsv.stats ];
      acc.flops <-
        acc.flops +. lu.Batched_lu.stats.Launch.total.Counter.useful_flops
        +. tr.Batched_trsv.stats.Launch.total.Counter.useful_flops;
      acc.lu_trsv_us <-
        acc.lu_trsv_us +. lu.Batched_lu.stats.Launch.time_us
        +. tr.Batched_trsv.stats.Launch.time_us;
      let bad_info = Array.fold_left (fun n i -> if i <> 0 then n + 1 else n) 0 in
      breakdowns := !breakdowns + bad_info lu.Batched_lu.info + bad_info tr.Batched_trsv.info;
      let factors = lu.Batched_lu.factors and solutions = tr.Batched_trsv.solutions in
      for i = 0 to count - 1 do
        Hash64.floats out (Batch.get_matrix factors i).Matrix.a;
        Hash64.ints out lu.Batched_lu.pivots.(i);
        Hash64.floats out (Batch.vec_get solutions i)
      done;
      let mismatches =
        if not check then 0
        else begin
          let bad = ref 0 in
          for i = 0 to count - 1 do
            let r = inp.ref_factors.(i) in
            if
              not
                (Check.same_bits (Batch.get_matrix factors i).Matrix.a r.Lu.lu.Matrix.a
                && lu.Batched_lu.pivots.(i) = r.Lu.perm
                && Check.same_bits (Batch.vec_get solutions i) inp.ref_solutions.(i))
            then incr bad
          done;
          !bad
        end
      in
      (wall, mismatches)
    in
    (* Set-up: the cold pass in each layout, both checked. *)
    let (w1, bad1) = pass Batch.Blocked ~check:true in
    let (w2, bad2) = pass Batch.Interleaved ~check:true in
    let setup_failed = bad1 + bad2 in
    let op i =
      Spans.set_op i;
      let layout = if i mod 2 = 0 then Batch.Blocked else Batch.Interleaved in
      (* Every problem is checked on every eighth pass of each layout. *)
      let wall, bad = pass layout ~check:(i mod 16 < 2) in
      { Workload.op_s = wall; busy_s = wall; problems = count; setup_s = None;
        attempted = count; failed = bad }
    in
    let modelled_gflops () =
      let flops = accs.(0).flops +. accs.(1).flops in
      let us = accs.(0).lu_trsv_us +. accs.(1).lu_trsv_us in
      Stats.ratio flops (us *. 1e3)
    in
    let per_pass acc k a = Stats.ratio a.(k) (float_of_int acc.passes) in
    let layer_metrics self =
      List.concat_map
        (fun (l, acc) ->
          List.concat
            (List.mapi
               (fun k kernel ->
                 let key = Printf.sprintf "core.%s.%s" l kernel in
                 [
                   (key ^ "_ms", Stats.median (self key) /. 1e6);
                   (key ^ ".modelled_us", per_pass acc k acc.modelled_us);
                   (key ^ ".gmem_tx", per_pass acc k acc.gmem_tx);
                 ])
               Catalogue.kernels))
        [ ("blocked", accs.(0)); ("interleaved", accs.(1)) ]
      @ [
          ("core.breakdowns", float_of_int !breakdowns);
          ("core.modelled_gflops", modelled_gflops ());
        ]
    in
    ( {
        Workload.op;
        finish = (fun () -> (2 * count, setup_failed));
        digest = (fun () -> Hash64.hex out);
        layer_metrics;
        report = (fun () -> [ ("modelled_gflops", modelled_gflops ()) ]);
      },
      w1 +. w2 )
  in
  {
    Workload.name;
    input_digest = input_digest inp;
    cold_setup = true;
    cycle = 2;
    setup_repeats = 7;
    fresh;
  }
