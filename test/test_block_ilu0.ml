(* Tests for level scheduling and the block-ILU(0) preconditioner family. *)

open Vblu_smallblas
open Vblu_sparse
open Vblu_precond

let check_bitwise name (a : float array) (b : float array) =
  Alcotest.(check int) (name ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
        Alcotest.failf "%s: element %d differs bitwise: %h vs %h" name i x
          b.(i))
    a

let rhs_for n =
  let st = Random.State.make [| 0x1107; n |] in
  Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0)

(* ------------------------------------------------------------------ *)
(* Level scheduling                                                    *)

let test_levels_chain () =
  (* A bidiagonal chain is fully sequential: n levels of width 1. *)
  let n = 7 in
  let row_ptr = Array.init (n + 1) (fun i -> if i = 0 then 0 else (2 * i) - 1) in
  let nnz = row_ptr.(n) in
  let col_idx = Array.make nnz 0 and values = Array.make nnz 1.0 in
  let q = ref 0 in
  for i = 0 to n - 1 do
    if i > 0 then begin
      col_idx.(!q) <- i - 1;
      incr q
    end;
    col_idx.(!q) <- i;
    incr q
  done;
  let a = Csr.create ~n_rows:n ~n_cols:n ~row_ptr ~col_idx ~values in
  let s = Levels.scalar Levels.Lower a in
  let st = Levels.stats s in
  Alcotest.(check int) "levels" n st.Levels.levels;
  Alcotest.(check int) "max width" 1 st.Levels.max_width;
  Alcotest.(check int) "critical path" n st.Levels.critical_path_rows;
  (* The upper DAG of the same matrix has no edges: one level. *)
  let u = Levels.stats (Levels.scalar Levels.Upper a) in
  Alcotest.(check int) "upper levels" 1 u.Levels.levels;
  Alcotest.(check int) "upper width" n u.Levels.max_width

let test_levels_block_tridiagonal () =
  let blocks = 6 and bs = 4 in
  let a =
    Vblu_workloads.Generators.block_tridiagonal
      ~state:(Random.State.make [| 101 |])
      ~blocks ~block_size:bs ()
  in
  let blk = Supervariable.uniform ~n:(blocks * bs) ~block_size:bs in
  let s =
    Levels.schedule Levels.Lower ~starts:blk.Supervariable.starts
      ~sizes:blk.Supervariable.sizes a
  in
  (* Block i depends exactly on block i-1: a pure chain. *)
  Array.iteri
    (fun i deps ->
      if i = 0 then Alcotest.(check int) "no deps" 0 (Array.length deps)
      else Alcotest.(check (array int)) "chain dep" [| i - 1 |] deps)
    s.Levels.deps;
  let st = Levels.stats s in
  Alcotest.(check int) "levels = blocks" blocks st.Levels.levels;
  Alcotest.(check int) "critical path rows" (blocks * bs)
    st.Levels.critical_path_rows

(* Structural invariants of the schedule, on the whole 48-matrix suite:
   level sets partition the blocks, every dependency sits at a strictly
   lower level, and a block's level is 1 + its deepest dependency. *)
let check_schedule_invariants name (s : Levels.schedule) =
  let k = Array.length s.Levels.sizes in
  let seen = Array.make k false in
  Array.iter
    (fun set ->
      Array.iter
        (fun i ->
          Alcotest.(check bool) (name ^ ": block listed once") false seen.(i);
          seen.(i) <- true)
        set)
    s.Levels.level_sets;
  Array.iter
    (fun s' -> Alcotest.(check bool) (name ^ ": all listed") true s')
    seen;
  Array.iteri
    (fun i deps ->
      let expect =
        Array.fold_left (fun m d -> max m (s.Levels.level_of.(d) + 1)) 0 deps
      in
      Alcotest.(check int) (name ^ ": level rule") expect s.Levels.level_of.(i);
      Array.iter
        (fun d ->
          Alcotest.(check bool)
            (name ^ ": dep strictly earlier")
            true
            (s.Levels.level_of.(d) < s.Levels.level_of.(i)))
        deps)
    s.Levels.deps;
  let st = Levels.stats s in
  Alcotest.(check int) (name ^ ": stats blocks") k st.Levels.blocks;
  Alcotest.(check int)
    (name ^ ": stats levels")
    (Array.length s.Levels.level_sets)
    st.Levels.levels

let test_levels_suite () =
  List.iter
    (fun e ->
      let a = Vblu_workloads.Suite.matrix e in
      let n, _ = Csr.dims a in
      let blk = Supervariable.blocking ~max_block_size:16 a in
      let lower =
        Levels.schedule Levels.Lower ~starts:blk.Supervariable.starts
          ~sizes:blk.Supervariable.sizes a
      in
      let upper =
        Levels.schedule Levels.Upper ~starts:blk.Supervariable.starts
          ~sizes:blk.Supervariable.sizes a
      in
      check_schedule_invariants (e.Vblu_workloads.Suite.name ^ "/lower") lower;
      check_schedule_invariants (e.Vblu_workloads.Suite.name ^ "/upper") upper;
      let ls = Levels.stats lower in
      Alcotest.(check bool)
        (e.Vblu_workloads.Suite.name ^ ": critical path bounded")
        true
        (ls.Levels.critical_path_rows >= 1 && ls.Levels.critical_path_rows <= n))
    Vblu_workloads.Suite.all

(* ------------------------------------------------------------------ *)
(* Size-1 blocks: bitwise equivalence with the scalar ILU(0)           *)

let scalar_blocking n = Supervariable.uniform ~n ~block_size:1

let check_scalar_equivalence name a =
  let n, _ = Csr.dims a in
  let f, finfo = Ilu0.factorize a in
  Alcotest.(check int) (name ^ ": scalar info clean") 0 finfo;
  let p, info = Block_ilu0.create ~blocking:(scalar_blocking n) a in
  Alcotest.(check int) (name ^ ": block info clean") 0 info.Block_ilu0.factor_info;
  let r = rhs_for n in
  check_bitwise (name ^ ": apply == scalar solve") (Ilu0.solve f r)
    (Preconditioner.apply p r)

let test_scalar_equivalence_fixed () =
  check_scalar_equivalence "conv-diff"
    (Vblu_workloads.Generators.convection_diffusion_2d ~nx:7 ~ny:6
       ~peclet:25.0 ());
  check_scalar_equivalence "laplace"
    (Vblu_workloads.Generators.laplacian_2d ~nx:6 ~ny:5 ());
  check_scalar_equivalence "fem"
    (Vblu_workloads.Generators.fem_blocks
       ~state:(Random.State.make [| 102 |])
       ~nodes:12 ~vars_per_node:3 ())

let qcheck_scalar_equivalence =
  QCheck.Test.make ~count:15 ~name:"size-1 block-ILU0 == scalar ILU0 bitwise"
    QCheck.(triple (int_range 2 8) (int_range 2 8) (int_range 0 60))
    (fun (nx, ny, pe) ->
      let a =
        Vblu_workloads.Generators.convection_diffusion_2d ~nx ~ny
          ~peclet:(float_of_int pe) ()
      in
      let n, _ = Csr.dims a in
      let f, finfo = Ilu0.factorize a in
      if finfo <> 0 then QCheck.assume_fail ()
      else begin
        let p, info = Block_ilu0.create ~blocking:(scalar_blocking n) a in
        let r = rhs_for n in
        let x_s = Ilu0.solve f r and x_b = Preconditioner.apply p r in
        info.Block_ilu0.factor_info = 0
        && Array.for_all2
             (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
             x_s x_b
      end)

(* ------------------------------------------------------------------ *)
(* Cross-domain / cross-layout bit identity                            *)

let check_apply_bit_identical name ~max_block_size a r =
  let reference = ref [||] in
  List.iter
    (fun domains ->
      List.iter
        (fun layout ->
          let pool = Vblu_par.Pool.create ~num_domains:domains () in
          let p, info = Block_ilu0.create ~pool ~layout ~max_block_size a in
          Alcotest.(check int) (name ^ ": clean") 0 info.Block_ilu0.factor_info;
          let x = Preconditioner.apply p r in
          if Array.length !reference = 0 then reference := x
          else
            check_bitwise
              (Printf.sprintf "%s domains=%d layout=%s" name domains
                 (Vblu_core.Batch.layout_name layout))
              !reference x)
        [ Vblu_core.Batch.Blocked; Vblu_core.Batch.Interleaved ])
    [ 1; 2; 4 ]

let test_apply_bit_identical_domains_layouts () =
  let module G = Vblu_workloads.Generators in
  let a =
    G.fem_blocks
      ~state:(Random.State.make [| 103 |])
      ~nodes:20 ~vars_per_node:4 ()
  in
  let n, _ = Csr.dims a in
  check_apply_bit_identical "fem_blocks/8" ~max_block_size:8 a (rhs_for n);
  (* Three structurally different matrices at bound 16 under a
     deterministic right-hand side.  The two random generators draw, in
     this order, from one state. *)
  let st = Random.State.make [| 0x5eed; 0x304ad5 |] in
  let block_tridiag =
    G.block_tridiagonal ~state:st ~blocks:8 ~block_size:6 ()
  in
  let fem_blocks = G.fem_blocks ~state:st ~nodes:24 ~vars_per_node:4 () in
  List.iter
    (fun (name, a) ->
      let n, _ = Csr.dims a in
      check_apply_bit_identical name ~max_block_size:16 a
        (Array.init n (fun i -> 1.0 +. (float_of_int (i mod 7) /. 7.0))))
    [
      ("fem_blocks", fem_blocks);
      ("convection_2d", G.convection_diffusion_2d ~nx:9 ~ny:8 ());
      ("block_tridiag", block_tridiag);
    ]

(* ------------------------------------------------------------------ *)
(* Wave accounting                                                     *)

let test_wave_accounting () =
  let a =
    Vblu_workloads.Generators.fem_blocks
      ~state:(Random.State.make [| 104 |])
      ~nodes:16 ~vars_per_node:4 ()
  in
  let n, _ = Csr.dims a in
  let p, info = Block_ilu0.create ~max_block_size:8 a in
  Alcotest.(check bool) "setup issued batched launches" true
    (info.Block_ilu0.setup_launches > 0);
  Alcotest.(check bool) "setup modelled time" true
    (info.Block_ilu0.setup_modelled_seconds > 0.0);
  Alcotest.(check bool) "no apply yet" true
    (!(info.Block_ilu0.last_apply) = None);
  let _ = Preconditioner.apply p (rhs_for n) in
  match !(info.Block_ilu0.last_apply) with
  | None -> Alcotest.fail "apply recorded no stats"
  | Some stats ->
    Alcotest.(check bool) "waves recorded" true
      (Array.length stats.Block_ilu0.waves > 0);
    Alcotest.(check bool) "modelled apply time" true
      (stats.Block_ilu0.modelled_seconds > 0.0);
    let lower_levels = Array.length info.Block_ilu0.lower.Levels.level_sets in
    let upper_levels = Array.length info.Block_ilu0.upper.Levels.level_sets in
    (* Every backward level carries exactly one TRSV wave. *)
    let trsv_waves =
      Array.length
        (Array.of_list
           (List.filter
              (fun w -> w.Block_ilu0.kernel = "trsv")
              (Array.to_list stats.Block_ilu0.waves)))
    in
    Alcotest.(check int) "one TRSV wave per backward level" upper_levels
      trsv_waves;
    Array.iter
      (fun w ->
        Alcotest.(check bool) "wave occupancy" true (w.Block_ilu0.problems >= 1);
        Alcotest.(check bool) "wave transactions" true
          (w.Block_ilu0.transactions > 0);
        Alcotest.(check bool) "wave level in range" true
          (w.Block_ilu0.level >= 0
          && w.Block_ilu0.level < max lower_levels upper_levels))
      stats.Block_ilu0.waves

(* ------------------------------------------------------------------ *)
(* Golden parity: on a block-diagonal matrix block-ILU0 degenerates to
   block-Jacobi (no coupling blocks to eliminate), bit for bit.        *)

let test_block_diagonal_parity () =
  let blocks = 5 and bs = 4 in
  let a =
    Vblu_workloads.Generators.block_tridiagonal
      ~state:(Random.State.make [| 105 |])
      ~blocks ~block_size:bs
      ~coupling:0.0 ()
  in
  let n = blocks * bs in
  let blk = Supervariable.uniform ~n ~block_size:bs in
  let pj, _ = Block_jacobi.create ~blocking:blk a in
  let pi, info = Block_ilu0.create ~blocking:blk a in
  Alcotest.(check int) "clean" 0 info.Block_ilu0.factor_info;
  let r = rhs_for n in
  check_bitwise "block-diagonal parity with block-Jacobi"
    (Preconditioner.apply pj r)
    (Preconditioner.apply pi r)

(* ------------------------------------------------------------------ *)
(* Breakdown policies                                                  *)

(* 2x2 with structurally present but zero diagonal in row 0: the first
   pivot breaks down. *)
let breakdown_matrix () =
  Csr.create ~n_rows:2 ~n_cols:2 ~row_ptr:[| 0; 2; 4 |]
    ~col_idx:[| 0; 1; 0; 1 |]
    ~values:[| 0.0; 1.0; 1.0; 2.0 |]

let test_breakdown_policies () =
  let a = breakdown_matrix () in
  let blocking = scalar_blocking 2 in
  let r = rhs_for 2 in
  (* Identity fallback: matches the scalar path bitwise. *)
  let p, info = Block_ilu0.create ~blocking a in
  Alcotest.(check int) "identity: info flags row 0" 1
    info.Block_ilu0.factor_info;
  Alcotest.(check (list int)) "identity: degraded" [ 0 ]
    info.Block_ilu0.degraded_blocks;
  let f, _ = Ilu0.factorize a in
  check_bitwise "identity parity with scalar" (Ilu0.solve f r)
    (Preconditioner.apply p r);
  (* Perturb: salvaged by the diagonal shift, matching the scalar shift. *)
  let eps = 0.5 in
  let pp, pinfo =
    Block_ilu0.create ~blocking ~policy:(Block_jacobi.Perturb eps) a
  in
  Alcotest.(check int) "perturb: info flags row 0" 1
    pinfo.Block_ilu0.factor_info;
  (* The shifted pivot 0.5 propagates: row 1's update becomes 2 - 2·1 = 0,
     so it breaks down (and is salvaged) too — exactly like the scalar
     path, which the bitwise parity below confirms. *)
  Alcotest.(check (list int)) "perturb: salvaged" [ 0; 1 ]
    pinfo.Block_ilu0.perturbed_blocks;
  Alcotest.(check (list int)) "perturb: nothing degraded" []
    pinfo.Block_ilu0.degraded_blocks;
  let fp, _ = Ilu0.factorize ~policy:(Block_jacobi.Perturb eps) a in
  check_bitwise "perturb parity with scalar" (Ilu0.solve fp r)
    (Preconditioner.apply pp r);
  (* Fail: raises after setup with the offending block. *)
  match Block_ilu0.create ~blocking ~policy:Block_jacobi.Fail a with
  | exception
      Block_jacobi.Singular_block { block; variant = Block_jacobi.Lu } ->
    Alcotest.(check int) "fail: block index" 0 block
  | _ -> Alcotest.fail "Fail policy did not raise"

(* ------------------------------------------------------------------ *)
(* Restricted additive Schwarz                                         *)

let test_ras_single_domain_is_create () =
  let a = Vblu_workloads.Generators.convection_diffusion_2d ~nx:8 ~ny:7 () in
  let n, _ = Csr.dims a in
  let p, _ = Block_ilu0.create ~max_block_size:8 a in
  let pr, rinfo =
    Block_ilu0.ras ~max_block_size:8 ~subdomains:1 ~overlap:0 a
  in
  Alcotest.(check int) "one subdomain" 1 rinfo.Block_ilu0.subdomains;
  Alcotest.(check (array (pair int int))) "owns everything" [| (0, n) |]
    rinfo.Block_ilu0.owned;
  let r = rhs_for n in
  check_bitwise "ras(1,0) == create" (Preconditioner.apply p r)
    (Preconditioner.apply pr r)

(* Under [Fail], every family names a broken block by its index over the
   whole matrix: RAS numbers blocks over its concatenated subdomain
   blockings, so without overlap it agrees with the other two. *)
let test_ras_fail_names_global_block () =
  let m = Matrix.create 8 8 in
  for b = 0 to 3 do
    for r = 0 to 1 do
      for c = 0 to 1 do
        Matrix.set m ((2 * b) + r) ((2 * b) + c)
          (if b = 3 then 1.0 else if r = c then 2.0 else 1.0)
      done
    done
  done;
  let a = Csr.of_dense m and policy = Block_jacobi.Fail in
  List.iter
    (fun (name, build) ->
      match build () with
      | exception Block_jacobi.Singular_block { block; _ } ->
        Alcotest.(check int) (name ^ ": block") 3 block
      | _ -> Alcotest.failf "%s: Fail policy did not raise" name)
    [
      ( "block-jacobi",
        fun () -> ignore (Block_jacobi.create ~policy ~max_block_size:2 a) );
      ( "block-ilu0",
        fun () -> ignore (Block_ilu0.create ~policy ~max_block_size:2 a) );
      ( "ras-ilu0",
        fun () ->
          ignore
            (Block_ilu0.ras ~policy ~max_block_size:2 ~subdomains:4 ~overlap:0
               a) );
    ]

let test_ras_partition_and_determinism () =
  let a = Vblu_workloads.Generators.laplacian_2d ~nx:9 ~ny:8 () in
  let n, _ = Csr.dims a in
  let pr, rinfo =
    Block_ilu0.ras ~max_block_size:8 ~subdomains:4 ~overlap:3 a
  in
  Alcotest.(check int) "subdomains" 4 rinfo.Block_ilu0.subdomains;
  (* Owned ranges tile [0, n). *)
  let covered = ref 0 in
  Array.iter
    (fun (lo, hi) ->
      Alcotest.(check int) "contiguous" !covered lo;
      covered := hi)
    rinfo.Block_ilu0.owned;
  Alcotest.(check int) "covers all rows" n !covered;
  (* Extended ranges contain the owned ones by <= overlap rows. *)
  Array.iteri
    (fun d (elo, ehi) ->
      let lo, hi = rinfo.Block_ilu0.owned.(d) in
      Alcotest.(check bool) "extends left" true (elo <= lo && lo - elo <= 3);
      Alcotest.(check bool) "extends right" true (ehi >= hi && ehi - hi <= 3))
    rinfo.Block_ilu0.extended;
  let r = rhs_for n in
  check_bitwise "ras apply deterministic" (Preconditioner.apply pr r)
    (Preconditioner.apply pr r);
  Alcotest.(check int) "local infos" 4
    (Array.length rinfo.Block_ilu0.local_info)


(* ------------------------------------------------------------------ *)
(* Host sweep vs the level-wave launches                               *)

let bits x = Int64.bits_of_float x

(* Right-hand sides salted with the values that expose rounding and
   ordering slips: NaN (payloads and signs), infinities, signed zeros and
   subnormals of both precisions. *)
let specials =
  [|
    Float.nan;
    Int64.float_of_bits 0x7ff8000000000123L;
    Int64.float_of_bits 0xfff8000000000456L;
    Float.infinity;
    Float.neg_infinity;
    -0.0;
    0.0;
    4.9e-324;
    -2.2e-310;
    1.0e-40;
    -3.0e-45;
  |]

let nasty_rhs st n =
  Array.init n (fun _ ->
      if Random.State.int st 6 = 0 then
        specials.(Random.State.int st (Array.length specials))
      else Random.State.float st 2.0 -. 1.0)

(* A copy of [a] with rows [rows] scaled by [f] (pattern kept).  With
   [f = 0.] their eliminated diagonal blocks are singular, so the
   breakdown policy degrades or perturbs them. *)
let scaled_rows (a : Csr.t) rows f =
  let values = Array.copy a.Csr.values in
  List.iter
    (fun r ->
      for p = a.Csr.row_ptr.(r) to a.Csr.row_ptr.(r + 1) - 1 do
        values.(p) <- values.(p) *. f
      done)
    rows;
  let n, _ = Csr.dims a in
  Csr.create ~n_rows:n ~n_cols:n ~row_ptr:a.Csr.row_ptr ~col_idx:a.Csr.col_idx
    ~values

let pool2 = lazy (Vblu_par.Pool.create ~num_domains:2 ())

let same_stats (a : Block_ilu0.apply_stats) (b : Block_ilu0.apply_stats) =
  bits a.Block_ilu0.modelled_seconds = bits b.Block_ilu0.modelled_seconds
  && Array.length a.Block_ilu0.waves = Array.length b.Block_ilu0.waves
  && Array.for_all2
       (fun (u : Block_ilu0.wave) (v : Block_ilu0.wave) ->
         u.Block_ilu0.sweep = v.Block_ilu0.sweep
         && u.Block_ilu0.level = v.Block_ilu0.level
         && u.Block_ilu0.kernel = v.Block_ilu0.kernel
         && u.Block_ilu0.problems = v.Block_ilu0.problems
         && u.Block_ilu0.transactions = v.Block_ilu0.transactions
         && bits u.Block_ilu0.modelled_us = bits v.Block_ilu0.modelled_us)
       a.Block_ilu0.waves b.Block_ilu0.waves

(* The interpreter's answer: the level-wave launches with the launch
   cache (and so the direct path) off. *)
let interpreted h r =
  Vblu_simt.Launch.Cache.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Vblu_simt.Launch.Cache.set_enabled true)
    (fun () -> Block_ilu0.charge_pass h r)

let qcheck_sweep_is_waves =
  QCheck.Test.make ~count:40
    ~name:"host sweep == interpreted level waves, memo == charged waves"
    QCheck.(
      pair
        (quad bool bool bool (int_range 1 16))
        (quad (int_range 0 2) (int_range 2 6) (int_range 2 6)
           (int_range 0 100_000)))
    (fun ((single, interleaved, two, max_block_size), (kind, nx, ny, seed)) ->
      let st = Random.State.make [| 0x5eeb; seed |] in
      let prec = if single then Precision.Single else Precision.Double in
      let layout =
        if interleaved then Vblu_core.Batch.Interleaved else Vblu_core.Batch.Blocked
      in
      let pool = if two then Lazy.force pool2 else Vblu_par.Pool.sequential in
      let module G = Vblu_workloads.Generators in
      let base =
        match kind with
        | 0 ->
          G.convection_diffusion_2d ~nx ~ny
            ~peclet:(float_of_int (Random.State.int st 40)) ()
        | 1 -> G.fem_blocks ~state:st ~nodes:(nx * ny / 2) ~vars_per_node:3 ()
        | _ ->
          (* Coupling 0 is block-diagonal: rows no coupling ever touches. *)
          G.block_tridiagonal ~state:st ~blocks:nx ~block_size:ny
            ~coupling:(if Random.State.bool st then 0.0 else 0.3)
            ()
      in
      let n, _ = Csr.dims base in
      (* Jitter every entry off the binary32 grid. *)
      let base =
        Csr.create ~n_rows:n ~n_cols:n ~row_ptr:base.Csr.row_ptr
          ~col_idx:base.Csr.col_idx
          ~values:
            (Array.map
               (fun v -> v *. (1.0 +. Random.State.float st 0.01))
               base.Csr.values)
      in
      let pick () = List.init (Random.State.int st 3) (fun _ -> Random.State.int st n) in
      let a = scaled_rows base (pick ()) 0.0 in
      let policy =
        if Random.State.bool st then Block_jacobi.Identity_block
        else Block_jacobi.Perturb 1e-3
      in
      let h = Block_ilu0.handle ~pool ~prec ~layout ~policy ~max_block_size a in
      let p = Block_ilu0.precond h in
      let check r =
        let y = Preconditioner.apply p r in
        let y_ref, charged = interpreted h r in
        let memo = !((Block_ilu0.handle_info h).Block_ilu0.last_apply) in
        Array.for_all2 (fun u v -> bits u = bits v) y y_ref
        && match memo with Some m -> same_stats m charged | None -> false
      in
      let ok_fresh = check (nasty_rhs st n) in
      (* A partial refresh: a few rows drift, a few more break down. *)
      let drifted = scaled_rows (scaled_rows a (pick ()) 1.5) (pick ()) 0.0 in
      ignore (Block_ilu0.update ~tol:0.0 h drifted);
      ok_fresh && check (nasty_rhs st n))

(* Everything an elimination leaves observable, bitwise: the update
   stats, the normal factors and pivots, the outcome lists and
   [factor_info], and one apply (which reads the eliminated L and U
   blocks). *)
let elimination_snapshot h (s : Block_jacobi.update_stats) r =
  let info = Block_ilu0.handle_info h in
  ( ( s.Block_jacobi.dirty_blocks,
      [ s.Block_jacobi.refactored; s.Block_jacobi.reused; s.Block_jacobi.launches;
        s.Block_jacobi.setup_transactions ],
      bits s.Block_jacobi.modelled_seconds ),
    Array.map
      (fun ((m : Matrix.t), piv) -> (Array.map bits m.Matrix.a, piv))
      (Block_ilu0.handle_factors h),
    ( info.Block_ilu0.factor_info,
      info.Block_ilu0.degraded_blocks,
      info.Block_ilu0.perturbed_blocks ),
    Array.map bits (Preconditioner.apply (Block_ilu0.precond h) r) )

(* A fresh handle, a forced refresh and a partial drift with breakdowns,
   swept and interpreted: their snapshots must agree bit for bit. *)
let elimination_matches ((single, interleaved, two, max_block_size),
                         (kind, nx, ny, seed)) =
      let st = Random.State.make [| 0xe11; seed |] in
      let prec = if single then Precision.Single else Precision.Double in
      let layout =
        if interleaved then Vblu_core.Batch.Interleaved else Vblu_core.Batch.Blocked
      in
      let pool = if two then Lazy.force pool2 else Vblu_par.Pool.sequential in
      let module G = Vblu_workloads.Generators in
      let base =
        match kind with
        | 0 ->
          G.convection_diffusion_2d ~nx ~ny
            ~peclet:(float_of_int (Random.State.int st 40)) ()
        | 1 -> G.fem_blocks ~state:st ~nodes:(nx * ny / 2) ~vars_per_node:3 ()
        | _ -> G.block_tridiagonal ~state:st ~blocks:nx ~block_size:ny ()
      in
      let n, _ = Csr.dims base in
      let base =
        Csr.create ~n_rows:n ~n_cols:n ~row_ptr:base.Csr.row_ptr
          ~col_idx:base.Csr.col_idx
          ~values:
            (Array.map
               (fun v -> v *. (1.0 +. Random.State.float st 0.01))
               base.Csr.values)
      in
      let pick () =
        List.init (Random.State.int st 3) (fun _ -> Random.State.int st n)
      in
      let a = scaled_rows base (pick ()) 0.0 in
      let drifted = scaled_rows (scaled_rows a (pick ()) 1.5) (pick ()) 0.0 in
      let policy =
        if Random.State.bool st then Block_jacobi.Identity_block
        else Block_jacobi.Perturb 1e-3
      in
      let r = rhs_for n in
      (* A fresh handle, a forced refresh (its keys are warm by then) and a
         partial drift with breakdowns. *)
      let run () =
        let h = Block_ilu0.handle ~pool ~prec ~layout ~policy ~max_block_size a in
        let fresh = elimination_snapshot h (Block_ilu0.last_update h) r in
        let forced =
          elimination_snapshot h (Block_ilu0.update ~force_all:true h a) r
        in
        let partial =
          elimination_snapshot h (Block_ilu0.update ~tol:0.0 h drifted) r
        in
        [ fresh; forced; partial ]
      in
      let swept = run () in
      Vblu_simt.Launch.Cache.set_enabled false;
      let interpreted =
        Fun.protect
          ~finally:(fun () -> Vblu_simt.Launch.Cache.set_enabled true)
          run
      in
      swept = interpreted

let qcheck_elimination_sweep =
  QCheck.Test.make ~count:30
    ~name:"elimination sweep == interpreted elimination, bitwise"
    QCheck.(
      pair
        (quad bool bool bool (int_range 1 12))
        (quad (int_range 0 2) (int_range 2 6) (int_range 2 6)
           (int_range 0 100_000)))
    elimination_matches

(* A Single trailing update whose column of B is all zero still writes
   each C entry through the [+c] fma, which rounds the off-grid values
   the jittered matrix leaves there: a sweep that skipped such columns
   outright differed here. *)
let test_elimination_single_zero_column () =
  Alcotest.(check bool) "swept == interpreted" true
    (elimination_matches ((true, false, false, 3), (0, 3, 3, 46815)))

(* ------------------------------------------------------------------ *)
(* Apply charges pinned at the level-wave apply they replaced          *)

(* (matrix, layout, precision, waves, per-wave kernel/problems run-length
   coded — [g] GEMM, [t] TRSV, then the problem count, [*k] k repeats —,
   Σ transactions, bits of the modelled seconds), blocking bound 3. *)
let pinned_charges =
  let open Vblu_core.Batch in
  let cd = "g1*27 t1 g1 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1" in
  let fem = "g1*18 t1 g1 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*3 t1" in
  let bt = "g1*17 t1 g1 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1 g1*2 t1" in
  [
    ("conv-diff", Blocked, Precision.Double, 69, cd, 1215, 4562245994936526882L);
    ("conv-diff", Blocked, Precision.Single, 69, cd, 984, 4561380744586064736L);
    ("conv-diff", Interleaved, Precision.Double, 69, cd, 1215, 4562245994936526882L);
    ("conv-diff", Interleaved, Precision.Single, 69, cd, 984, 4561380744586064736L);
    ("fem", Blocked, Precision.Double, 46, fem, 810, 4559276785988351363L);
    ("fem", Blocked, Precision.Single, 46, fem, 656, 4558633570814566982L);
    ("fem", Interleaved, Precision.Double, 46, fem, 810, 4559276785988351363L);
    ("fem", Interleaved, Precision.Single, 46, fem, 656, 4558633570814566982L);
    ("block-tridiag", Blocked, Precision.Double, 44, bt, 770, 4559000374451816757L);
    ("block-tridiag", Blocked, Precision.Single, 44, bt, 624, 4558383076372946766L);
    ("block-tridiag", Interleaved, Precision.Double, 44, bt, 770, 4559000374451816757L);
    ("block-tridiag", Interleaved, Precision.Single, 44, bt, 624, 4558383076372946766L);
  ]

let pin_matrix = function
  | "conv-diff" ->
    Vblu_workloads.Generators.convection_diffusion_2d ~nx:5 ~ny:9 ~peclet:20.0 ()
  | "fem" ->
    Vblu_workloads.Generators.fem_blocks
      ~state:(Random.State.make [| 106 |])
      ~nodes:10 ~vars_per_node:3 ()
  | _ ->
    Vblu_workloads.Generators.block_tridiagonal
      ~state:(Random.State.make [| 107 |])
      ~blocks:6 ~block_size:5 ()

let wave_shape (waves : Block_ilu0.wave array) =
  let tag (w : Block_ilu0.wave) =
    Printf.sprintf "%s%d"
      (if w.Block_ilu0.kernel = "gemm" then "g" else "t")
      w.Block_ilu0.problems
  in
  let runs =
    Array.fold_left
      (fun acc w ->
        match acc with
        | (t, k) :: rest when t = tag w -> (t, k + 1) :: rest
        | _ -> (tag w, 1) :: acc)
      [] waves
  in
  String.concat " "
    (List.rev_map
       (fun (t, k) -> if k = 1 then t else Printf.sprintf "%s*%d" t k)
       runs)

let test_pinned_charges () =
  List.iter
    (fun (name, layout, prec, nwaves, shape, tx, bits_s) ->
      let a = pin_matrix name in
      let n, _ = Csr.dims a in
      let label =
        Printf.sprintf "%s/%s/%s" name
          (Vblu_core.Batch.layout_name layout)
          (Precision.to_string prec)
      in
      let p, info = Block_ilu0.create ~prec ~layout ~max_block_size:3 a in
      (* Twice: the second apply publishes the memo of the first. *)
      for _ = 1 to 2 do
        ignore (Preconditioner.apply p (Array.make n 1.0));
        match !(info.Block_ilu0.last_apply) with
        | None -> Alcotest.failf "%s: no apply stats" label
        | Some s ->
          let w = s.Block_ilu0.waves in
          Alcotest.(check int) (label ^ ": waves") nwaves (Array.length w);
          Alcotest.(check string) (label ^ ": wave shape") shape (wave_shape w);
          Alcotest.(check int)
            (label ^ ": transactions")
            tx
            (Array.fold_left (fun t w -> t + w.Block_ilu0.transactions) 0 w);
          Alcotest.(check int64)
            (label ^ ": modelled seconds bits")
            bits_s (bits s.Block_ilu0.modelled_seconds)
      done)
    pinned_charges

(* ------------------------------------------------------------------ *)
(* Setup charges pinned at the launch-per-wave elimination             *)

(* (matrix, layout, precision, fresh handle, partial [update ~tol:0.]
   after rows n/3 and 2n/3 drift by ×1.5, rows that update refactored);
   each charge is (launches, setup transactions, bits of the modelled
   seconds), blocking bound 3. *)
let pinned_setup =
  let open Vblu_core.Batch in
  [
    ("conv-diff", Blocked, Precision.Double, (69, 1622, 4564882470319181525L), (50, 1174, 4562810066102999303L), 10);
    ("conv-diff", Blocked, Precision.Single, (69, 1442, 4563039411455837826L), (50, 1044, 4560893780685935627L), 10);
    ("conv-diff", Interleaved, Precision.Double, (69, 1205, 4564227474647708792L), (50, 876, 4562341987661515186L), 10);
    ("conv-diff", Interleaved, Precision.Single, (69, 1025, 4562384415784365091L), (50, 746, 4559957623802967399L), 10);
    ("fem", Blocked, Precision.Double, (46, 964, 4562469254512435004L), (39, 835, 4561054986938380348L), 7);
    ("fem", Blocked, Precision.Single, (46, 844, 4560334674680765958L), (39, 734, 4559126519466796047L), 7);
    ("fem", Interleaved, Precision.Double, (46, 774, 4562170815237663251L), (39, 666, 4560524079175891652L), 7);
    ("fem", Interleaved, Precision.Single, (46, 654, 4559737796131222457L), (39, 565, 4558595611704307353L), 7);
    ("block-tridiag", Blocked, Precision.Double, (44, 1027, 4562298848717152855L), (35, 817, 4560373363757251750L), 7);
    ("block-tridiag", Blocked, Precision.Single, (44, 912, 4560055121678181124L), (35, 726, 4558567413461626379L), 7);
    ("block-tridiag", Interleaved, Precision.Double, (44, 765, 4561628210802833270L), (35, 612, 4559729363216954811L), 7);
    ("block-tridiag", Interleaved, Precision.Single, (44, 650, 4559232057573021138L), (35, 521, 4557923412921329442L), 7);
  ]

(* The [pin_matrix] shapes on the generator states the setup charges were
   pinned with. *)
let setup_matrix name =
  let st = Random.State.make [| 0x5e7; String.length name |] in
  match name with
  | "conv-diff" -> pin_matrix name
  | "fem" ->
    Vblu_workloads.Generators.fem_blocks ~state:st ~nodes:10 ~vars_per_node:3 ()
  | _ ->
    Vblu_workloads.Generators.block_tridiagonal ~state:st ~blocks:6
      ~block_size:5 ()

let drift_rows (a : Csr.t) =
  let n, _ = Csr.dims a in
  scaled_rows a [ n / 3; 2 * n / 3 ] 1.5

let check_charge label (launches, tx, bits_s) (s : Block_jacobi.update_stats) =
  Alcotest.(check int) (label ^ ": launches") launches s.Block_jacobi.launches;
  Alcotest.(check int)
    (label ^ ": setup transactions")
    tx s.Block_jacobi.setup_transactions;
  Alcotest.(check int64)
    (label ^ ": modelled seconds bits")
    bits_s
    (bits s.Block_jacobi.modelled_seconds)

let test_pinned_setup_charges () =
  List.iter
    (fun (name, layout, prec, fresh, partial, refactored) ->
      let a = setup_matrix name in
      let label =
        Printf.sprintf "%s/%s/%s" name
          (Vblu_core.Batch.layout_name layout)
          (Precision.to_string prec)
      in
      (* Twice: the second handle runs on a warm launch cache. *)
      for pass = 1 to 2 do
        let label = Printf.sprintf "%s (pass %d)" label pass in
        let h = Block_ilu0.handle ~prec ~layout ~max_block_size:3 a in
        check_charge (label ^ " fresh") fresh (Block_ilu0.last_update h);
        let s = Block_ilu0.update ~tol:0.0 h (drift_rows a) in
        Alcotest.(check int) (label ^ ": refactored") refactored
          s.Block_jacobi.refactored;
        check_charge (label ^ " partial") partial s
      done)
    pinned_setup

(* A handle takes [create]'s ABFT: under [~abft:true] both build the
   same info (outcome lists, schedules, setup launches and modelled
   time) and apply bits, and the checked launches take more modelled
   time than an unchecked handle's. *)
let test_handle_abft_is_create () =
  List.iter
    (fun name ->
      let a = setup_matrix name in
      let n, _ = Csr.dims a in
      let p, info = Block_ilu0.create ~abft:true ~max_block_size:3 a in
      let h = Block_ilu0.handle ~abft:true ~max_block_size:3 a in
      Alcotest.(check bool) (name ^ ": info") true
        (info = Block_ilu0.handle_info h);
      let r = rhs_for n in
      check_bitwise (name ^ ": apply") (Preconditioner.apply p r)
        (Preconditioner.apply (Block_ilu0.precond h) r);
      let plain = Block_ilu0.handle ~max_block_size:3 a in
      Alcotest.(check bool) (name ^ ": abft charged") true
        ((Block_ilu0.last_update h).Block_jacobi.modelled_seconds
        > (Block_ilu0.last_update plain).Block_jacobi.modelled_seconds))
    [ "conv-diff"; "fem"; "block-tridiag" ]

(* Launch-cache tallies of a warm update sequence — fresh handle, forced
   refresh, a drift, a breakdown, the way back — over every pinned
   matrix, layout, precision and policy, from an empty cache. *)
let test_pinned_cache_counts () =
  let module C = Vblu_simt.Launch.Cache in
  C.clear ();
  List.iter
    (fun name ->
      let a = setup_matrix name in
      List.iter
        (fun layout ->
          List.iter
            (fun prec ->
              List.iter
                (fun policy ->
                  let h =
                    Block_ilu0.handle ~prec ~layout ~policy ~max_block_size:3 a
                  in
                  ignore (Block_ilu0.update ~force_all:true h a);
                  ignore (Block_ilu0.update ~tol:0.0 h (drift_rows a));
                  ignore (Block_ilu0.update ~tol:0.0 h (scaled_rows a [ 1 ] 0.0));
                  ignore (Block_ilu0.update ~tol:0.0 h a))
                [ Block_jacobi.Identity_block; Block_jacobi.Perturb 1e-3 ])
            [ Precision.Double; Precision.Single ])
        [ Vblu_core.Batch.Blocked; Vblu_core.Batch.Interleaved ])
    [ "conv-diff"; "fem"; "block-tridiag" ];
  let hits, misses = C.stats () in
  Alcotest.(check int) "hits" 9314 hits;
  Alcotest.(check int) "misses" 102 misses;
  Alcotest.(check int) "direct hits" 9314 (C.direct_hits ());
  Alcotest.(check int) "entries" 18 (C.entries ())

(* Under [Fail] a breakdown raises without advancing the value snapshot,
   so retrying the same matrix re-eliminates and raises again (as
   Block_jacobi does) instead of returning identity-fallback factors. *)
let test_fail_retry_raises () =
  let a =
    Vblu_workloads.Generators.block_tridiagonal
      ~state:(Random.State.make [| 108 |])
      ~blocks:4 ~block_size:3 ()
  in
  let h =
    Block_ilu0.handle ~policy:Block_jacobi.Fail ~max_block_size:3
      ~blocking:(Supervariable.uniform ~n:12 ~block_size:3)
      a
  in
  let broken = scaled_rows a [ 3; 4; 5 ] 0.0 in
  for attempt = 1 to 2 do
    match Block_ilu0.update ~tol:0.0 h broken with
    | exception
      Block_jacobi.Singular_block { block; variant = Block_jacobi.Lu } ->
      Alcotest.(check int) (Printf.sprintf "attempt %d: block" attempt) 1 block
    | _ -> Alcotest.failf "attempt %d: Fail policy did not raise" attempt
  done;
  (* The original matrix still updates cleanly afterwards. *)
  let s = Block_ilu0.update ~tol:0.0 h a in
  Alcotest.(check int) "recovered: factor_info" 0
    (Block_ilu0.handle_info h).Block_ilu0.factor_info;
  Alcotest.(check bool) "recovered: rows re-eliminated" true
    (s.Block_jacobi.refactored > 0)

(* ------------------------------------------------------------------ *)
(* Convergence: the coupled factorization must buy iterations           *)

let test_ilu0_beats_jacobi_on_convection () =
  let module S = Vblu_workloads.Suite in
  let module St = Vblu_perf.Study in
  let conv =
    List.filter (fun (e : S.entry) -> e.S.family = S.Convection) S.all
  in
  let study =
    St.run ~entries:conv [ St.Block_jacobi (Block_jacobi.Lu, 16); St.Ilu0 16 ]
  in
  let v = St.ilu0_verdict study in
  Alcotest.(check bool) "convection pairs found" true (v.St.convection > 0);
  Alcotest.(check bool)
    (Printf.sprintf
       "block-ilu0 reduced iterations on %d/%d convection matrices, at least \
        half"
       v.St.convection_improved v.St.convection)
    true
    (2 * v.St.convection_improved >= v.St.convection)

(* A block-diagonal matrix of [blocks] dense blocks of orders 1..5 drawn
   from [seed], each healthy (diagonally dominant), all zero, or a
   constant [c·ones] (singular from order 2), every block entry stored. *)
let planted_block_diagonal seed blocks =
  let st = Random.State.make [| 0xb1d; seed |] in
  let sizes = Array.init blocks (fun _ -> 1 + Random.State.int st 5) in
  let starts = Array.make blocks 0 in
  for i = 1 to blocks - 1 do
    starts.(i) <- starts.(i - 1) + sizes.(i - 1)
  done;
  let n = Array.fold_left ( + ) 0 sizes in
  let m = Matrix.create n n in
  Array.iteri
    (fun b s ->
      let kind = Random.State.int st 3 in
      let c = 1.0 +. Random.State.float st 1.0 in
      for r = 0 to s - 1 do
        for q = 0 to s - 1 do
          let v =
            match kind with
            | 0 ->
              (Random.State.float st 2.0 -. 1.0)
              +. if r = q then float_of_int (s + 1) else 0.0
            | 1 -> 0.0
            | _ -> c
          in
          Matrix.set m (starts.(b) + r) (starts.(b) + q) v
        done
      done)
    sizes;
  let row_ptr = Array.make (n + 1) 0 in
  let cols = ref [] and vals = ref [] in
  Array.iteri
    (fun b s ->
      for r = starts.(b) to starts.(b) + s - 1 do
        for q = starts.(b) to starts.(b) + s - 1 do
          cols := q :: !cols;
          vals := Matrix.get m r q :: !vals
        done;
        row_ptr.(r + 1) <- row_ptr.(r) + s
      done)
    sizes;
  ( Csr.create ~n_rows:n ~n_cols:n ~row_ptr
      ~col_idx:(Array.of_list (List.rev !cols))
      ~values:(Array.of_list (List.rev !vals)),
    { Supervariable.starts; sizes } )

(* With no fault plan, every setup path settles its diagonal blocks by
   one rule: on a block-diagonal matrix with planted singular blocks the
   block-Jacobi handle, [Block_jacobi.create ~variant:Lu] and the
   block-ILU(0) handle report the same outcome lists and apply bitwise
   the same. *)
let qcheck_settle_parity =
  QCheck.Test.make ~count:40 ~name:"planted breakdowns: jacobi == ilu0 handle"
    QCheck.(pair (int_range 0 100_000) (int_range 1 6))
    (fun (seed, blocks) ->
      let a, blocking = planted_block_diagonal seed blocks in
      let n, _ = Csr.dims a in
      let r = rhs_for n in
      let all_equal = function
        | x :: rest -> List.for_all (( = ) x) rest
        | [] -> true
      in
      let lists (i : Block_jacobi.info) =
        Block_jacobi.
          ( i.degraded_blocks, i.perturbed_blocks, i.recovered_blocks,
            i.corrupt_blocks )
      in
      List.for_all
        (fun policy ->
          let hj = Block_jacobi.handle ~policy ~blocking a in
          let pc, ic =
            Block_jacobi.create ~variant:Block_jacobi.Lu ~policy ~blocking a
          in
          let hi = Block_ilu0.handle ~policy ~blocking a in
          let ii = Block_ilu0.handle_info hi in
          all_equal
            [ lists (Block_jacobi.handle_info hj); lists ic;
              Block_ilu0.
                (ii.degraded_blocks, ii.perturbed_blocks, ii.recovered_blocks,
                 ii.corrupt_blocks) ]
          && all_equal
               (List.map
                  (fun p ->
                    Array.map Int64.bits_of_float (Preconditioner.apply p r))
                  [ Block_jacobi.precond hj; pc; Block_ilu0.precond hi ]))
        [ Block_jacobi.Identity_block; Block_jacobi.Perturb 1e-3 ])

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_scalar_equivalence;
      qcheck_sweep_is_waves;
      qcheck_elimination_sweep;
      qcheck_settle_parity;
    ]

let () =
  Alcotest.run "block_ilu0"
    [
      ( "levels",
        [
          Alcotest.test_case "chain" `Quick test_levels_chain;
          Alcotest.test_case "block tridiagonal" `Quick
            test_levels_block_tridiagonal;
          Alcotest.test_case "suite invariants" `Slow test_levels_suite;
        ] );
      ( "scalar equivalence",
        [
          Alcotest.test_case "fixed matrices" `Quick
            test_scalar_equivalence_fixed;
        ] );
      ( "bit identity",
        [
          Alcotest.test_case "domains x layouts" `Quick
            test_apply_bit_identical_domains_layouts;
        ] );
      ( "waves",
        [
          Alcotest.test_case "accounting" `Quick test_wave_accounting;
          Alcotest.test_case "pinned charges" `Quick test_pinned_charges;
          Alcotest.test_case "pinned setup charges" `Quick
            test_pinned_setup_charges;
          Alcotest.test_case "pinned cache counts" `Quick
            test_pinned_cache_counts;
          Alcotest.test_case "handle == create under abft" `Quick
            test_handle_abft_is_create;
          Alcotest.test_case "single zero-column update" `Quick
            test_elimination_single_zero_column;
        ] );
      ( "golden parity",
        [
          Alcotest.test_case "block-diagonal == block-Jacobi" `Quick
            test_block_diagonal_parity;
        ] );
      ( "breakdown",
        [
          Alcotest.test_case "policies" `Quick test_breakdown_policies;
          Alcotest.test_case "fail retry raises again" `Quick
            test_fail_retry_raises;
        ] );
      ( "ras",
        [
          Alcotest.test_case "single domain == create" `Quick
            test_ras_single_domain_is_create;
          Alcotest.test_case "partition and determinism" `Quick
            test_ras_partition_and_determinism;
          Alcotest.test_case "fail names the global block" `Quick
            test_ras_fail_names_global_block;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "ilu0 beats jacobi on convection" `Slow
            test_ilu0_beats_jacobi_on_convection;
        ] );
      ("properties", qcheck_tests);
    ]
