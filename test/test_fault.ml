(* Tests for the fault-injection + ABFT stack: the deterministic fault
   plan, zero-overhead disabled paths, checksum detection in the batched
   kernels, recovery policies in block-Jacobi, and the Krylov soft-error
   guard.  The planted-fault assertions mirror the CI fault-injection job:
   with a fixed seed, ABFT must flag exactly the targeted problems. *)

open Vblu_smallblas
open Vblu_core
open Vblu_fault
module Config = Vblu_simt.Config
module Counter = Vblu_simt.Counter
module Bj = Vblu_precond.Block_jacobi

let check_float = Alcotest.(check (float 1e-12))

let state seed = Random.State.make [| 0xfa17; seed |]

let general_batch seed ~count ~min_size ~max_size =
  let st = state seed in
  let sizes = Batch.random_sizes ~state:st ~count ~min_size ~max_size () in
  Batch.random_general ~state:st sizes

let verdict_name = function
  | Fault.Unchecked -> "unchecked"
  | Fault.Passed -> "passed"
  | Fault.Failed -> "failed"

let check_verdicts msg expected actual =
  Alcotest.(check (array string)) msg
    (Array.map verdict_name expected)
    (Array.map verdict_name actual)

let failed_indices verdicts =
  Array.to_list verdicts
  |> List.mapi (fun i v -> (i, v))
  |> List.filter_map (fun (i, v) -> if v = Fault.Failed then Some i else None)

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)

let test_spec_roundtrip () =
  let spec = "seed=7,every=3,phase=1,target=gmem,kind=scale:8,at=2.1.0" in
  let plan =
    match Fault.Plan.of_spec spec with
    | Ok p -> p
    | Error msg -> Alcotest.failf "of_spec rejected %S: %s" spec msg
  in
  let plan' =
    match Fault.Plan.of_spec (Fault.Plan.to_spec plan) with
    | Ok p -> p
    | Error msg -> Alcotest.failf "to_spec does not round-trip: %s" msg
  in
  for problem = 0 to 9 do
    Alcotest.(check bool)
      (Printf.sprintf "sites of problem %d stable" problem)
      true
      (Fault.Plan.sites_for plan ~problem ~size:16
      = Fault.Plan.sites_for plan' ~problem ~size:16)
  done

let test_spec_errors () =
  let rejected s =
    match Fault.Plan.of_spec s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "negative every" true (rejected "every=-1");
  Alcotest.(check bool) "phase out of range" true (rejected "every=2,phase=5");
  Alcotest.(check bool) "unknown key" true (rejected "frobnicate=3");
  Alcotest.(check bool) "bad target" true (rejected "target=disk");
  Alcotest.(check bool) "bad kind" true (rejected "kind=melt:4");
  Alcotest.(check bool) "bad site" true (rejected "at=1.2");
  Alcotest.(check bool) "flip bit out of range" true (rejected "kind=flip:64")

let test_sites_deterministic_and_clamped () =
  let plan = Fault.Plan.make ~seed:42 ~every:2 () in
  for problem = 0 to 11 do
    for size = 1 to 8 do
      let sites = Fault.Plan.sites_for plan ~problem ~size in
      Alcotest.(check bool) "pure" true
        (sites = Fault.Plan.sites_for plan ~problem ~size);
      List.iter
        (fun (s : Fault.site) ->
          Alcotest.(check bool) "step clamped" true
            (s.Fault.step >= 0 && s.Fault.step < size);
          Alcotest.(check bool) "lane clamped" true
            (s.Fault.lane >= 0 && s.Fault.lane < size))
        sites;
      if problem mod 2 = 1 then
        Alcotest.(check int) "untargeted problem has no sites" 0
          (List.length sites)
    done
  done;
  Alcotest.(check (list int)) "targeted = evens" [ 0; 2; 4 ]
    (Fault.Plan.targeted plan ~problems:6 ~sizes:(Array.make 6 8))

let test_one_shot_claim () =
  let plan = Fault.Plan.make () in
  Alcotest.(check bool) "first claim wins" true
    (Fault.Plan.claim plan ~problem:3 ~step:2);
  Alcotest.(check bool) "second claim loses" false
    (Fault.Plan.claim plan ~problem:3 ~step:2);
  Alcotest.(check bool) "other key unaffected" true
    (Fault.Plan.claim plan ~problem:3 ~step:4)

let test_corrupt_kinds () =
  check_float "scale" 6.0 (Fault.corrupt (Fault.Scale 3.0) 2.0);
  check_float "set" (-1.5) (Fault.corrupt (Fault.Set_value (-1.5)) 42.0);
  let flipped = Fault.corrupt (Fault.Bit_flip 55) 1.0 in
  Alcotest.(check bool) "bit 55 leaves the ballpark" true
    (Float.abs (flipped /. 1.0) > 100.0 || Float.abs (flipped /. 1.0) < 0.01);
  check_float "flip is an involution" 1.0
    (Fault.corrupt (Fault.Bit_flip 55) flipped)

(* ------------------------------------------------------------------ *)
(* Batched LU / TRSV                                                   *)

let test_lu_abft_clean_batch () =
  let b = general_batch 3 ~count:20 ~min_size:1 ~max_size:32 in
  let plain = Batched_lu.factor b in
  let prot = Batched_lu.factor ~abft:true b in
  check_float "abft does not perturb the factors" 0.0
    (Vector.max_abs_diff plain.Batched_lu.factors.Batch.values
       prot.Batched_lu.factors.Batch.values);
  check_verdicts "plain run is unchecked"
    (Array.make 20 Fault.Unchecked)
    plain.Batched_lu.verdicts;
  check_verdicts "clean batch all passes"
    (Array.make 20 Fault.Passed)
    prot.Batched_lu.verdicts

let test_lu_detects_planted_faults () =
  let count = 24 in
  let b = general_batch 4 ~count ~min_size:4 ~max_size:32 in
  let plan = Fault.Plan.make ~seed:11 ~every:3 () in
  let r = Batched_lu.factor ~faults:plan ~abft:true b in
  let targeted =
    Fault.Plan.targeted plan ~problems:count ~sizes:b.Batch.sizes
  in
  Alcotest.(check int) "every planted fault fired"
    (List.length targeted)
    (Fault.Plan.injected plan);
  Alcotest.(check (list int)) "flagged exactly the targeted problems"
    targeted
    (failed_indices r.Batched_lu.verdicts)

let test_lu_one_shot_retry_runs_clean () =
  let b = general_batch 5 ~count:12 ~min_size:2 ~max_size:32 in
  let plan = Fault.Plan.make ~seed:9 ~every:2 () in
  let dirty = Batched_lu.factor ~faults:plan ~abft:true b in
  Alcotest.(check bool) "first pass detects something" true
    (failed_indices dirty.Batched_lu.verdicts <> []);
  (* The same plan again: all claims are spent, so the retry is clean and
     bit-identical to the unfaulted run — the recovery-policy invariant. *)
  let retry = Batched_lu.factor ~faults:plan ~abft:true b in
  let clean = Batched_lu.factor ~abft:true b in
  check_float "retry restores bit-identical factors" 0.0
    (Vector.max_abs_diff retry.Batched_lu.factors.Batch.values
       clean.Batched_lu.factors.Batch.values);
  check_verdicts "retry all passes"
    (Array.make 12 Fault.Passed)
    retry.Batched_lu.verdicts

let test_lu_disabled_injection_zero_impact () =
  (* A plan that targets nothing (every=0, no explicit sites) must leave
     the run bit-identical, fire nothing, and keep verdicts unchecked. *)
  let b = general_batch 6 ~count:8 ~min_size:1 ~max_size:16 in
  let plan = Fault.Plan.make ~every:0 () in
  let r = Batched_lu.factor ~faults:plan b in
  let clean = Batched_lu.factor b in
  check_float "bit-identical" 0.0
    (Vector.max_abs_diff r.Batched_lu.factors.Batch.values
       clean.Batched_lu.factors.Batch.values);
  Alcotest.(check int) "nothing fired" 0 (Fault.Plan.injected plan);
  Alcotest.(check bool) "stats identical" true
    (Float.equal r.Batched_lu.stats.Vblu_simt.Launch.time_us
       clean.Batched_lu.stats.Vblu_simt.Launch.time_us)

let test_lu_fault_deterministic_across_domains () =
  let b = general_batch 7 ~count:30 ~min_size:2 ~max_size:32 in
  let run domains =
    let plan = Fault.Plan.make ~seed:13 ~every:4 () in
    let pool = Vblu_par.Pool.create ~num_domains:domains () in
    Batched_lu.factor ~pool ~faults:plan ~abft:true b
  in
  let one = run 1 and two = run 2 in
  check_float "factors bit-identical across domain counts" 0.0
    (Vector.max_abs_diff one.Batched_lu.factors.Batch.values
       two.Batched_lu.factors.Batch.values);
  check_verdicts "verdicts identical across domain counts"
    one.Batched_lu.verdicts two.Batched_lu.verdicts

let test_trsv_abft_clean_and_planted () =
  let count = 16 in
  let b = general_batch 8 ~count ~min_size:4 ~max_size:32 in
  let rhs = Batch.vec_random ~state:(state 80) b.Batch.sizes in
  let f = Batched_lu.factor b in
  let plain =
    Batched_trsv.solve ~factors:f.Batched_lu.factors
      ~pivots:f.Batched_lu.pivots rhs
  in
  let prot =
    Batched_trsv.solve ~abft:true ~factors:f.Batched_lu.factors
      ~pivots:f.Batched_lu.pivots rhs
  in
  check_float "abft does not perturb the solutions" 0.0
    (Vector.max_abs_diff plain.Batched_trsv.solutions.Batch.vvalues
       prot.Batched_trsv.solutions.Batch.vvalues);
  check_verdicts "clean solve all passes"
    (Array.make count Fault.Passed)
    prot.Batched_trsv.verdicts;
  let plan = Fault.Plan.make ~seed:21 ~every:5 () in
  let dirty =
    Batched_trsv.solve ~faults:plan ~abft:true ~factors:f.Batched_lu.factors
      ~pivots:f.Batched_lu.pivots rhs
  in
  let targeted =
    Fault.Plan.targeted plan ~problems:count ~sizes:b.Batch.sizes
  in
  Alcotest.(check int) "every planted fault fired"
    (List.length targeted)
    (Fault.Plan.injected plan);
  Alcotest.(check (list int)) "flagged exactly the targeted problems"
    targeted
    (failed_indices dirty.Batched_trsv.verdicts)

(* ------------------------------------------------------------------ *)
(* Batched Gauss-Huard (host-level injection)                          *)

let test_gh_abft_clean_and_planted () =
  let count = 15 in
  let b = general_batch 9 ~count ~min_size:2 ~max_size:32 in
  let clean = Batched_gh.factor ~abft:true b in
  check_verdicts "clean batch all passes"
    (Array.make count Fault.Passed)
    clean.Batched_gh.verdicts;
  let plan = Fault.Plan.make ~seed:17 ~every:4 () in
  let dirty = Batched_gh.factor ~faults:plan ~abft:true b in
  let targeted =
    Fault.Plan.targeted plan ~problems:count ~sizes:b.Batch.sizes
  in
  Alcotest.(check (list int)) "flagged exactly the targeted problems"
    targeted
    (failed_indices dirty.Batched_gh.verdicts)

let test_gh_solve_dmr () =
  let count = 10 in
  let b = general_batch 10 ~count ~min_size:2 ~max_size:16 in
  let rhs = Batch.vec_random ~state:(state 100) b.Batch.sizes in
  let f = Batched_gh.factor b in
  let clean = Batched_gh.solve ~abft:true f rhs in
  check_verdicts "clean solve all passes"
    (Array.make count Fault.Passed)
    clean.Batched_gh.solve_verdicts;
  let plan = Fault.Plan.make ~seed:23 ~every:3 () in
  let dirty = Batched_gh.solve ~faults:plan ~abft:true f rhs in
  let targeted =
    Fault.Plan.targeted plan ~problems:count ~sizes:b.Batch.sizes
  in
  Alcotest.(check (list int)) "DMR flags exactly the targeted problems"
    targeted
    (failed_indices dirty.Batched_gh.solve_verdicts)

(* ------------------------------------------------------------------ *)
(* Block-Jacobi recovery                                               *)

let bj_matrix () =
  Vblu_workloads.Generators.fem_blocks
    ~state:(Random.State.make [| 101 |])
    ~nodes:40 ~vars_per_node:4 ()

let apply_to_ones (p : Vblu_precond.Preconditioner.t) =
  Vblu_precond.Preconditioner.apply p (Array.make p.Vblu_precond.Preconditioner.dim 1.0)

let test_bj_recompute_restores_factors () =
  let a = bj_matrix () in
  let clean, _ = Bj.create ~max_block_size:16 a in
  let plan = Fault.Plan.make ~seed:31 ~every:2 () in
  let prot, info =
    Bj.create ~faults:plan ~abft:true ~recovery:(Bj.Recompute 1)
      ~max_block_size:16 a
  in
  Alcotest.(check bool) "faults were detected and recovered" true
    (info.Bj.recovered_blocks <> []);
  Alcotest.(check (list int)) "nothing left corrupt" [] info.Bj.corrupt_blocks;
  check_float "recovered preconditioner is bit-identical" 0.0
    (Vector.max_abs_diff (apply_to_ones clean) (apply_to_ones prot))

let test_bj_recovery_deterministic_across_domains () =
  let a = bj_matrix () in
  let run domains =
    let plan = Fault.Plan.make ~seed:31 ~every:2 () in
    let pool = Vblu_par.Pool.create ~num_domains:domains () in
    Bj.create ~pool ~faults:plan ~abft:true ~recovery:(Bj.Recompute 1)
      ~max_block_size:16 a
  in
  let p1, i1 = run 1 and p2, i2 = run 2 in
  Alcotest.(check (list int)) "recovered blocks identical"
    i1.Bj.recovered_blocks i2.Bj.recovered_blocks;
  check_float "application bit-identical across domain counts" 0.0
    (Vector.max_abs_diff (apply_to_ones p1) (apply_to_ones p2))

let test_bj_degrade_and_fail_policies () =
  let a = bj_matrix () in
  let plan = Fault.Plan.make ~seed:31 ~every:2 () in
  let _, info =
    Bj.create ~faults:plan ~abft:true ~recovery:Bj.Degrade_to_identity
      ~max_block_size:16 a
  in
  Alcotest.(check bool) "degrade reports corrupt blocks" true
    (info.Bj.corrupt_blocks <> []);
  Alcotest.(check bool) "corrupt blocks are degraded" true
    (List.for_all
       (fun b -> List.mem b info.Bj.degraded_blocks)
       info.Bj.corrupt_blocks);
  let plan2 = Fault.Plan.make ~seed:31 ~every:2 () in
  (match
     Bj.create ~faults:plan2 ~abft:true ~recovery:(Bj.Fail : Bj.recovery_policy)
       ~max_block_size:16 a
   with
  | exception Bj.Fault_detected _ -> ()
  | _ -> Alcotest.fail "recovery policy fail did not raise");
  (* Without ABFT the corruption goes undetected — silent data corruption,
     which is exactly what the checksums are for. *)
  let plan3 = Fault.Plan.make ~seed:31 ~every:2 () in
  let silent, sinfo = Bj.create ~faults:plan3 ~max_block_size:16 a in
  Alcotest.(check (list int)) "no detection without abft" []
    sinfo.Bj.corrupt_blocks;
  let clean, _ = Bj.create ~max_block_size:16 a in
  Alcotest.(check bool) "corruption actually landed" true
    (Vector.max_abs_diff (apply_to_ones clean) (apply_to_ones silent) > 0.0)

(* [nb] diagonal blocks [[2, 1], [1, 2]]: symmetric positive definite, so
   every variant, Cholesky's fast path included, factors them cleanly. *)
let pair_blocks nb =
  let m = Matrix.create (2 * nb) (2 * nb) in
  for b = 0 to nb - 1 do
    for r = 0 to 1 do
      for c = 0 to 1 do
        Matrix.unsafe_set m ((b * 2) + r) ((b * 2) + c)
          (if r = c then 2.0 else 1.0)
      done
    done
  done;
  Vblu_sparse.Csr.of_dense m

(* A zeroed factor entry can zero a pivot, so the ABFT check's own solve
   breaks down.  That must read as a failed check, for every variant:
   recompute repairs every fired fault and [Fail] names a block, where the
   LU check once let [Error.Singular] escape the setup. *)
let test_bj_zeroed_entry_every_variant () =
  let s = 2 and nb = 16 in
  let a = pair_blocks nb in
  let blocking = Vblu_precond.Supervariable.uniform ~n:(s * nb) ~block_size:s in
  let plan () =
    Fault.Plan.make ~seed:1 ~every:1 ~kind:(Fault.Set_value 0.0) ()
  in
  List.iter
    (fun (name, variant) ->
      let create ?faults ?abft ?recovery () =
        Bj.create ~variant ?faults ?abft ?recovery ~blocking a
      in
      let clean, _ = create () in
      let prot, info =
        create ~faults:(plan ()) ~abft:true ~recovery:(Bj.Recompute 1) ()
      in
      Alcotest.(check (list int)) (name ^ ": nothing left corrupt") []
        info.Bj.corrupt_blocks;
      Alcotest.(check bool) (name ^ ": faults recovered") true
        (info.Bj.recovered_blocks <> []);
      check_float (name ^ ": recovered apply is bit-identical") 0.0
        (Vector.max_abs_diff (apply_to_ones clean) (apply_to_ones prot));
      match create ~faults:(plan ()) ~abft:true ~recovery:Bj.Fail () with
      | exception Bj.Fault_detected _ -> ()
      | _ -> Alcotest.failf "%s: recovery policy fail did not raise" name)
    [
      ("lu", Bj.Lu);
      ("gh", Bj.Gh);
      ("ght", Bj.Ght);
      ("gje", Bj.Gje_inverse);
      ("cholesky", Bj.Cholesky);
    ]

(* Without ABFT nothing checks the factors, but a zero on the factor
   diagonal an apply divides by is still a breakdown: the breakdown
   policy settles it, as it does a singular block, and no apply raises.
   The zeroed blocks are those whose site lands on the diagonal. *)
let test_bj_zeroed_pivot_without_abft () =
  let nb = 16 in
  let a = pair_blocks nb in
  let blocking = Vblu_precond.Supervariable.uniform ~n:(2 * nb) ~block_size:2 in
  let plan () =
    Fault.Plan.make ~seed:1 ~every:1 ~kind:(Fault.Set_value 0.0) ()
  in
  let zeroed =
    List.filter
      (fun i ->
        List.exists
          (fun (site : Fault.site) ->
            site.Fault.lane mod 2 = site.Fault.step mod 2)
          (Fault.Plan.sites_for (plan ()) ~problem:i ~size:2))
      (List.init nb Fun.id)
  in
  Alcotest.(check bool) "some blocks zeroed, not all" true
    (zeroed <> [] && List.length zeroed < nb);
  List.iter
    (fun (name, variant) ->
      let create policy =
        Bj.create ~variant ~policy ~faults:(plan ()) ~blocking a
      in
      let finite p = Array.for_all Float.is_finite (apply_to_ones p) in
      let p, info = create Bj.Identity_block in
      Alcotest.(check (list int)) (name ^ ": identity degrades them") zeroed
        info.Bj.degraded_blocks;
      Alcotest.(check bool) (name ^ ": identity apply") true (finite p);
      let p, info = create (Bj.Perturb 1e-3) in
      Alcotest.(check (list int)) (name ^ ": perturb shifts them") zeroed
        info.Bj.perturbed_blocks;
      Alcotest.(check (list int)) (name ^ ": perturb degrades none") []
        info.Bj.degraded_blocks;
      Alcotest.(check bool) (name ^ ": perturb apply") true (finite p);
      match create Bj.Fail with
      | exception Bj.Singular_block { block; _ } ->
        Alcotest.(check int) (name ^ ": fail names the first") (List.hd zeroed)
          block
      | _ -> Alcotest.failf "%s: breakdown policy fail did not raise" name)
    [ ("lu", Bj.Lu); ("gh", Bj.Gh); ("ght", Bj.Ght); ("cholesky", Bj.Cholesky) ]

(* ------------------------------------------------------------------ *)
(* Block-ILU(0) recovery                                               *)

module Bi = Vblu_precond.Block_ilu0

(* Block-ILU(0) and RAS settle their diagonal blocks by block-Jacobi's
   rule, faults before breakdowns: a zeroed factor entry is a detected
   fault, so [Recompute 1] recovers it bitwise, [Degrade_to_identity]
   leaves it corrupt, and recovery [Fail] raises [Fault_detected]. *)
let test_ilu0_zeroed_entry_policies () =
  let s = 2 in
  let a = pair_blocks 4 in
  let families =
    [
      ( "block-ilu0",
        fun faults recovery ->
          let p, info =
            Bi.create ?faults ~abft:true ~recovery ~max_block_size:s a
          in
          (p, [ info ]) );
      ( "ras-ilu0",
        fun faults recovery ->
          let p, info =
            Bi.ras ?faults ~abft:true ~recovery ~max_block_size:s
              ~subdomains:2 ~overlap:2 a
          in
          (p, Array.to_list info.Bi.local_info) );
    ]
  in
  let plan () =
    Some (Fault.Plan.make ~seed:2 ~every:2 ~kind:(Fault.Set_value 0.0) ())
  in
  let count f infos =
    List.fold_left (fun n i -> n + List.length (f i)) 0 infos
  in
  List.iter
    (fun (name, build) ->
      let clean, _ = build None (Bj.Recompute 1) in
      let prot, infos = build (plan ()) (Bj.Recompute 1) in
      Alcotest.(check bool) (name ^ ": recompute recovers") true
        (count (fun i -> i.Bi.recovered_blocks) infos > 0);
      Alcotest.(check int) (name ^ ": recompute degrades nothing") 0
        (count (fun i -> i.Bi.degraded_blocks) infos);
      check_float (name ^ ": recovered apply is bit-identical") 0.0
        (Vector.max_abs_diff (apply_to_ones clean) (apply_to_ones prot));
      let _, infos = build (plan ()) Bj.Degrade_to_identity in
      Alcotest.(check bool) (name ^ ": degrade leaves blocks corrupt") true
        (count (fun i -> i.Bi.corrupt_blocks) infos > 0);
      Alcotest.(check int) (name ^ ": degrade recovers nothing") 0
        (count (fun i -> i.Bi.recovered_blocks) infos);
      match build (plan ()) Bj.Fail with
      | exception Bj.Fault_detected { variant = Bj.Lu; _ } -> ()
      | _ -> Alcotest.failf "%s: recovery policy fail did not raise" name)
    families

(* ------------------------------------------------------------------ *)
(* Krylov soft-error guard                                             *)

let test_guard_recovers_poisoned_precond () =
  let a = Vblu_workloads.Generators.laplacian_2d ~nx:12 ~ny:12 () in
  let n, _ = Vblu_sparse.Csr.dims a in
  let b = Array.make n 1.0 in
  let good () = fst (Bj.create ~max_block_size:8 a) in
  let poisoned =
    (* A corrupted operator: scales like M⁻¹ but injects a NaN, the way an
       undetected factor corruption surfaces mid-solve. *)
    let g = good () in
    {
      g with
      Vblu_precond.Preconditioner.apply =
        (fun r ->
          let z = g.Vblu_precond.Preconditioner.apply r in
          z.(0) <- Float.nan;
          z);
    }
  in
  let x, stats =
    Vblu_krylov.Idr.solve ~precond:poisoned ~refresh_precond:good ~s:2 a b
  in
  Alcotest.(check bool) "guarded solve converges" true
    (Vblu_krylov.Solver.converged stats);
  Alcotest.(check bool) "solution is finite" true
    (Array.for_all Float.is_finite x);
  (* Without the guard the poisoned operator is fatal. *)
  let _, unguarded = Vblu_krylov.Idr.solve ~precond:poisoned ~s:2 a b in
  Alcotest.(check bool) "unguarded solve fails" false
    (Vblu_krylov.Solver.converged unguarded)

let test_guard_absent_is_bit_identical () =
  let a = Vblu_workloads.Generators.laplacian_2d ~nx:10 ~ny:10 () in
  let n, _ = Vblu_sparse.Csr.dims a in
  let b = Array.make n 1.0 in
  let precond = fst (Bj.create ~max_block_size:8 a) in
  let x1, s1 = Vblu_krylov.Idr.solve ~precond ~s:4 a b in
  (* Arming the guard on a healthy solve must not change a single bit:
     guard checks only read the residual norm. *)
  let x2, s2 =
    Vblu_krylov.Idr.solve ~precond
      ~refresh_precond:(fun () -> fst (Bj.create ~max_block_size:8 a))
      ~s:4 a b
  in
  check_float "same solution" 0.0 (Vector.max_abs_diff x1 x2);
  Alcotest.(check int) "same iterations" s1.Vblu_krylov.Solver.iterations
    s2.Vblu_krylov.Solver.iterations

(* ------------------------------------------------------------------ *)
(* Config validation (satellite)                                       *)

let test_config_validate () =
  let p = Config.p100 in
  Alcotest.(check string) "p100 is valid" p.Config.name
    (Config.validate p).Config.name;
  let rejects field mutate =
    match Config.validate (mutate p) with
    | _ -> Alcotest.failf "validate accepted bad %s" field
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error names %s" field)
        true
        (String.length msg > 0)
  in
  rejects "warp_size" (fun p -> { p with Config.warp_size = 16 });
  rejects "num_sms" (fun p -> { p with Config.num_sms = 0 });
  rejects "clock_ghz" (fun p -> { p with Config.clock_ghz = -1.0 });
  rejects "mem_efficiency" (fun p -> { p with Config.mem_efficiency = 1.5 });
  rejects "max_issue_efficiency" (fun p ->
      { p with Config.max_issue_efficiency = 0.0 });
  rejects "launch_overhead_us" (fun p ->
      { p with Config.launch_overhead_us = -0.1 })

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let qcheck_tests =
  [
    (* ISSUE acceptance: a clean QCheck sweep must produce zero false
       positives under ABFT. *)
    QCheck.Test.make ~count:60 ~name:"abft: no false positives on clean lu"
      QCheck.(pair (int_bound 10_000) (int_range 1 32))
      (fun (seed, n) ->
        let st = state seed in
        let b = Batch.of_matrices [| Matrix.random_general ~state:st n |] in
        let r = Batched_lu.factor ~abft:true b in
        match r.Batched_lu.verdicts.(0) with
        | Fault.Failed -> false
        | Fault.Passed -> true
        | Fault.Unchecked -> r.Batched_lu.info.(0) <> 0);
    QCheck.Test.make ~count:60 ~name:"abft: no false positives on clean trsv"
      QCheck.(pair (int_bound 10_000) (int_range 1 32))
      (fun (seed, n) ->
        let st = state seed in
        let b = Batch.of_matrices [| Matrix.random_general ~state:st n |] in
        let rhs = Batch.vec_random ~state:st b.Batch.sizes in
        let f = Batched_lu.factor b in
        let r =
          Batched_trsv.solve ~abft:true ~factors:f.Batched_lu.factors
            ~pivots:f.Batched_lu.pivots rhs
        in
        match r.Batched_trsv.verdicts.(0) with
        | Fault.Failed -> false
        | Fault.Passed -> true
        | Fault.Unchecked -> r.Batched_trsv.info.(0) <> 0);
    (* Satellite: Counter.add round-merging — gmem_rounds aggregates with
       max (critical-path depth), every other field sums. *)
    QCheck.Test.make ~count:200 ~name:"counter.add: rounds max, rest sum"
      QCheck.(
        pair
          (array_of_size (Gen.return 9) pos_float)
          (pair (int_bound 1000) (int_bound 1000)))
      (fun (fs, (r1, r2)) ->
        QCheck.assume (Array.length fs = 9);
        let mk f0 rounds =
          let c = Counter.create () in
          c.Counter.fma_instrs <- fs.(0) +. f0;
          c.Counter.div_instrs <- fs.(1) +. f0;
          c.Counter.shfl_instrs <- fs.(2) +. f0;
          c.Counter.smem_accesses <- fs.(3) +. f0;
          c.Counter.gmem_instrs <- fs.(4) +. f0;
          c.Counter.gmem_transactions <- fs.(5) +. f0;
          c.Counter.gmem_bytes <- fs.(6) +. f0;
          c.Counter.gmem_elems <- fs.(7) +. f0;
          c.Counter.useful_flops <- fs.(8) +. f0;
          c.Counter.gmem_rounds <- rounds;
          c
        in
        let acc = mk 0.0 r1 in
        let x = mk 1.0 r2 in
        Counter.add acc x;
        (* Each summed field must equal acc0 + x0 evaluated in the same
           order [add] uses, so the check is exact, not tolerance-based. *)
        let sums i = fs.(i) +. (fs.(i) +. 1.0) in
        acc.Counter.gmem_rounds = max r1 r2
        && acc.Counter.fma_instrs = sums 0
        && acc.Counter.div_instrs = sums 1
        && acc.Counter.shfl_instrs = sums 2
        && acc.Counter.smem_accesses = sums 3
        && acc.Counter.gmem_instrs = sums 4
        && acc.Counter.gmem_transactions = sums 5
        && acc.Counter.gmem_bytes = sums 6
        && acc.Counter.gmem_elems = sums 7
        && acc.Counter.useful_flops = sums 8);
    (* Fault plans are pure: two plans from the same spec place identical
       sites everywhere. *)
    QCheck.Test.make ~count:100 ~name:"plan sites are a pure function"
      QCheck.(
        triple (int_bound 1000) (int_range 1 8) (pair (int_bound 63) (int_range 1 32)))
      (fun (seed, every, (problem, size)) ->
        let p1 = Fault.Plan.make ~seed ~every ()
        and p2 = Fault.Plan.make ~seed ~every () in
        Fault.Plan.sites_for p1 ~problem ~size
        = Fault.Plan.sites_for p2 ~problem ~size);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "spec errors" `Quick test_spec_errors;
          Alcotest.test_case "sites deterministic + clamped" `Quick
            test_sites_deterministic_and_clamped;
          Alcotest.test_case "one-shot claims" `Quick test_one_shot_claim;
          Alcotest.test_case "corruption kinds" `Quick test_corrupt_kinds;
        ] );
      ( "batched-lu",
        [
          Alcotest.test_case "clean batch passes" `Quick
            test_lu_abft_clean_batch;
          Alcotest.test_case "planted faults flagged exactly" `Quick
            test_lu_detects_planted_faults;
          Alcotest.test_case "one-shot retry runs clean" `Quick
            test_lu_one_shot_retry_runs_clean;
          Alcotest.test_case "empty plan is zero impact" `Quick
            test_lu_disabled_injection_zero_impact;
          Alcotest.test_case "deterministic across domains" `Quick
            test_lu_fault_deterministic_across_domains;
        ] );
      ( "batched-trsv",
        [
          Alcotest.test_case "clean + planted" `Quick
            test_trsv_abft_clean_and_planted;
        ] );
      ( "batched-gh",
        [
          Alcotest.test_case "factor clean + planted" `Quick
            test_gh_abft_clean_and_planted;
          Alcotest.test_case "solve DMR" `Quick test_gh_solve_dmr;
        ] );
      ( "block-jacobi",
        [
          Alcotest.test_case "recompute restores factors" `Quick
            test_bj_recompute_restores_factors;
          Alcotest.test_case "deterministic across domains" `Quick
            test_bj_recovery_deterministic_across_domains;
          Alcotest.test_case "degrade and fail policies" `Quick
            test_bj_degrade_and_fail_policies;
          Alcotest.test_case "zeroed entry, every variant" `Quick
            test_bj_zeroed_entry_every_variant;
          Alcotest.test_case "zeroed pivot without abft" `Quick
            test_bj_zeroed_pivot_without_abft;
        ] );
      ( "block-ilu0",
        [
          Alcotest.test_case "zeroed entry, recovery policies" `Quick
            test_ilu0_zeroed_entry_policies;
        ] );
      ( "krylov-guard",
        [
          Alcotest.test_case "recovers a poisoned precond" `Quick
            test_guard_recovers_poisoned_precond;
          Alcotest.test_case "absent guard is bit-identical" `Quick
            test_guard_absent_is_bit_identical;
        ] );
      ( "config",
        [ Alcotest.test_case "validate" `Quick test_config_validate ] );
      ("properties", qcheck_tests);
    ]
