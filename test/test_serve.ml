(* Tests for the service layer: the injectable clock, the robustness
   policies (backoff, breaker), the bounded priority queue, labelled
   metrics and cache gauges, coalesced-batch bit-identity against direct
   block-Jacobi, and the composition of breakdown + fault-retry +
   deadline-shedding on one shared batch — everything checked across
   domain counts, since the service's whole schedule must be a pure
   function of the submitted work. *)

open Vblu_smallblas
open Vblu_sparse
open Vblu_serve
module Metrics = Vblu_obs.Metrics
module Generators = Vblu_workloads.Generators
module Bj = Vblu_precond.Block_jacobi
module Fault = Vblu_fault.Fault

let pool1 = Vblu_par.Pool.sequential
let pool2 = Vblu_par.Pool.create ~num_domains:2 ()
let pool4 = Vblu_par.Pool.create ~num_domains:4 ()
let pools = [ (1, pool1); (2, pool2); (4, pool4) ]

let state seed = Random.State.make [| 0x5e27e; seed |]

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)

let test_clock () =
  let c = Clock.manual () in
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Clock.now c);
  Clock.advance c 1.5;
  Clock.advance c 0.25;
  Alcotest.(check (float 1e-12)) "advances" 1.75 (Clock.now c);
  Alcotest.check_raises "negative dt"
    (Invalid_argument "Clock.advance: negative or non-finite delta") (fun () ->
      Clock.advance c (-1.0))

(* ------------------------------------------------------------------ *)
(* Policy: backoff + breaker                                           *)

let test_backoff () =
  let r = Policy.default_retry in
  let b1 = Policy.backoff r ~seed:1 ~request:5 ~attempt:1 in
  let b1' = Policy.backoff r ~seed:1 ~request:5 ~attempt:1 in
  Alcotest.(check (float 0.0)) "deterministic" b1 b1';
  Alcotest.(check bool) "within jitter envelope" true
    (b1 >= r.Policy.base_delay
    && b1 <= r.Policy.base_delay *. (1.0 +. r.Policy.jitter));
  let b3 = Policy.backoff r ~seed:1 ~request:5 ~attempt:3 in
  Alcotest.(check bool) "grows exponentially" true
    (b3 >= r.Policy.base_delay *. (r.Policy.factor ** 2.0));
  let other = Policy.backoff r ~seed:1 ~request:6 ~attempt:1 in
  Alcotest.(check bool) "jitter decorrelates requests" true (b1 <> other);
  Alcotest.check_raises "attempt >= 1"
    (Invalid_argument "Policy.backoff: attempt must be >= 1") (fun () ->
      ignore (Policy.backoff r ~seed:0 ~request:0 ~attempt:0))

let test_breaker () =
  let b =
    Policy.breaker { Policy.high_watermark = 0.5; trip_after = 2; cool_down = 2 }
  in
  let note p = Policy.breaker_note b ~pressure:p in
  Alcotest.(check string) "stays closed on one hot window" "closed"
    (Policy.state_name (note 0.9));
  Alcotest.(check string) "calm resets the streak" "closed"
    (Policy.state_name (note 0.1));
  ignore (note 0.9);
  Alcotest.(check string) "trips after consecutive hot windows" "open"
    (Policy.state_name (note 0.9));
  ignore (note 0.1);
  Alcotest.(check string) "cools down to half-open" "half-open"
    (Policy.state_name (note 0.1));
  Alcotest.(check string) "half-open reopens on a hot probe" "open"
    (Policy.state_name (note 0.9));
  ignore (note 0.1);
  ignore (note 0.1);
  Alcotest.(check string) "half-open closes on a calm probe" "closed"
    (Policy.state_name (note 0.1))

(* ------------------------------------------------------------------ *)
(* Queue                                                               *)

let test_queue () =
  let q = Queue.create ~capacity:3 in
  Alcotest.(check bool) "accepts" true (Queue.submit q ~priority:Policy.Best_effort "b1");
  Alcotest.(check bool) "accepts" true (Queue.submit q ~priority:Policy.Interactive "i1");
  Alcotest.(check bool) "accepts" true (Queue.submit q ~priority:Policy.Standard "s1");
  Alcotest.(check bool) "bounded" false (Queue.submit q ~priority:Policy.Interactive "i2");
  Alcotest.(check (option string)) "oldest is first submitted" (Some "b1")
    (Queue.oldest q);
  Alcotest.(check (list string)) "drains in priority order"
    [ "i1"; "s1"; "b1" ]
    (Queue.drain q ~max:10);
  Alcotest.(check int) "empty after drain" 0 (Queue.length q);
  ignore (Queue.submit q ~priority:Policy.Standard "a");
  ignore (Queue.submit q ~priority:Policy.Interactive "b");
  ignore (Queue.submit q ~priority:Policy.Standard "c");
  let evicted = Queue.reject_if q (fun s -> s <> "b") in
  Alcotest.(check (list string)) "reject_if returns submission order"
    [ "a"; "c" ] evicted;
  Alcotest.(check (list string)) "survivors intact" [ "b" ]
    (Queue.drain q ~max:10)

(* ------------------------------------------------------------------ *)
(* Labelled metrics (satellite: registry labels)                       *)

let test_labelled_metrics () =
  Alcotest.(check string) "sorts label keys" "req{a=1,b=2}"
    (Metrics.labelled "req" [ ("b", "2"); ("a", "1") ]);
  Alcotest.(check string) "no labels = bare name" "req"
    (Metrics.labelled "req" []);
  (try
     ignore (Metrics.labelled "x" [ ("k", "v,w") ]);
     Alcotest.fail "accepted a comma in a label value"
   with Invalid_argument _ -> ());
  (try
     ignore (Metrics.labelled "x" [ ("k", "1"); ("k", "2") ]);
     Alcotest.fail "accepted duplicate label keys"
   with Invalid_argument _ -> ());
  let m = Metrics.create () in
  Metrics.incr_l m "serve.completed" [ ("tenant", "alpha") ] 1.0;
  Metrics.incr_l m "serve.completed" [ ("tenant", "beta") ] 2.0;
  Metrics.incr_l m "serve.completed" [ ("tenant", "alpha") ] 1.0;
  Alcotest.(check (float 0.0)) "labelled counters are distinct" 2.0
    (Metrics.counter_value m "serve.completed{tenant=alpha}");
  Alcotest.(check (float 0.0)) "other tenant" 2.0
    (Metrics.counter_value m "serve.completed{tenant=beta}")

(* ------------------------------------------------------------------ *)
(* Launch cache gauges (satellite: cache observability)                *)

let test_cache_gauges () =
  let module Launch = Vblu_simt.Launch in
  (* Provoke at least one launch so the tallies are meaningful. *)
  let batch =
    Vblu_core.Batch.random_diagdom (Vblu_core.Batch.uniform_sizes ~count:4 ~size:8)
  in
  ignore (Vblu_core.Batched_lu.factor batch);
  let m = Metrics.create () in
  Launch.Cache.export_gauges m;
  let gauge name =
    match List.assoc_opt name (Metrics.snapshot m) with
    | Some (Metrics.Gauge v) -> v
    | _ -> Alcotest.failf "gauge %s missing" name
  in
  let hits, misses = Launch.Cache.stats () in
  Alcotest.(check (float 0.0)) "hits gauge" (float_of_int hits)
    (gauge "launch.cache.hits");
  Alcotest.(check (float 0.0)) "misses gauge" (float_of_int misses)
    (gauge "launch.cache.misses");
  Alcotest.(check (float 0.0)) "direct gauge"
    (float_of_int (Launch.Cache.direct_hits ()))
    (gauge "launch.cache.direct_hits");
  Alcotest.(check (float 0.0)) "entries gauge"
    (float_of_int (Launch.Cache.entries ()))
    (gauge "launch.cache.entries");
  let rate = gauge "launch.cache.hit_rate" in
  Alcotest.(check bool) "hit rate in [0,1]" true (rate >= 0.0 && rate <= 1.0)

(* ------------------------------------------------------------------ *)
(* Tenant accounting                                                   *)

let test_tenant () =
  let t = Tenant.create () in
  let m = Metrics.create () in
  let obs = Some (Vblu_obs.Ctx.v ~metrics:m ()) in
  Tenant.note t ~obs ~tenant:"a" Tenant.Submitted;
  Tenant.note t ~obs ~tenant:"a" Tenant.Completed;
  Tenant.note t ~obs ~tenant:"b" Tenant.Submitted;
  Tenant.note t ~obs ~tenant:"b" Tenant.Rejected;
  let ca = Tenant.counts t "a" in
  Alcotest.(check int) "a submitted" 1 ca.Tenant.submitted;
  Alcotest.(check int) "a completed" 1 ca.Tenant.completed;
  let tot = Tenant.totals t in
  Alcotest.(check int) "totals submitted" 2 tot.Tenant.submitted;
  Alcotest.(check int) "totals rejected" 1 tot.Tenant.rejected;
  Alcotest.(check (list string)) "snapshot sorted" [ "a"; "b" ]
    (List.map fst (Tenant.snapshot t));
  Alcotest.(check (float 0.0)) "labelled counter emitted" 1.0
    (Metrics.counter_value m "serve.submitted{tenant=a}");
  Alcotest.(check int) "unknown tenant is zero" 0
    (Tenant.counts t "nope").Tenant.submitted

(* ------------------------------------------------------------------ *)
(* Batcher: coalesced launch == direct block-Jacobi, bitwise           *)

let random_problem st =
  let blocks = 2 + Random.State.int st 4 in
  let block_size = 3 + Random.State.int st 14 in
  let a = Generators.block_tridiagonal ~state:st ~blocks ~block_size () in
  let n, _ = Csr.dims a in
  let rhs = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
  { Batcher.a; rhs; max_block_size = 32; precond = Batcher.Jacobi }

let direct_solve (p : Batcher.problem) =
  match p.Batcher.precond with
  | Batcher.Jacobi ->
    let bj, _ =
      Bj.create ~variant:Bj.Lu ~max_block_size:p.Batcher.max_block_size
        p.Batcher.a
    in
    bj.Vblu_precond.Preconditioner.apply p.Batcher.rhs
  | Batcher.Ilu0 ->
    let bi, _ =
      Vblu_precond.Block_ilu0.create ~max_block_size:p.Batcher.max_block_size
        p.Batcher.a
    in
    bi.Vblu_precond.Preconditioner.apply p.Batcher.rhs

let test_batcher_bit_identity () =
  let st = state 11 in
  let problems = Array.init 6 (fun _ -> random_problem st) in
  let expected = Array.map direct_solve problems in
  List.iter
    (fun (d, pool) ->
      let report = Batcher.run ~pool problems in
      Alcotest.(check int) "problem count" 6 report.Batcher.problems;
      Alcotest.(check bool) "coalesces more blocks than problems" true
        (report.Batcher.coalesced_blocks > 6);
      Array.iteri
        (fun i o ->
          Alcotest.(check bool)
            (Printf.sprintf "problem %d bit-identical (domains %d)" i d)
            true
            (o.Batcher.y = expected.(i)))
        report.Batcher.outcomes)
    pools

(* A matrix whose single diagonal block is exactly singular: rows 0 and 1
   share the column pattern {0,1}, so supervariable blocking fuses them
   into one rank-1 2x2 block. *)
let singular_problem () =
  let a = Csr.of_dense (Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |]) in
  { Batcher.a; rhs = [| 3.0; -1.5 |]; max_block_size = 32;
    precond = Batcher.Jacobi }

let test_batcher_breakdown () =
  let st = state 13 in
  let clean = random_problem st in
  let expected = direct_solve clean in
  let report = Batcher.run [| singular_problem (); clean |] in
  let bad = report.Batcher.outcomes.(0) and good = report.Batcher.outcomes.(1) in
  Alcotest.(check (list int)) "singular block degraded" [ 0 ]
    bad.Batcher.degraded_blocks;
  Alcotest.(check bool) "degraded block = identity on rhs" true
    (bad.Batcher.y = [| 3.0; -1.5 |]);
  Alcotest.(check (list int)) "batchmate untouched" [] good.Batcher.degraded_blocks;
  Alcotest.(check bool) "batchmate bitwise clean" true (good.Batcher.y = expected)

(* A mixed wave: ILU0 requests route through their own batched
   block-ILU(0) setup+apply, Jacobi batchmates still coalesce — and both
   come back bitwise equal to their direct solves. *)
let test_batcher_mixed_families () =
  let st = state 29 in
  let problems =
    Array.init 6 (fun i ->
        let p = random_problem st in
        if i mod 2 = 1 then { p with Batcher.precond = Batcher.Ilu0 } else p)
  in
  let expected = Array.map direct_solve problems in
  List.iter
    (fun (d, pool) ->
      let report = Batcher.run ~pool problems in
      Alcotest.(check int) "problem count" 6 report.Batcher.problems;
      Array.iteri
        (fun i o ->
          Alcotest.(check bool)
            (Printf.sprintf "mixed problem %d bit-identical (domains %d)" i d)
            true
            (o.Batcher.y = expected.(i)))
        report.Batcher.outcomes)
    pools

let test_batcher_validate () =
  let p = singular_problem () in
  (match Batcher.validate { p with Batcher.rhs = [| 1.0 |] } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted mismatched rhs");
  (match Batcher.validate { p with Batcher.max_block_size = 33 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted block bound > 32");
  (* Non-finite input is refused up front, naming the first bad entry,
     instead of reaching the kernels. *)
  let nan_matrix =
    Csr.of_dense (Matrix.of_rows [| [| 1.0; 2.0 |]; [| Float.nan; 4.0 |] |])
  in
  Alcotest.(check (result unit string))
    "NaN matrix entry rejected"
    (Error "non-finite matrix entry nan at row 1, column 0")
    (Batcher.validate { p with Batcher.a = nan_matrix });
  Alcotest.(check (result unit string))
    "Inf rhs entry rejected" (Error "non-finite rhs entry inf at index 1")
    (Batcher.validate { p with Batcher.rhs = [| 3.0; Float.infinity |] });
  match Batcher.validate p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejected valid problem: %s" e

(* ------------------------------------------------------------------ *)
(* Service basics                                                      *)

let quick_config =
  {
    Service.default_config with
    Service.capacity = 8;
    max_batch = 4;
    min_fill = 2;
  }

let test_service_completes () =
  let st = state 17 in
  let svc = Service.create quick_config in
  let p = random_problem st in
  let expected = direct_solve p in
  let id = Service.submit svc ~tenant:"t0" p in
  Alcotest.(check bool) "pending before step" true
    (Service.status svc id = Service.Pending);
  Service.drain svc;
  (match Service.status svc id with
  | Service.Completed { y; degraded; demoted; attempts; _ } ->
    Alcotest.(check bool) "bit-identical to direct solve" true (y = expected);
    Alcotest.(check bool) "clean" false degraded;
    Alcotest.(check bool) "not demoted" false demoted;
    Alcotest.(check int) "one launch" 1 attempts
  | _ -> Alcotest.fail "expected completion");
  Alcotest.(check int) "nothing pending" 0 (Service.pending svc)

let test_service_rejects_on_full_queue () =
  let st = state 19 in
  let svc = Service.create { quick_config with Service.capacity = 2 } in
  let ids = Array.init 4 (fun _ -> Service.submit svc (random_problem st)) in
  let rejected =
    Array.to_list ids
    |> List.filter (fun id ->
           match Service.status svc id with
           | Service.Rejected (Service.Queue_full _) -> true
           | _ -> false)
  in
  Alcotest.(check int) "overflow rejected with reason" 2 (List.length rejected);
  Service.drain svc;
  let h = Service.health svc in
  Alcotest.(check int) "conservation: completed" 2
    h.Service.h_totals.Tenant.completed;
  Alcotest.(check int) "conservation: rejected" 2
    h.Service.h_totals.Tenant.rejected

let test_service_rejects_invalid () =
  let svc = Service.create quick_config in
  let id =
    Service.submit svc
      { Batcher.a = Csr.of_dense (Matrix.of_rows [| [| 1.0 |] |]);
        rhs = [| 1.0; 2.0 |]; max_block_size = 32;
        precond = Batcher.Jacobi }
  in
  (match Service.status svc id with
  | Service.Rejected (Service.Invalid_problem _) -> ()
  | _ -> Alcotest.fail "expected invalid-problem rejection");
  let id =
    Service.submit svc
      { (singular_problem ()) with Batcher.rhs = [| Float.neg_infinity; 0.0 |] }
  in
  match Service.status svc id with
  | Service.Rejected (Service.Invalid_problem reason) ->
    Alcotest.(check string) "reason names the entry"
      "non-finite rhs entry -inf at index 0" reason
  | _ -> Alcotest.fail "expected non-finite rejection at submit"

let test_service_sheds_expired () =
  let st = state 23 in
  let svc = Service.create quick_config in
  let live = Service.submit svc (random_problem st) in
  let dead = Service.submit svc ~deadline:(-1.0) (random_problem st) in
  Service.drain svc;
  (match Service.status svc dead with
  | Service.Shed _ -> ()
  | _ -> Alcotest.fail "expected deadline shed");
  match Service.status svc live with
  | Service.Completed _ -> ()
  | _ -> Alcotest.fail "live request should complete"

let test_service_retries_faults () =
  let st = state 29 in
  let p = random_problem st in
  let expected = direct_solve p in
  (* One explicit register fault on the first diagonal block of the first
     (only) request; the claim is one-shot and the retry wave re-indexes,
     so the relaunch runs clean. *)
  let site =
    { Fault.problem = 0; step = 1; lane = 0; target = Fault.Register;
      kind = Fault.Bit_flip 55 }
  in
  let faults = Fault.Plan.make ~every:0 ~at:[ site ] () in
  let svc = Service.create ~faults quick_config in
  let id = Service.submit svc p in
  Service.step ~force:true svc;
  Alcotest.(check bool) "still pending after the faulted launch" true
    (Service.status svc id = Service.Pending);
  let h = Service.health svc in
  Alcotest.(check int) "retry recorded" 1 h.Service.h_totals.Tenant.retried;
  Service.drain svc;
  match Service.status svc id with
  | Service.Completed { y; attempts; _ } ->
    Alcotest.(check int) "completed on the second launch" 2 attempts;
    Alcotest.(check bool) "retried result bit-identical" true (y = expected)
  | _ -> Alcotest.fail "expected completion after retry"

let test_service_fails_after_budget () =
  let st = state 31 in
  let p = random_problem st in
  (* Budget 0 disables retrying outright, so the first fault verdict is
     terminal.  (A nonzero budget cannot be exhausted by a lone request:
     fault-plan claims are one-shot per (problem, step), so its retry
     wave necessarily runs clean — which the retry test above relies
     on.  Exhaustion needs re-faulting across waves, which the CLI
     overload demo exercises with [every=N] plans over many requests.) *)
  let faults = Fault.Plan.make ~seed:3 ~every:1 () in
  let cfg =
    { quick_config with
      Service.retry = { Policy.default_retry with Policy.budget = 0 } }
  in
  let svc = Service.create ~faults cfg in
  let id = Service.submit svc p in
  Service.drain svc;
  match Service.status svc id with
  | Service.Failed { attempts; _ } ->
    Alcotest.(check int) "failed on the first launch" 1 attempts
  | _ -> Alcotest.fail "expected failure with a zero retry budget"

let test_service_breakdown_policies () =
  let st = state 37 in
  let clean = random_problem st in
  let expected = direct_solve clean in
  let svc = Service.create quick_config in
  let id_identity =
    Service.submit svc ~breakdown:Policy.Identity_block (singular_problem ())
  in
  let id_fail =
    Service.submit svc ~breakdown:Policy.Fail_request (singular_problem ())
  in
  let id_clean = Service.submit svc clean in
  Service.drain svc;
  (match Service.status svc id_identity with
  | Service.Completed { y; degraded; _ } ->
    Alcotest.(check bool) "identity policy completes degraded" true degraded;
    Alcotest.(check bool) "identity result = rhs" true (y = [| 3.0; -1.5 |])
  | _ -> Alcotest.fail "identity-policy request should complete");
  (match Service.status svc id_fail with
  | Service.Failed _ -> ()
  | _ -> Alcotest.fail "fail-policy request should fail");
  match Service.status svc id_clean with
  | Service.Completed { y; degraded; _ } ->
    Alcotest.(check bool) "batchmate clean" false degraded;
    Alcotest.(check bool) "batchmate bitwise identical" true (y = expected)
  | _ -> Alcotest.fail "clean batchmate should complete"

(* ------------------------------------------------------------------ *)
(* Composition: breakdown + fault retry + deadline shed on one batch,  *)
(* identical across domain counts (the ISSUE's satellite property)     *)

type probe = {
  p_status : string;
  p_y : float array option;
  p_attempts : int;
}

let probe_of_status = function
  | Service.Pending -> { p_status = "pending"; p_y = None; p_attempts = 0 }
  | Service.Completed { y; degraded; demoted; attempts; _ } ->
    {
      p_status =
        Printf.sprintf "completed(degraded=%b,demoted=%b)" degraded demoted;
      p_y = Some y;
      p_attempts = attempts;
    }
  | Service.Rejected r ->
    { p_status = "rejected:" ^ Service.reject_reason_text r; p_y = None;
      p_attempts = 0 }
  | Service.Shed _ -> { p_status = "shed"; p_y = None; p_attempts = 0 }
  | Service.Failed { attempts; _ } ->
    { p_status = "failed"; p_y = None; p_attempts = attempts }

let composition_run pool =
  let st = state 41 in
  let clean1 = random_problem st in
  let clean2 = random_problem st in
  let faulted = random_problem st in
  (* The faulted request is submitted second: in the first wave it is
     batch problem 1 (the breakdown problem is 0, contributing one
     block), so the explicit site lands on its first diagonal block. *)
  let site =
    { Fault.problem = 1; step = 0; lane = 0; target = Fault.Register;
      kind = Fault.Bit_flip 55 }
  in
  let faults = Fault.Plan.make ~every:0 ~at:[ site ] () in
  let svc = Service.create ~pool ~faults quick_config in
  let id_break =
    Service.submit svc ~breakdown:Policy.Identity_block (singular_problem ())
  in
  let id_fault = Service.submit svc faulted in
  let id_clean1 = Service.submit svc clean1 in
  let id_clean2 = Service.submit svc clean2 in
  let id_dead = Service.submit svc ~deadline:(-1.0) (random_problem st) in
  Service.drain svc;
  let h = Service.health svc in
  ( List.map
      (fun id -> probe_of_status (Service.status svc id))
      [ id_break; id_fault; id_clean1; id_clean2; id_dead ],
    ( h.Service.h_totals,
      (direct_solve clean1, direct_solve clean2, direct_solve faulted) ) )

let test_composition () =
  let runs = List.map (fun (d, pool) -> (d, composition_run pool)) pools in
  let _, (probes1, (totals1, (e1, e2, ef))) = List.hd runs in
  (* The three terminal classes coexist in one drained service... *)
  (match probes1 with
  | [ brk; flt; c1; c2; dead ] ->
    Alcotest.(check string) "breakdown completed degraded"
      "completed(degraded=true,demoted=false)" brk.p_status;
    Alcotest.(check bool) "breakdown result = rhs (identity)" true
      (brk.p_y = Some [| 3.0; -1.5 |]);
    Alcotest.(check string) "faulted completed after retry"
      "completed(degraded=false,demoted=false)" flt.p_status;
    Alcotest.(check int) "faulted took two launches" 2 flt.p_attempts;
    Alcotest.(check bool) "faulted retry is bitwise clean" true
      (flt.p_y = Some ef);
    Alcotest.(check bool) "clean batchmates bitwise untouched" true
      (c1.p_y = Some e1 && c2.p_y = Some e2);
    Alcotest.(check string) "expired request shed" "shed" dead.p_status
  | _ -> Alcotest.fail "probe arity");
  (* ...accounting is exact... *)
  Alcotest.(check int) "conservation" totals1.Tenant.submitted
    (totals1.Tenant.completed + totals1.Tenant.rejected + totals1.Tenant.shed
   + totals1.Tenant.failed);
  (* ...and the whole transcript is identical for every domain count. *)
  List.iter
    (fun (d, (probes, (totals, _))) ->
      Alcotest.(check bool)
        (Printf.sprintf "statuses identical at %d domains" d)
        true
        (probes = probes1);
      Alcotest.(check bool)
        (Printf.sprintf "totals identical at %d domains" d)
        true (totals = totals1))
    (List.tl runs)

(* ------------------------------------------------------------------ *)
(* Setup cache: recurring requests reuse setup, bit-identically        *)

(* Drift only the last stored entry (it lives in the last block row):
   earlier blocks stay bitwise current, so both families — including
   ILU0, whose dirty closure propagates downstream only — must reuse
   some cached setup on the recurring wave. *)
let drift_values (p : Batcher.problem) =
  let a = p.Batcher.a in
  let values = Array.copy a.Csr.values in
  let last = Array.length values - 1 in
  values.(last) <- values.(last) *. 1.001;
  let a' =
    Csr.create ~n_rows:a.Csr.n_rows ~n_cols:a.Csr.n_cols
      ~row_ptr:(Array.copy a.Csr.row_ptr) ~col_idx:(Array.copy a.Csr.col_idx)
      ~values
  in
  { p with Batcher.a = a' }

let test_setup_cache_recurring family =
  let st = state 41 in
  let p0 =
    match family with
    | Batcher.Jacobi -> random_problem st
    | Batcher.Ilu0 -> { (random_problem st) with Batcher.precond = Batcher.Ilu0 }
  in
  let svc =
    Service.create { quick_config with Service.setup_cache = true }
  in
  let id0 = Service.submit svc p0 in
  Service.drain svc;
  let fresh_cold = (Service.health svc).Service.h_setup_fresh_blocks in
  let p1 = drift_values p0 in
  let id1 = Service.submit svc p1 in
  Service.drain svc;
  let check id p =
    match Service.status svc id with
    | Service.Completed { y; _ } ->
      Alcotest.(check bool) "bit-identical to direct solve" true
        (y = direct_solve p)
    | _ -> Alcotest.fail "expected completion"
  in
  check id0 p0;
  check id1 p1;
  let h = Service.health svc in
  Alcotest.(check bool) "second wave reused cached setup" true
    (h.Service.h_setup_reused_blocks > 0);
  Alcotest.(check bool) "recurring wave factored fewer blocks than cold" true
    (h.Service.h_setup_fresh_blocks < 2 * fresh_cold)

let test_setup_cache_jacobi () = test_setup_cache_recurring Batcher.Jacobi
let test_setup_cache_ilu0 () = test_setup_cache_recurring Batcher.Ilu0

(* With no recurring requests the cache must be inert: the report
   checksum (latencies included) matches the uncached run bit for bit —
   for ILU(0) traffic too, under [quick_config]'s ABFT. *)
let test_setup_cache_inert_without_repeats () =
  List.iter
    (fun ilu0_share ->
      let spec =
        { Loadgen.default_spec with
          Loadgen.requests = 30; deadline_windows = 8.0; ilu0_share }
      in
      let off = Loadgen.run ~config:quick_config spec in
      let on_ =
        Loadgen.run
          ~config:{ quick_config with Service.setup_cache = true }
          spec
      in
      Alcotest.(check string)
        (Printf.sprintf "checksums equal (ilu0 share %g)" ilu0_share)
        (Loadgen.checksum off) (Loadgen.checksum on_))
    [ 0.0; 0.3 ]

(* A traced wave records each [precond.setup.*] event once: a cached
   ILU(0) build counts each of its block rows once as fresh. *)
let test_setup_metrics_counted_once () =
  let p = { (random_problem (state 47)) with Batcher.precond = Batcher.Ilu0 } in
  let metrics = Metrics.create () in
  let obs = Vblu_obs.Ctx.v ~trace:(Vblu_obs.Trace.create ()) ~metrics () in
  let r = Batcher.run ~cache:(Setup_cache.create ()) ~obs [| p |] in
  Alcotest.(check (float 0.0)) "fresh block rows"
    (float_of_int r.Batcher.coalesced_blocks)
    (Metrics.counter_value metrics "precond.setup.fresh{family=ilu0}")

let test_loadgen_repeat_share () =
  let spec =
    {
      Loadgen.default_spec with
      Loadgen.requests = 60;
      deadline_windows = 10.0;
      ilu0_share = 0.2;
      repeat_share = 0.3;
    }
  in
  let cached =
    Loadgen.run ~config:{ quick_config with Service.setup_cache = true } spec
  in
  Alcotest.(check bool) "accounted" true cached.Loadgen.accounted;
  Alcotest.(check bool) "verified bit-identical" true cached.Loadgen.verified;
  let uncached = Loadgen.run ~config:quick_config spec in
  Alcotest.(check bool) "uncached verified too" true uncached.Loadgen.verified;
  Alcotest.(check int) "same completions" uncached.Loadgen.completed
    cached.Loadgen.completed;
  (* Repeats must leave the non-repeat prefix of the stream untouched:
     share 0 reproduces the baseline stream. *)
  let baseline =
    Loadgen.run ~config:quick_config
      { spec with Loadgen.repeat_share = 0.0 }
  in
  Alcotest.(check bool) "baseline verified" true baseline.Loadgen.verified

(* A recurring singular request keeps its identity fallback from the
   cache: the second wave factors nothing, and returns the same [y] and
   degraded blocks as the first. *)
let test_setup_cache_singular_recurring () =
  let cache = Setup_cache.create () in
  let r1 = Batcher.run ~cache [| singular_problem () |] in
  let r2 = Batcher.run ~cache [| singular_problem () |] in
  let o1 = r1.Batcher.outcomes.(0) and o2 = r2.Batcher.outcomes.(0) in
  Alcotest.(check bool) "same y" true (o1.Batcher.y = o2.Batcher.y);
  Alcotest.(check (list int)) "degraded both times" o1.Batcher.degraded_blocks
    o2.Batcher.degraded_blocks;
  Alcotest.(check (list int))
    "block 0 degraded" [ 0 ] o2.Batcher.degraded_blocks;
  Alcotest.(check int) "no fresh blocks on the second wave" 0
    r2.Batcher.setup_fresh_blocks;
  Alcotest.(check int) "the block is reused" 1 r2.Batcher.setup_reused_blocks

(* A tenant recurring twice in one wave: both occurrences are diffed
   against the cached setup, so only the drifted block refactors, and
   the wave's last occurrence owns the entry afterwards. *)
let test_setup_cache_repeat_in_wave () =
  let p = random_problem (state 43) in
  let p' = drift_values p in
  let cache = Setup_cache.create () in
  let r1 = Batcher.run ~cache [| p |] in
  let k = r1.Batcher.coalesced_blocks in
  let r2 = Batcher.run ~cache [| p; p' |] in
  Alcotest.(check bool) "bit-identical to direct solves" true
    (r2.Batcher.outcomes.(0).Batcher.y = direct_solve p
    && r2.Batcher.outcomes.(1).Batcher.y = direct_solve p');
  Alcotest.(check int) "only the drifted block refactors" 1
    r2.Batcher.setup_fresh_blocks;
  Alcotest.(check int) "everything else reused" ((2 * k) - 1)
    r2.Batcher.setup_reused_blocks;
  let r3 = Batcher.run ~cache [| p' |] in
  Alcotest.(check int) "the last occurrence owns the entry" 0
    r3.Batcher.setup_fresh_blocks

(* The cache holds 256 fingerprints and evicts the oldest first: after
   257 distinct patterns (diagonal matrices of orders 1..257) the first
   is gone and the second is still found. *)
let test_setup_cache_fifo_eviction () =
  let diag n =
    Csr.create ~n_rows:n ~n_cols:n ~row_ptr:(Array.init (n + 1) Fun.id)
      ~col_idx:(Array.init n Fun.id) ~values:(Array.make n 2.0)
  in
  let h = Vblu_precond.Block_jacobi.handle ~max_block_size:1 (diag 1) in
  let cache = Setup_cache.create () in
  let found n =
    Setup_cache.find cache Setup_cache.Jacobi ~a:(diag n) ~max_block_size:1
    <> None
  in
  for n = 1 to 257 do
    Setup_cache.store cache Setup_cache.Jacobi ~a:(diag n) ~max_block_size:1 h
  done;
  Alcotest.(check bool) "first pattern evicted" false (found 1);
  Alcotest.(check bool) "second pattern kept" true (found 2);
  Alcotest.(check bool) "newest pattern kept" true (found 257)

(* A copy of [p] whose diagonal entries drift bitwise (each with
   probability 1/3, by a few ulps): same pattern, so a recurring request
   reuses the clean blocks of its cached setup. *)
let drift_diagonal st (p : Batcher.problem) =
  let a = p.Batcher.a in
  let values = Array.copy a.Csr.values in
  for r = 0 to a.Csr.n_rows - 1 do
    for q = a.Csr.row_ptr.(r) to a.Csr.row_ptr.(r + 1) - 1 do
      if a.Csr.col_idx.(q) = r && Random.State.int st 3 = 0 then
        values.(q) <- Float.succ (Float.succ values.(q))
    done
  done;
  let a =
    Csr.create ~n_rows:a.Csr.n_rows ~n_cols:a.Csr.n_cols
      ~row_ptr:(Array.copy a.Csr.row_ptr) ~col_idx:(Array.copy a.Csr.col_idx)
      ~values
  in
  { p with Batcher.a }

(* Random waves of recurring Jacobi tenants (block sizes 1..32 across
   tenants; a tenant may appear twice in one wave) run through the
   batcher with one long-lived setup cache and without one.  Every [y]
   must equal the direct block-Jacobi solve bitwise, the setup counts
   must cover the coalesced blocks exactly, and a cached wave that
   reused nothing must cost exactly the uncached modelled time. *)
let qcheck_recurring_waves =
  QCheck.Test.make ~count:12
    ~name:"recurring jacobi waves: cached == uncached == direct, bitwise"
    QCheck.(pair (int_bound 10_000) (int_range 0 2))
    (fun (seed, pool_ix) ->
      let _, pool = List.nth pools pool_ix in
      let st = state seed in
      let tenants =
        Array.init
          (1 + Random.State.int st 3)
          (fun _ ->
            let blocks = 2 + Random.State.int st 3 in
            let block_size = 1 + Random.State.int st 32 in
            let a =
              Generators.block_tridiagonal ~state:st ~blocks ~block_size ()
            in
            let n, _ = Csr.dims a in
            { Batcher.a;
              rhs = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0);
              max_block_size = 32; precond = Batcher.Jacobi })
      in
      let cache = Setup_cache.create () in
      List.for_all
        (fun _ ->
          Array.iteri (fun t p -> tenants.(t) <- drift_diagonal st p) tenants;
          let repeat () =
            tenants.(Random.State.int st (Array.length tenants))
          in
          let wave =
            Array.append tenants
              (if Random.State.bool st then [| drift_diagonal st (repeat ()) |]
               else [||])
          in
          let cached = Batcher.run ~pool ~cache wave in
          let uncached = Batcher.run ~pool wave in
          let direct = Array.map direct_solve wave in
          let bitwise (r : Batcher.launch_report) =
            Array.for_all2
              (fun o y -> o.Batcher.y = y)
              r.Batcher.outcomes direct
          in
          let covered (r : Batcher.launch_report) =
            r.Batcher.setup_fresh_blocks + r.Batcher.setup_reused_blocks
            = r.Batcher.coalesced_blocks
          in
          bitwise cached && bitwise uncached && covered cached
          && covered uncached
          && uncached.Batcher.setup_reused_blocks = 0
          && (cached.Batcher.setup_reused_blocks > 0
             || Int64.equal
                  (Int64.bits_of_float cached.Batcher.modelled_seconds)
                  (Int64.bits_of_float uncached.Batcher.modelled_seconds)))
        (List.init (2 + Random.State.int st 3) Fun.id))

(* ------------------------------------------------------------------ *)
(* Properties: conservation + determinism under random load            *)

let qcheck_conservation =
  QCheck.Test.make ~count:8
    ~name:"loadgen: conservation, overshoot bound and bit-identity hold \
           under random load, identically across domains"
    QCheck.(pair (int_bound 1000) (int_range 0 2))
    (fun (seed, load_ix) ->
      let spec =
        {
          Loadgen.default_spec with
          Loadgen.seed;
          requests = 40;
          load = [| 0.5; 1.0; 2.0 |].(load_ix);
          deadline_windows = 6.0;
        }
      in
      let config =
        { Service.default_config with Service.capacity = 16; max_batch = 4;
          min_fill = 2 }
      in
      let reports =
        List.map
          (fun (_, pool) -> Loadgen.run ~pool ~config spec)
          pools
      in
      let r1 = List.hd reports in
      if not r1.Loadgen.accounted then
        QCheck.Test.fail_report "requests unaccounted";
      if not r1.Loadgen.within_bound then
        QCheck.Test.fail_report "deadline overshoot beyond one batch window";
      if not r1.Loadgen.verified then
        QCheck.Test.fail_report "completed result differs from direct solve";
      List.for_all
        (fun r -> Loadgen.checksum r = Loadgen.checksum r1)
        (List.tl reports))

let () =
  Alcotest.run "serve"
    [
      ( "clock",
        [
          Alcotest.test_case "manual and system clocks" `Quick test_clock;
        ] );
      ( "policy",
        [
          Alcotest.test_case "deterministic jittered backoff" `Quick
            test_backoff;
          Alcotest.test_case "breaker state machine" `Quick test_breaker;
        ] );
      ( "queue",
        [ Alcotest.test_case "bounded priority queue" `Quick test_queue ] );
      ( "obs",
        [
          Alcotest.test_case "labelled metrics" `Quick test_labelled_metrics;
          Alcotest.test_case "launch cache gauges" `Quick test_cache_gauges;
          Alcotest.test_case "tenant accounting" `Quick test_tenant;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "coalesced == direct, bitwise, across domains"
            `Quick test_batcher_bit_identity;
          Alcotest.test_case "breakdown isolates batchmates" `Quick
            test_batcher_breakdown;
          Alcotest.test_case "mixed jacobi/ilu0 wave == direct, bitwise"
            `Quick test_batcher_mixed_families;
          Alcotest.test_case "admission validation" `Quick
            test_batcher_validate;
        ] );
      ( "service",
        [
          Alcotest.test_case "submit/step/complete" `Quick
            test_service_completes;
          Alcotest.test_case "admission control rejects with reason" `Quick
            test_service_rejects_on_full_queue;
          Alcotest.test_case "invalid problems rejected" `Quick
            test_service_rejects_invalid;
          Alcotest.test_case "deadline shedding" `Quick
            test_service_sheds_expired;
          Alcotest.test_case "fault verdict retries then completes" `Quick
            test_service_retries_faults;
          Alcotest.test_case "retry budget exhaustion fails" `Quick
            test_service_fails_after_budget;
          Alcotest.test_case "breakdown policies per request" `Quick
            test_service_breakdown_policies;
        ] );
      ( "composition",
        [
          Alcotest.test_case
            "breakdown + fault retry + deadline shed on one batch" `Quick
            test_composition;
        ] );
      ( "setup cache",
        [
          Alcotest.test_case "recurring jacobi reuses setup, bitwise" `Quick
            test_setup_cache_jacobi;
          Alcotest.test_case "recurring ilu0 reuses setup, bitwise" `Quick
            test_setup_cache_ilu0;
          Alcotest.test_case "cache inert without repeats" `Quick
            test_setup_cache_inert_without_repeats;
          Alcotest.test_case "traced ilu0 build counted once" `Quick
            test_setup_metrics_counted_once;
          Alcotest.test_case "loadgen repeat-share verified with cache" `Quick
            test_loadgen_repeat_share;
          Alcotest.test_case "recurring singular request keeps its fallback"
            `Quick test_setup_cache_singular_recurring;
          Alcotest.test_case "tenant repeated in one wave reuses setup"
            `Quick test_setup_cache_repeat_in_wave;
          Alcotest.test_case "fifo eviction at 256 patterns" `Quick
            test_setup_cache_fifo_eviction;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_conservation; qcheck_recurring_waves ] );
    ]
