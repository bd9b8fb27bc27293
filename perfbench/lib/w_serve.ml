(* serve-mixed: open-loop Poisson traffic into one long-lived
   [Service] on a manual virtual clock.  Requests are block-tridiagonal
   systems (2-6 blocks of size 4-16) over three priority lanes with
   deadlines; a fifth ask for block-ILU(0), three in ten are recurring
   tenants (same pattern, drifted values) served through the setup cache.
   One operation is one wave: dispatch windows (submit the requests that
   are due, then [Service.step]) up to and including one that launches. *)

open Vblu_sparse
open Vblu_precond
open Vblu_serve
open Vblu_workloads

let name = "serve-mixed"

(* Offered load of the timed run: below the knee of the ladder, and one of
   its rates. *)
let nominal_rps = 1_200.0

(* The fixed rate ladder, and the latency limit its p99 must meet. *)
let ladder_rps = [ 800.0; 1_200.0; 1_600.0; 2_000.0; 3_000.0 ]
let limit_ms = 25.0
let ladder_requests = 1_000
let health_every = 16

(* A service takes this many requests before the run drains it and starts
   a new one (replaying the same stream): long-lived state grows within a
   lifetime, and memory does not grow with the host's speed. *)
let lifetime_requests = 4_096
let setup_requests = 256

(* ABFT off: no faults are injected, and checked launches cannot take the
   direct execution path. *)
let config =
  { Service.default_config with capacity = 1024; abft = false; setup_cache = true }

type request = {
  problem : Batcher.problem;
  tenant : string;
  priority : Policy.priority;
  deadline_s : float;  (* after the request is due *)
  gap : float;  (* unit-rate exponential inter-arrival gap *)
}

(* Requests [i] with [i mod 10] in {1, 4, 7} are recurring tenants:
   request [i - 10]'s problem with drifted values, except on every eighth
   visit, where the tenant starts over with a fresh problem.  Every fifth
   request asks for block-ILU(0). *)
let recurring i = (i mod 10 = 1 || i mod 10 = 4 || i mod 10 = 7) && i / 10 mod 8 <> 0
let family i = if i mod 5 = 4 then Batcher.Ilu0 else Batcher.Jacobi

(* The drift scales the entries of a band of rows (one block's worth),
   so a recurring request re-factors only the blocks it touches. *)
let drift ~i (p : Batcher.problem) =
  let a = p.Batcher.a in
  let n = a.Csr.n_rows in
  let lo = i * 7 mod n in
  let hi = min n (lo + 8) in
  let values = Array.copy a.Csr.values in
  for row = lo to hi - 1 do
    for q = a.Csr.row_ptr.(row) to a.Csr.row_ptr.(row + 1) - 1 do
      values.(q) <- values.(q) *. 1.000123
    done
  done;
  let a =
    Csr.create ~n_rows:a.Csr.n_rows ~n_cols:a.Csr.n_cols
      ~row_ptr:(Array.copy a.Csr.row_ptr) ~col_idx:(Array.copy a.Csr.col_idx) ~values
  in
  let rhs = Array.mapi (fun q v -> v +. (1e-3 *. float_of_int ((q + i) mod 5))) p.Batcher.rhs in
  { p with Batcher.a; rhs }

(* A request generator: request [i] depends on the seed, on [i] and (when
   recurring) on request [i - 10], so every stream of one seed is the same
   sequence however far it is drawn. *)
let generator seed =
  let ring = Array.make 10 None in
  let next = ref 0 in
  fun () ->
    let i = !next in
    incr next;
    let st = Random.State.make [| 0x5e7e; seed; i |] in
    let problem =
      match ring.(i mod 10) with
      | Some (p : request) when recurring i -> drift ~i p.problem
      | _ ->
        (* Sizes cycle with the index, so every seed's stream has the same
           mix of shapes; the seed draws values, priorities and gaps. *)
        let blocks = 2 + ((i + (i / 5)) mod 5) in
        let block_size = 4 + ((i + (i / 13)) mod 13) in
        let a = Generators.block_tridiagonal ~state:st ~blocks ~block_size () in
        let n, _ = Csr.dims a in
        { Batcher.a;
          rhs = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0);
          max_block_size = 32;
          precond = family i }
    in
    let u = Random.State.float st 1.0 in
    let priority, deadline_s =
      if u < 0.2 then (Policy.Interactive, 0.030)
      else if u < 0.8 then (Policy.Standard, 0.060)
      else (Policy.Best_effort, 0.120)
    in
    let r =
      { problem;
        tenant =
          (if recurring i then Printf.sprintf "tenant-%d" (i mod 10)
           else Printf.sprintf "pool-%d" (i mod 3));
        priority;
        deadline_s;
        gap = -.Float.log (1.0 -. Random.State.float st 1.0) }
    in
    ring.(i mod 10) <- Some r;
    r

let input_digest seed =
  let next = generator seed in
  let h = Hash64.create () in
  for _ = 1 to ladder_requests do
    let r = next () in
    Hash64.ints h r.problem.Batcher.a.Csr.col_idx;
    Hash64.floats h r.problem.Batcher.a.Csr.values;
    Hash64.floats h r.problem.Batcher.rhs;
    Hash64.float h r.gap;
    Hash64.float h r.deadline_s
  done;
  Hash64.hex h

(* An open-loop driver over one service.  [prefetch] draws every request
   whose arrival time has come (input generation, untimed); [submit_ready]
   submits them.  Latency is taken from a request's due time, so a late
   generator shows in it; [lag] sums how late each submission was. *)
type driver = {
  svc : Service.t;
  next : unit -> request;
  rate : float;
  mutable upcoming : request * float;  (* next request and its due time *)
  ready : (request * float) Stdlib.Queue.t;
  mutable submitted : int;
  mutable lag : float;
  outstanding : (int, request * float * float) Hashtbl.t;
      (* id -> request, due time, submit time *)
}

let driver ~pool ~seed ~rate =
  let next = generator seed in
  let first = next () in
  { svc = Service.create ~pool config; next; rate;
    upcoming = (first, first.gap /. rate); ready = Stdlib.Queue.create ();
    submitted = 0; lag = 0.0; outstanding = Hashtbl.create 256 }

let prefetch ?(limit = max_int) d =
  let now = Service.now d.svc in
  while snd d.upcoming <= now && d.submitted + Stdlib.Queue.length d.ready < limit do
    Stdlib.Queue.push d.upcoming d.ready;
    let r = d.next () in
    d.upcoming <- (r, snd d.upcoming +. (r.gap /. d.rate))
  done

let submit_ready d =
  let now = Service.now d.svc in
  Stdlib.Queue.iter
    (fun (r, due) ->
      let id =
        Spans.with_span "serve.submit" (fun () ->
            Service.submit d.svc ~tenant:r.tenant ~priority:r.priority
              ~deadline:(due +. r.deadline_s) r.problem)
      in
      Hashtbl.replace d.outstanding id (r, due, now);
      d.lag <- d.lag +. (now -. due))
    d.ready;
  d.submitted <- d.submitted + Stdlib.Queue.length d.ready;
  Stdlib.Queue.clear d.ready

(* Terminal statuses are collected in id order; [on_done] sees each
   request once, with its latency from the due time (infinite when the
   request was rejected, shed or failed: it misses every limit). *)
let collect d on_done =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) d.outstanding [] in
  List.iter
    (fun id ->
      match Service.status d.svc id with
      | Service.Pending -> ()
      | st ->
        let r, due, submitted_at = Hashtbl.find d.outstanding id in
        Hashtbl.remove d.outstanding id;
        let latency =
          match st with
          | Service.Completed { latency; _ } -> submitted_at +. latency -. due
          | _ -> infinity
        in
        on_done r st latency)
    (List.sort compare ids)

(* One fixed-size stream at [rate], drained: the modelled figures.  The
   backlog grows when the queue at the last arrival exceeds the queue at
   the half-way arrival by more than one launch. *)
type sim = {
  p50_ms : float;
  p99_ms : float;
  growing : bool;
  queue_max : int;
  lag_ms : float;
  health : Service.health;
}

let simulate ~pool ~seed ~rate ~requests =
  let d = driver ~pool ~seed ~rate in
  let lat = ref [] and queue_max = ref 0 in
  let mid_backlog = ref (-1) and end_backlog = ref 0 in
  let on_done _ _ l = lat := l :: !lat in
  while d.submitted < requests do
    prefetch ~limit:requests d;
    submit_ready d;
    let pending = Service.pending d.svc in
    if d.submitted >= requests / 2 && !mid_backlog < 0 then mid_backlog := pending;
    if d.submitted >= requests then end_backlog := pending;
    queue_max := max !queue_max pending;
    Service.step d.svc;
    collect d on_done
  done;
  Service.drain d.svc;
  collect d on_done;
  let latencies = Array.of_list !lat in
  { p50_ms = Stats.percentile latencies 50.0 *. 1e3;
    p99_ms = Stats.percentile latencies 99.0 *. 1e3;
    growing = !end_backlog > !mid_backlog + config.Service.max_batch;
    queue_max = !queue_max;
    lag_ms = d.lag /. float_of_int requests *. 1e3;
    health = Service.health d.svc }

(* The output check: a direct set-up and apply of the request's family. *)
let direct (p : Batcher.problem) =
  let prec = config.Service.prec and max_block_size = p.Batcher.max_block_size in
  match p.Batcher.precond with
  | Batcher.Jacobi ->
    let bj, _ = Block_jacobi.create ~prec ~variant:Block_jacobi.Lu ~max_block_size p.Batcher.a in
    bj.Preconditioner.apply p.Batcher.rhs
  | Batcher.Ilu0 ->
    let bi, _ = Block_ilu0.create ~prec ~max_block_size p.Batcher.a in
    bi.Preconditioner.apply p.Batcher.rhs

let make ~pool ~seed =
  let ladder =
    lazy
      (let rungs =
         List.map
           (fun rate ->
             let s = simulate ~pool ~seed ~rate ~requests:ladder_requests in
             Printf.printf "ladder rate=%.0f/s p50=%.3fms p99=%.3fms backlog=%s %s\n" rate
               s.p50_ms s.p99_ms
               (if s.growing then "growing" else "steady")
               (if s.p99_ms <= limit_ms && not s.growing then "meets" else "misses");
             (rate, s))
           ladder_rps
       in
       let max_rate =
         List.fold_left
           (fun best (rate, s) ->
             if s.p99_ms <= limit_ms && not s.growing then Float.max best rate else best)
           0.0 rungs
       in
       (List.assoc nominal_rps rungs, max_rate))
  in
  let fresh () =
    let t0 = Wall.now_ns () in
    let out = Hash64.create () in
    let bad = ref 0 and busy = ref 0.0 and submitted = ref 0 in
    let on_done (r : request) st latency =
      match st with
      | Service.Completed { y; demoted; _ } ->
        Hash64.floats out y;
        Hash64.float out latency;
        let expected = if demoted then r.problem.Batcher.rhs else direct r.problem in
        if not (Check.same_bits y expected) then incr bad
      | _ ->
        Hash64.float out latency;
        incr bad
    in
    (* Drain a service and audit it: every submitted request terminal,
       each in exactly one outcome. *)
    let retire d =
      Service.drain d.svc;
      collect d on_done;
      let t = (Service.health d.svc).Service.h_totals in
      let conserved =
        t.Tenant.submitted = d.submitted
        && t.Tenant.submitted
           = t.Tenant.completed + t.Tenant.rejected + t.Tenant.shed + t.Tenant.failed
        && Service.pending d.svc = 0
      in
      if not conserved then incr bad
    in
    let d = ref (driver ~pool ~seed ~rate:nominal_rps) in
    (* One wave: dispatch windows (submits, then a step) up to and
       including the first that launches; returns their wall seconds.  A
       service that has taken [lifetime_requests] is drained, audited and
       replaced first. *)
    let wave () =
      if !d.submitted >= lifetime_requests then begin
        retire !d;
        d := driver ~pool ~seed ~rate:nominal_rps
      end;
      let d = !d in
      let wall = ref 0.0 and launched = ref false in
      let before = d.submitted in
      while not !launched do
        prefetch d;
        let now = Service.now d.svc in
        let (), w =
          Wall.time (fun () ->
              Spans.with_span "op" (fun () ->
                  submit_ready d;
                  Spans.with_span "serve.step" (fun () -> Service.step d.svc)))
        in
        wall := !wall +. w;
        launched := Service.now d.svc -. now > config.Service.window *. (1.0 +. 1e-9)
      done;
      busy := !busy +. !wall;
      submitted := !submitted + d.submitted - before;
      (!wall, d.submitted - before)
    in
    (* Set-up: [Service.create] and the waves that take its first
       [setup_requests] requests. *)
    while !d.submitted < setup_requests do
      ignore (wave ());
      collect !d on_done
    done;
    let setup_s = Wall.seconds_since t0 in
    let op i =
      Spans.set_op i;
      let wall, problems = wave () in
      let d = !d in
      (* Health is read every [health_every] waves; its span name records
         which quarter of the service's lifetime it fell in. *)
      if i mod health_every = 0 then begin
        let quarter = 4 * d.submitted / lifetime_requests in
        let name =
          if quarter = 0 then "serve.health.q1"
          else if quarter >= 3 then "serve.health.q4"
          else "serve.health"
        in
        ignore (Spans.with_span name (fun () -> Service.health d.svc))
      end;
      collect d on_done;
      { Workload.op_s = wall; busy_s = wall; problems; setup_s = None; attempted = 0; failed = 0 }
    in
    let finish () =
      retire !d;
      (!submitted + 1, !bad)
    in
    let host_us () = Stats.ratio !busy (float_of_int !submitted) *. 1e6 in
    let modelled () =
      let nominal, max_rate = Lazy.force ladder in
      [
        ("latency_ms.p50", nominal.p50_ms);
        ("latency_ms.p99", nominal.p99_ms);
        ("max_rate_rps", max_rate);
      ]
    in
    let layer_metrics self =
      let nominal, _ = Lazy.force ladder in
      let h = nominal.health in
      let t = h.Service.h_totals in
      [
        ("serve.submit_us", Stats.mean (self "serve.submit") /. 1e3);
        ("serve.step_us", Stats.mean (self "serve.step") /. 1e3);
        ("serve.health_us.q1", Stats.mean (self "serve.health.q1") /. 1e3);
        ("serve.health_us.q4", Stats.mean (self "serve.health.q4") /. 1e3);
        ("serve.host_us_per_request", host_us ());
        ("serve.launches", float_of_int h.Service.h_launches);
        ("serve.occupancy", h.Service.h_mean_occupancy);
        ( "serve.setup_reused_frac",
          Stats.ratio
            (float_of_int h.Service.h_setup_reused_blocks)
            (float_of_int (h.Service.h_setup_reused_blocks + h.Service.h_setup_fresh_blocks)) );
        ("serve.queue_depth_max", float_of_int nominal.queue_max);
        ("serve.rejected", float_of_int t.Tenant.rejected);
        ("serve.shed", float_of_int t.Tenant.shed);
        ("serve.retried", float_of_int t.Tenant.retried);
        ("serve.generator_lag_ms", nominal.lag_ms);
      ]
      @ List.map (fun (k, v) -> ("serve." ^ k, v)) (modelled ())
    in
    ( { Workload.op;
        finish;
        digest = (fun () -> Hash64.hex out);
        layer_metrics;
        report = (fun () -> modelled () @ [ ("host_us_per_request", host_us ()) ]) },
      setup_s )
  in
  {
    Workload.name;
    input_digest = input_digest seed;
    cold_setup = false;
    cycle = 1;
    setup_repeats = 7;
    fresh;
  }
