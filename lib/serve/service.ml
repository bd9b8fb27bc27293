open Vblu_smallblas

type config = {
  capacity : int;
  max_batch : int;
  min_fill : int;
  max_wait : float;
  window : float;
  retry : Policy.retry;
  breaker : Policy.breaker_config;
  seed : int;
  prec : Precision.t;
  abft : bool;
  setup_cache : bool;
}

let default_config =
  {
    capacity = 256;
    max_batch = 64;
    min_fill = 16;
    max_wait = 2e-3;
    window = 1e-3;
    retry = Policy.default_retry;
    breaker = Policy.default_breaker;
    seed = 42;
    prec = Precision.Double;
    abft = true;
    setup_cache = false;
  }

type reject_reason =
  | Queue_full of { depth : int; capacity : int }
  | Invalid_problem of string

let reject_reason_text = function
  | Queue_full { depth; capacity } ->
    Printf.sprintf "queue full (%d/%d)" depth capacity
  | Invalid_problem msg -> "invalid problem: " ^ msg

type status =
  | Pending
  | Completed of {
      y : Vector.t;
      degraded : bool;
      demoted : bool;
      latency : float;
      attempts : int;
    }
  | Rejected of reject_reason
  | Shed of { deadline : float }
  | Failed of { reason : string; attempts : int }

type req = {
  id : int;
  tenant : string;
  priority : Policy.priority;
  deadline : float option;
  breakdown : Policy.breakdown;
  problem : Batcher.problem;
  submitted_at : float;
  mutable attempts : int;  (* launches consumed so far *)
  mutable not_before : float;  (* retry backoff gate *)
}

type t = {
  cfg : config;
  pool : Vblu_par.Pool.t;
  faults : Vblu_fault.Fault.Plan.t option;
  cache : Setup_cache.t option;
  obs : Vblu_obs.Ctx.t option;
  clock : Clock.t;
  lock : Mutex.t;
  queue : req Queue.t;
  mutable retries : req list;  (* awaiting their backoff gate *)
  statuses : (int, status) Hashtbl.t;
  tenant_tbl : Tenant.t;
  brk : Policy.breaker;
  mutable next_id : int;
  mutable live : int;  (* submitted, not yet terminal *)
  mutable steps : int;
  mutable launches : int;
  mutable coalesced : int;
  mutable setup_fresh : int;
  mutable setup_reused : int;
  mutable occupancy_sum : float;
  mutable max_step_seconds : float;
  mutable latencies : float list;
}

let create ?(pool = Vblu_par.Pool.sequential) ?faults ?obs ?clock cfg =
  if cfg.capacity < 1 then invalid_arg "Serve.Service.create: capacity < 1";
  if cfg.max_batch < 1 then invalid_arg "Serve.Service.create: max_batch < 1";
  if cfg.min_fill < 0 then invalid_arg "Serve.Service.create: min_fill < 0";
  if not (cfg.window > 0.0) then
    invalid_arg "Serve.Service.create: window must be positive";
  if cfg.max_wait < 0.0 then invalid_arg "Serve.Service.create: max_wait < 0";
  let clock = match clock with Some c -> c | None -> Clock.manual () in
  {
    cfg;
    pool;
    faults;
    cache = (if cfg.setup_cache then Some (Setup_cache.create ()) else None);
    obs;
    clock;
    lock = Mutex.create ();
    queue = Queue.create ~capacity:cfg.capacity;
    retries = [];
    statuses = Hashtbl.create 64;
    tenant_tbl = Tenant.create ();
    brk = Policy.breaker cfg.breaker;
    next_id = 0;
    live = 0;
    steps = 0;
    launches = 0;
    coalesced = 0;
    setup_fresh = 0;
    setup_reused = 0;
    occupancy_sum = 0.0;
    max_step_seconds = 0.0;
    latencies = [];
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Terminal transitions all funnel through here so [live] and the
   per-tenant tallies can never drift from the status table — the
   conservation invariant is enforced structurally. *)
let finish t (r : req) st event =
  Hashtbl.replace t.statuses r.id st;
  t.live <- t.live - 1;
  Tenant.note t.tenant_tbl ~obs:t.obs ~tenant:r.tenant event

let submit t ?(tenant = "default") ?(priority = Policy.Standard) ?deadline
    ?(breakdown = Policy.Identity_block) problem =
  locked t (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      Tenant.note t.tenant_tbl ~obs:t.obs ~tenant Tenant.Submitted;
      let reject reason =
        Hashtbl.replace t.statuses id (Rejected reason);
        Tenant.note t.tenant_tbl ~obs:t.obs ~tenant Tenant.Rejected
      in
      (match Batcher.validate problem with
      | Error msg -> reject (Invalid_problem msg)
      | Ok () ->
        let r =
          {
            id;
            tenant;
            priority;
            deadline;
            breakdown;
            problem;
            submitted_at = Clock.now t.clock;
            attempts = 0;
            not_before = neg_infinity;
          }
        in
        if Queue.submit t.queue ~priority r then begin
          Hashtbl.replace t.statuses id Pending;
          t.live <- t.live + 1
        end
        else
          reject
            (Queue_full
               { depth = Queue.length t.queue; capacity = t.cfg.capacity }));
      id)

let status t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.statuses id with
      | Some st -> st
      | None -> invalid_arg (Printf.sprintf "Serve.Service.status: unknown id %d" id))

let expired now (r : req) =
  match r.deadline with Some d -> d < now | None -> false

let breaker_rank = function
  | Policy.Closed -> 0
  | Policy.Half_open -> 1
  | Policy.Open -> 2

let step_locked ?(force = false) t =
  let now = Clock.now t.clock in
  let pressure =
    float_of_int (Queue.length t.queue) /. float_of_int t.cfg.capacity
  in
  let state = Policy.breaker_state t.brk in
  (* 1. Shed everything whose deadline has already passed — queued and
     backoff-parked alike — before deciding what launches. *)
  let shed (r : req) =
    finish t r
      (Shed { deadline = Option.value r.deadline ~default:now })
      Tenant.Shed
  in
  List.iter shed (Queue.reject_if t.queue (expired now));
  let stale, keep = List.partition (expired now) t.retries in
  t.retries <- keep;
  List.iter shed stale;
  (* 2. Assemble the wave: backoff-expired retries first (oldest id
     first), then the queue in (priority, FIFO) order.  The coalesce
     gate holds small waves back to fill batches — unless forced, the
     oldest waiter has aged past [max_wait], or the breaker is open
     (zero coalesce-wait: drain at full rate every window). *)
  let ready, waiting =
    List.partition (fun r -> r.not_before <= now) t.retries
  in
  let ready = List.sort (fun a b -> compare a.id b.id) ready in
  let oldest_wait =
    match Queue.oldest t.queue with
    | Some r -> now -. r.submitted_at
    | None -> neg_infinity
  in
  let depth = Queue.length t.queue in
  let launch_gate =
    force
    || ready <> []
    || depth >= max 1 t.cfg.min_fill
    || (depth > 0 && (state = Policy.Open || oldest_wait >= t.cfg.max_wait))
  in
  let wave =
    if not launch_gate then []
    else begin
      let rec take n = function
        | [] -> ([], [])
        | l when n = 0 -> ([], l)
        | x :: tl ->
          let got, rest = take (n - 1) tl in
          (x :: got, rest)
      in
      let taken, leftover = take t.cfg.max_batch ready in
      t.retries <- leftover @ waiting;
      taken @ Queue.drain t.queue ~max:(t.cfg.max_batch - List.length taken)
    end
  in
  if not launch_gate then t.retries <- ready @ waiting;
  (* 3. Under an open breaker, best-effort members of the wave are
     demoted to the identity preconditioner — served immediately,
     without joining the launch. *)
  let demoted, launched =
    if state = Policy.Open then
      List.partition (fun r -> r.priority = Policy.Best_effort) wave
    else ([], wave)
  in
  let launched = Array.of_list launched in
  let report =
    if Array.length launched = 0 then Batcher.empty_report
    else
      Batcher.run ~pool:t.pool ~prec:t.cfg.prec ?faults:t.faults
        ~abft:t.cfg.abft ?cache:t.cache ?obs:t.obs
        (Array.map (fun r -> r.problem) launched)
  in
  let step_seconds = t.cfg.window +. report.Batcher.modelled_seconds in
  let now' = now +. step_seconds in
  List.iter
    (fun (r : req) ->
      Tenant.note t.tenant_tbl ~obs:t.obs ~tenant:r.tenant Tenant.Demoted;
      let latency = now' -. r.submitted_at in
      t.latencies <- latency :: t.latencies;
      Vblu_obs.Ctx.observe t.obs "serve.latency" latency;
      finish t r
        (Completed
           {
             y = Array.copy r.problem.Batcher.rhs;
             degraded = false;
             demoted = true;
             latency;
             attempts = r.attempts;
           })
        Tenant.Completed)
    demoted;
  Array.iteri
    (fun i (r : req) ->
      let o = report.Batcher.outcomes.(i) in
      r.attempts <- r.attempts + 1;
      if o.Batcher.faulted_blocks <> [] then
        if r.attempts <= t.cfg.retry.Policy.budget then begin
          r.not_before <-
            now'
            +. Policy.backoff t.cfg.retry ~seed:t.cfg.seed ~request:r.id
                 ~attempt:r.attempts;
          t.retries <- r :: t.retries;
          Tenant.note t.tenant_tbl ~obs:t.obs ~tenant:r.tenant Tenant.Retried
        end
        else
          finish t r
            (Failed
               {
                 reason =
                   Printf.sprintf
                     "fault verdict persisted after %d retries"
                     t.cfg.retry.Policy.budget;
                 attempts = r.attempts;
               })
            Tenant.Failed
      else if o.Batcher.degraded_blocks <> [] && r.breakdown = Policy.Fail_request
      then
        finish t r
          (Failed
             {
               reason =
                 Printf.sprintf "breakdown in %d diagonal block(s)"
                   (List.length o.Batcher.degraded_blocks);
               attempts = r.attempts;
             })
          Tenant.Failed
      else begin
        let latency = now' -. r.submitted_at in
        t.latencies <- latency :: t.latencies;
        Vblu_obs.Ctx.observe t.obs "serve.latency" latency;
        finish t r
          (Completed
             {
               y = o.Batcher.y;
               degraded = o.Batcher.degraded_blocks <> [];
               demoted = false;
               latency;
               attempts = r.attempts;
             })
          Tenant.Completed
      end)
    launched;
  (* 4. Bookkeeping: breaker observes this window's pressure, stats and
     gauges refresh, virtual time moves past the launch. *)
  ignore (Policy.breaker_note t.brk ~pressure);
  t.steps <- t.steps + 1;
  if Array.length launched > 0 then begin
    t.launches <- t.launches + 1;
    t.coalesced <- t.coalesced + report.Batcher.coalesced_blocks;
    t.setup_fresh <- t.setup_fresh + report.Batcher.setup_fresh_blocks;
    t.setup_reused <- t.setup_reused + report.Batcher.setup_reused_blocks;
    t.occupancy_sum <-
      t.occupancy_sum
      +. (float_of_int (Array.length launched) /. float_of_int t.cfg.max_batch);
    Vblu_obs.Ctx.observe t.obs "serve.launch.occupancy"
      (float_of_int (Array.length launched) /. float_of_int t.cfg.max_batch)
  end;
  if step_seconds > t.max_step_seconds then t.max_step_seconds <- step_seconds;
  Vblu_obs.Ctx.set_gauge t.obs "serve.queue.depth"
    (float_of_int (Queue.length t.queue));
  Vblu_obs.Ctx.set_gauge t.obs "serve.breaker.state"
    (float_of_int (breaker_rank (Policy.breaker_state t.brk)));
  (match t.obs with
  | Some { Vblu_obs.Ctx.metrics = Some m; _ } ->
    Vblu_simt.Launch.Cache.export_gauges m
  | _ -> ());
  Clock.advance t.clock step_seconds

let step ?force t = locked t (fun () -> step_locked ?force t)

let pending t = locked t (fun () -> t.live)

let drain t =
  let budget = ref 1_000_000 in
  while pending t > 0 && !budget > 0 do
    decr budget;
    step ~force:true t
  done;
  if pending t > 0 then
    invalid_arg "Serve.Service.drain: no progress after 1e6 forced steps"

let now t = locked t (fun () -> Clock.now t.clock)

type health = {
  h_now : float;
  h_queue_depth : int;
  h_pending : int;
  h_breaker : Policy.breaker_state;
  h_steps : int;
  h_launches : int;
  h_coalesced_blocks : int;
  h_setup_fresh_blocks : int;
  h_setup_reused_blocks : int;
  h_mean_occupancy : float;
  h_p50_latency : float;
  h_p99_latency : float;
  h_max_step_seconds : float;
  h_cache_hits : int;
  h_cache_misses : int;
  h_cache_direct : int;
  h_totals : Tenant.counts;
}

(* Exact nearest-rank percentile: the smallest value with at least
   [q * n] observations at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let health t =
  locked t (fun () ->
      let lat = Array.of_list t.latencies in
      Array.sort compare lat;
      let hits, misses = Vblu_simt.Launch.Cache.stats () in
      {
        h_now = Clock.now t.clock;
        h_queue_depth = Queue.length t.queue;
        h_pending = t.live;
        h_breaker = Policy.breaker_state t.brk;
        h_steps = t.steps;
        h_launches = t.launches;
        h_coalesced_blocks = t.coalesced;
        h_setup_fresh_blocks = t.setup_fresh;
        h_setup_reused_blocks = t.setup_reused;
        h_mean_occupancy =
          (if t.launches = 0 then 0.0
           else t.occupancy_sum /. float_of_int t.launches);
        h_p50_latency = percentile lat 0.50;
        h_p99_latency = percentile lat 0.99;
        h_max_step_seconds = t.max_step_seconds;
        h_cache_hits = hits;
        h_cache_misses = misses;
        h_cache_direct = Vblu_simt.Launch.Cache.direct_hits ();
        h_totals = Tenant.totals t.tenant_tbl;
      })

let tenants t = locked t (fun () -> Tenant.snapshot t.tenant_tbl)

let pp_health ppf h =
  Format.fprintf ppf
    "@[<v>now            %.6fs@,queue depth    %d@,pending        \
     %d@,breaker        %s@,steps          %d@,launches       \
     %d@,coalesced blks %d@,setup blocks   %d fresh / %d reused@,mean \
     occupancy %.3f@,p50 latency    \
     %.6fs@,p99 latency    %.6fs@,max step       %.6fs@,cache          \
     %d hits / %d misses / %d direct@]"
    h.h_now h.h_queue_depth h.h_pending
    (Policy.state_name h.h_breaker)
    h.h_steps h.h_launches h.h_coalesced_blocks h.h_setup_fresh_blocks
    h.h_setup_reused_blocks h.h_mean_occupancy
    h.h_p50_latency h.h_p99_latency h.h_max_step_seconds h.h_cache_hits
    h.h_cache_misses h.h_cache_direct
