open Vblu_par

type mode = Exact | Sampled

(* [Sampled] with an armed fault plan would silently drop every fault
   addressed to a non-representative problem — the plan's sites are keyed
   by problem index, but only the first problem of each size class
   executes.  Rather than quietly under-inject, an armed launch degrades
   to per-problem execution. *)
let effective_mode ?faults mode =
  match (mode, faults) with Sampled, Some _ -> Exact | m, _ -> m

(* Both modes funnel every observed warp counter through a single sequential
   fold ([observe]) in problem-index (resp. sorted-class) order.  The
   parallel paths only parallelize the *kernel execution*, storing each
   warp's counter at its own index; the fold then runs in the caller in the
   same fixed order as the sequential path, so float accumulation order and
   max-warp tie-breaking — and therefore the modelled time — are
   bit-identical regardless of the domain count. *)
(* Record one launch into an observability context: a span of the modelled
   kernel time (advancing the simulated clock), plus registry totals.  Runs
   in the sequential caller after the stats are folded, so the recording
   order — and thus the trace — is independent of the domain count.  The
   stats themselves are computed before and unaffected. *)
let record_launch obs ~name ~prec (stats : Launch.stats) =
  if Vblu_obs.Ctx.enabled obs then begin
    let prec_s = Vblu_smallblas.Precision.to_string prec in
    Vblu_obs.Ctx.span_dur obs ~cat:"kernel" ~dur:stats.Launch.time_us name
      ~args:
        [
          ("prec", Vblu_obs.Trace.Str prec_s);
          ("warps", Vblu_obs.Trace.Int stats.Launch.warps);
          ("gflops", Vblu_obs.Trace.Float stats.Launch.gflops);
          ("bandwidth_gbs", Vblu_obs.Trace.Float stats.Launch.bandwidth_gbs);
          ("faults_injected", Vblu_obs.Trace.Int stats.Launch.faults_injected);
        ];
    Vblu_obs.Ctx.incr obs "launch.count" 1.0;
    Vblu_obs.Ctx.incr_l obs "launch.count" [ ("kernel", name) ] 1.0;
    Vblu_obs.Ctx.incr obs "launch.time_us" stats.Launch.time_us;
    Vblu_obs.Ctx.incr obs "launch.warps" (float_of_int stats.Launch.warps);
    Vblu_obs.Ctx.incr obs "launch.useful_flops"
      stats.Launch.total.Counter.useful_flops;
    Vblu_obs.Ctx.incr obs "launch.gmem_bytes" stats.Launch.total.Counter.gmem_bytes;
    if stats.Launch.faults_injected > 0 then
      Vblu_obs.Ctx.incr obs "faults.injected"
        (float_of_int stats.Launch.faults_injected);
    Vblu_obs.Ctx.observe obs "launch.time_us.hist" stats.Launch.time_us;
    Vblu_obs.Ctx.observe obs "launch.gflops.hist" stats.Launch.gflops
  end

(* The counter fold: every observed warp counter is added to the launch
   total in problem-index (resp. sorted-class) order, and the warp with
   the most issue cycles — the first one on ties — becomes the serial
   floor's [max_warp].  [run] and [charge] share it, so a launch charged
   from the cache models exactly the time the launch would. *)
type fold = {
  total : Counter.t;
  mutable max_warp : Counter.t;
  mutable max_cycles : float;
}

let new_fold () =
  { total = Counter.create (); max_warp = Counter.create (); max_cycles = -1.0 }

let note_max cfg prec f c =
  let cy = Launch.warp_cycles cfg prec c in
  if cy > f.max_cycles then begin
    f.max_cycles <- cy;
    f.max_warp <- c
  end

let observe cfg prec f c =
  Counter.add f.total c;
  note_max cfg prec f c

let finish cfg prec f ~warps ~faults_injected =
  Launch.time ~cfg ~faults_injected ~prec ~warps ~total:f.total
    ~max_warp:f.max_warp ()

(* Per-domain warp recycling: warps now own a preallocated scratch arena,
   so creating one per problem would dominate small launches.  Each domain
   keeps one warp per (config fingerprint, precision) — one int compare
   per lookup instead of hashing the whole device record — and resets it
   between problems; re-entrant use (a kernel callback that itself
   launches) falls back to a fresh throwaway warp, as does the rare
   fingerprint-0 collision between hand-built, unvalidated configs. *)
let domain_warps :
    (int * Vblu_smallblas.Precision.t, Warp.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let with_warp ~cfg ?inject prec f =
  let tbl = Domain.DLS.get domain_warps in
  let k = (cfg.Config.fingerprint, prec) in
  let w =
    match Hashtbl.find_opt tbl k with
    | Some w when Warp.cfg w == cfg || Warp.cfg w = cfg -> Some w
    | Some _ -> None
    | None ->
      let w = Warp.create ~cfg prec () in
      Hashtbl.add tbl k w;
      Some w
  in
  match w with
  | Some w when Warp.acquire w ->
    Fun.protect
      ~finally:(fun () -> Warp.release w)
      (fun () ->
        Warp.reset ?inject w;
        f w)
  | _ -> f (Warp.create ~cfg ?inject prec ())

let run ?(cfg = Config.p100) ?(pool = Pool.sequential) ?faults ?obs
    ?(name = "launch") ?cache ?direct ~prec ~mode ~sizes ~kernel () =
  let n = Array.length sizes in
  if n = 0 then Launch.empty_stats ()
  else begin
    let mode = effective_mode ?faults mode in
    (* Faults fired by earlier launches stay claimed (one-shot per plan
       lifetime); this launch reports only its own firings. *)
    let fired_before =
      match faults with None -> 0 | Some p -> Vblu_fault.Fault.Plan.injected p
    in
    let f = new_fold () in
    let observe = observe cfg prec f in
    (* The counter cache applies only to injection-free launches: an armed
       plan must both fire its faults and charge real counters, so it
       bypasses lookups and stores entirely.  Hand-built configs that never
       went through [Config.validate] carry fingerprint 0 and are
       uncacheable (their keys could alias). *)
    let use_cache =
      match (cache, faults) with
      | Some _, None ->
        Launch.Cache.enabled () && cfg.Config.fingerprint <> 0
      | _ -> false
    in
    let salt_of = match cache with Some f -> f | None -> fun _ -> 0 in
    (* First (or healing) execution of a key class: certify the direct
       closure by running it — [direct_ok] iff it completes without
       breakdown — then run the charging kernel, whose interpreted writes
       are authoritative (they overwrite everything the probe wrote;
       the two agree bitwise whenever [direct_ok]). *)
    let charge_and_store w key i =
      let direct_ok = match direct with None -> false | Some d -> d i = 0 in
      kernel w i;
      let c = Counter.copy (Warp.counter w) in
      Launch.Cache.store key ~counter:(Counter.copy c)
        ~events:(Warp.events w) ~direct_ok;
      c
    in
    (* Replay charge-free; the event signature certifies the stream
       matched the cached one.  A mismatch (a data-dependent path, e.g. a
       breakdown early-exit) reruns the problem charging — kernels are
       idempotent per problem, inputs and outputs are separate buffers —
       and re-stores, so a poisoned first entry heals. *)
    let replay entry key i =
      with_warp ~cfg prec (fun w ->
          Warp.set_charging w false;
          kernel w i;
          if Warp.events_equal w entry.Launch.Cache.events then
            Counter.copy entry.Launch.Cache.counter
          else begin
            Launch.Cache.demote_hit ();
            Warp.reset w;
            charge_and_store w key i
          end)
    in
    let run_cached key i =
      match Launch.Cache.find key with
      | None -> with_warp ~cfg prec (fun w -> charge_and_store w key i)
      | Some entry -> (
        match direct with
        | Some d when entry.Launch.Cache.direct_ok ->
          (* The fast path: no warp, no interpretation — the problem's
             numerics run straight through host loops and the cached
             counters are attached.  A traced launch takes it too, as its
             span and totals are folded from those same counters.  A
             breakdown ([info <> 0]) means the cached charge stream no
             longer applies either, so the problem reruns charging and
             the entry is de-certified. *)
          if d i = 0 then begin
            Launch.Cache.note_direct ();
            Counter.copy entry.Launch.Cache.counter
          end
          else begin
            Launch.Cache.demote_hit ();
            with_warp ~cfg prec (fun w -> charge_and_store w key i)
          end
        | _ -> replay entry key i)
    in
    let run_warp i =
      if use_cache then
        run_cached
          (Launch.Cache.key ~kernel:name ~prec ~size:sizes.(i)
             ~salt:(salt_of i) ~cfg)
          i
      else begin
        let inject =
          match faults with
          | None -> None
          | Some p ->
            Vblu_fault.Fault.Injector.create p ~problem:i ~size:sizes.(i)
        in
        with_warp ~cfg ?inject prec (fun w ->
            kernel w i;
            Counter.copy (Warp.counter w))
      end
    in
    (match mode with
    | Exact ->
      if Pool.num_domains pool = 1 || n = 1 then
        for i = 0 to n - 1 do
          observe (run_warp i)
        done
      else begin
        let counters = Pool.parallel_init pool n run_warp in
        Array.iter observe counters
      end
    | Sampled ->
      (* One representative (the first occurrence) per distinct size. *)
      let seen = Hashtbl.create 8 in
      Array.iteri
        (fun i s ->
          match Hashtbl.find_opt seen s with
          | Some (rep, count) -> Hashtbl.replace seen s (rep, count + 1)
          | None -> Hashtbl.add seen s (i, 1))
        sizes;
      let classes =
        Hashtbl.fold (fun _ (rep, count) acc -> (rep, count) :: acc) seen []
        |> List.sort compare |> Array.of_list
      in
      let counters =
        if Pool.num_domains pool = 1 || Array.length classes = 1 then
          Array.map (fun (rep, _) -> run_warp rep) classes
        else Pool.parallel_map pool (fun (rep, _) -> run_warp rep) classes
      in
      Array.iteri
        (fun k (_, count) ->
          let c = counters.(k) in
          note_max cfg prec f c;
          Counter.add f.total (Counter.scale_into c (float_of_int count)))
        classes);
    let faults_injected =
      match faults with
      | None -> 0
      | Some p -> Vblu_fault.Fault.Plan.injected p - fired_before
    in
    let stats = finish cfg prec f ~warps:n ~faults_injected in
    record_launch obs ~name ~prec stats;
    stats
  end

(* A launch charged from the cache alone.  Every key is peeked first and
   nothing is counted unless all of them are certified, so a [None] leaves
   the cache exactly as it was for the caller's real launch.  Otherwise
   the tallies move as a direct-served launch moves them — one hit and
   one direct hit per problem — and the cached counters are folded, timed
   and recorded as [run] would. *)
let charge ?(cfg = Config.p100) ?obs ~name ~prec ~sizes ~salt () =
  let n = Array.length sizes in
  if n = 0 then Some (Launch.empty_stats ())
  else if (not (Launch.Cache.enabled ())) || cfg.Config.fingerprint = 0 then
    None
  else begin
    let entries =
      Array.init n (fun i ->
          Launch.Cache.peek
            (Launch.Cache.key ~kernel:name ~prec ~size:sizes.(i) ~salt:(salt i)
               ~cfg))
    in
    let certified = function
      | Some e -> e.Launch.Cache.direct_ok
      | None -> false
    in
    if not (Array.for_all certified entries) then None
    else begin
      let f = new_fold () in
      Array.iter
        (function
          | Some e ->
            Launch.Cache.note_hit ();
            Launch.Cache.note_direct ();
            observe cfg prec f e.Launch.Cache.counter
          | None -> ())
        entries;
      let stats = finish cfg prec f ~warps:n ~faults_injected:0 in
      record_launch obs ~name ~prec stats;
      Some stats
    end
  end
