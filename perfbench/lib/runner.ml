(* Runs one workload for a time budget and prints its result.

   --trace 0: set up [setup_repeats] times (setup_s = the median, each
   set-up rescaled by the median of six host-pace probes, three just
   before it and three just after), then run operations until the budget is spent, with probes
   between them; the end-to-end metrics come from this run only, over its
   whole passes, rescaled to the nominal host pace (see [segments] and
   {!Pace}).

   --trace 1: three passes over the same operations.  A first untraced
   pass runs for a third of the budget and fixes the operation count n
   (its Launch.Cache deltas from an empty cache give the simt metrics);
   a second untraced pass and a traced pass then each run exactly n
   operations from the warmed cache.  The two must agree on the output
   digest and on the Launch.Cache hit, miss and direct-hit deltas; the
   difference of their busy times is the tracing overhead. *)

open Vblu_simt

type outcome = { correct : bool; attempted : int; failed : int }

(* One domain on every workload.  [Pool.parallel_for] starts fresh domains
   on every call (once per preconditioner apply, for instance); on a
   2-core host a 2-domain pool made suite-solve's solves 2-5x slower with
   run-to-run spreads of 40-80%, so a 2-domain pool's cost is measured
   separately, as the [par.parallel_for_us] layer metric. *)
let domains = 1

(* Median wall time of an empty [Pool.parallel_for] over two domains. *)
let parallel_for_us () =
  let pool = Vblu_par.Pool.create ~num_domains:2 () in
  Stats.median
    (Array.init 101 (fun _ ->
         snd (Wall.time (fun () -> Vblu_par.Pool.parallel_for pool ~lo:0 ~hi:2 ignore)) *. 1e6))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let cache_snapshot () =
  let hits, misses = Launch.Cache.stats () in
  (hits, misses, Launch.Cache.direct_hits ())

(* Host-pace probes are taken between operations, at most every
   [probe_gap_s] seconds, outside every timed region. *)
let probe_gap_s = 0.05

(* Runs operations until [stop]; returns the samples and the probes, each
   probe as (index of the operation it followed, wall seconds). *)
let run_ops ?(probes = false) (live : Workload.live) ~stop =
  let t0 = Wall.now_ns () in
  let samples = ref [] and paces = ref [] in
  let last = ref t0 in
  let i = ref 0 in
  while not (stop !i (Wall.seconds_since t0)) do
    samples := live.Workload.op !i :: !samples;
    if probes && Wall.seconds_since !last >= probe_gap_s then begin
      paces := (!i, Pace.probe ()) :: !paces;
      last := Wall.now_ns ()
    end;
    incr i
  done;
  (Array.of_list (List.rev !samples), Array.of_list (List.rev !paces))

let totals samples =
  Array.fold_left
    (fun (a, f) s -> (a + s.Workload.attempted, f + s.Workload.failed))
    (0, 0) samples

let busy samples = Stats.sum (Array.map (fun s -> s.Workload.busy_s) samples)

let print_metric ?n name value =
  let m = Catalogue.find name in
  Printf.printf "metric %-32s %.6g %s  [clock=%s better=%s%s]\n" name value
    m.Catalogue.unit
    (Catalogue.clock_name m.Catalogue.clock)
    (Catalogue.better_name m.Catalogue.better)
    (match n with Some n -> Printf.sprintf " n=%d" n | None -> "")

let json_result { correct; attempted; failed } metrics =
  let fields =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v
          (Catalogue.find name).Catalogue.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " fields)

(* Each operation's times are rescaled to the nominal host pace by the
   median probe taken during its slice of the run, one of [segments]
   consecutive slices of about two seconds ({!Pace}); the percentiles and
   throughput are then taken over all the rescaled operations. *)
let segments = 10

(* [pace_factors n probes ~segments] is, for each of [n] operations, the
   factor that rescales its times: {!Pace.scale} of the median probe taken
   during its slice (see {!Stats.cuts}), or of the run's median probe when
   none was. *)
let pace_factors n probes ~segments =
  let median_probe keep =
    Stats.median (Array.of_list (List.filter_map keep (Array.to_list probes)))
  in
  let all = median_probe (fun (_, p) -> Some p) in
  let factors = Array.make n 1.0 in
  Array.iter
    (fun (lo, hi) ->
      let during = median_probe (fun (i, p) -> if i >= lo && i < hi then Some p else None) in
      Array.fill factors lo (hi - lo) (Pace.scale (if Float.is_nan during then all else during)))
    (Stats.cuts n ~segments);
  factors

let untraced (w : Workload.t) ~seconds =
  (* Builds the probe's data before anything is timed. *)
  Pace.work ();
  let probes () = Array.init 3 (fun _ -> Pace.probe ()) in
  let setups = ref [] in
  let live = ref None in
  for _ = 1 to max 1 w.Workload.setup_repeats do
    if w.Workload.cold_setup then Launch.Cache.clear ();
    let before = probes () in
    let l, s = w.Workload.fresh () in
    let pace = Stats.median (Array.append before (probes ())) in
    setups := (s *. Pace.scale pace) :: !setups;
    live := Some l
  done;
  let live = Option.get !live in
  let samples, probes =
    run_ops ~probes:true live ~stop:(fun i t -> i > 0 && t >= seconds)
  in
  let heap = peak_heap_mb () in
  let whole = Array.length samples / w.Workload.cycle * w.Workload.cycle in
  let timed = if whole > 0 then Array.sub samples 0 whole else samples in
  let a_fin, f_fin = live.Workload.finish () in
  let attempted, failed = totals samples in
  let attempted = attempted + a_fin and failed = failed + f_fin in
  let n = Array.length timed in
  let factor = pace_factors n probes ~segments in
  let paced f = Array.mapi (fun i s -> f s *. factor.(i)) timed in
  let op_ms = paced (fun s -> s.Workload.op_s *. 1e3) in
  let problems = Array.fold_left (fun a s -> a + s.Workload.problems) 0 timed in
  let setup_s =
    if w.Workload.setup_repeats > 0 then Stats.median (Array.of_list !setups)
    else
      Stats.median
        (Array.of_list
           (List.filter_map Fun.id
              (Array.to_list
                 (Array.mapi
                    (fun i s -> Option.map (fun t -> t *. factor.(i)) s.Workload.setup_s)
                    timed))))
  in
  let metrics =
    [
      ("solve_ms.p50", Stats.percentile op_ms 50.0, n);
      ("solve_ms.p90", Stats.percentile op_ms 90.0, n);
      ("setup_s", setup_s, if w.Workload.setup_repeats > 0 then w.Workload.setup_repeats else n);
      ("problems_per_s", float_of_int problems /. Stats.sum (paced (fun s -> s.Workload.busy_s)), n);
      ("peak_heap_mb", heap, 1);
    ]
  in
  let pace = Stats.median (Array.map snd probes) in
  Printf.printf "operations %d (%d in whole passes)  output_digest %s\n" (Array.length samples) n
    (live.Workload.digest ());
  Printf.printf
    "host pace: %d probes, median %.4g ms (nominal %.4g ms); unscaled solve_ms.p50 %.6g, \
     problems_per_s %.6g\n"
    (Array.length probes) (pace *. 1e3) (Pace.nominal_s *. 1e3)
    (Stats.percentile (Array.map (fun s -> s.Workload.op_s *. 1e3) timed) 50.0)
    (float_of_int problems /. busy timed);
  List.iter (fun (name, v, n) -> print_metric ~n name v) metrics;
  List.iter (fun (name, v) -> print_metric name v) (live.Workload.report ());
  Printf.printf "metric %-32s %.6g fraction  [clock=count better=lower] (%d of %d)\n"
    "failed_frac" (Stats.failed_frac ~failed ~attempted:(max 1 attempted)) failed attempted;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  ( { correct = failed = 0 && finite; attempted = max 1 attempted; failed },
    List.map (fun (name, v, _) -> (name, v)) metrics )

let traced (w : Workload.t) ~seconds ~trace_file =
  let side ~trace ~stop =
    Spans.enable trace;
    Spans.set_op (-1);
    let c0 = cache_snapshot () in
    let live, _ = w.Workload.fresh () in
    let samples, _ = run_ops live ~stop in
    let fin = live.Workload.finish () in
    Spans.enable false;
    let h1, m1, d1 = cache_snapshot () and h0, m0, d0 = c0 in
    (live, samples, fin, (h1 - h0, m1 - m0, d1 - d0))
  in
  let entries0 = Launch.Cache.entries () in
  let pre, pre_samples, pre_fin, (ph, pm, pd) =
    side ~trace:false ~stop:(fun i t -> i > 0 && t >= seconds /. 3.0)
  in
  let n = Array.length pre_samples in
  let entries = Launch.Cache.entries () - entries0 in
  let u, u_samples, u_fin, u_cache = side ~trace:false ~stop:(fun i _ -> i >= n) in
  let t, t_samples, t_fin, t_cache = side ~trace:true ~stop:(fun i _ -> i >= n) in
  let spans = Spans.spans () in
  Spans.write trace_file spans;
  let digests = List.map (fun l -> l.Workload.digest ()) [ pre; u; t ] in
  let identity =
    List.for_all (( = ) (List.hd digests)) digests && u_cache = t_cache
  in
  let show (h, m, d) = Printf.sprintf "hits=%d misses=%d direct=%d" h m d in
  Printf.printf "operations %d per pass  output_digest %s\n" n (List.hd digests);
  Printf.printf "identity %s  untraced[%s %s]  traced[%s %s]\n"
    (if identity then "ok" else "FAILED")
    (List.nth digests 1) (show u_cache) (List.nth digests 2) (show t_cache);
  Printf.printf "spans %d written to %s\n" (Array.length spans) trace_file;
  let self = Spans.self_by_name spans in
  let op_total =
    Array.fold_left
      (fun acc s ->
        if s.Spans.name = "op" then acc +. Int64.to_float (Spans.duration_ns s)
        else acc)
      0.0 spans
  in
  let attempted, failed =
    List.fold_left
      (fun (a, f) (samples, (fa, ff)) ->
        let sa, sf = totals samples in
        (a + sa + fa, f + sf + ff))
      (0, 0)
      [ (pre_samples, pre_fin); (u_samples, u_fin); (t_samples, t_fin) ]
  in
  let attempted = max 1 attempted in
  let overhead = (busy t_samples -. busy u_samples) /. busy u_samples in
  let measured =
    t.Workload.layer_metrics self
    @ [
        ("simt.cache.hit_frac", Stats.ratio (float_of_int ph) (float_of_int (ph + pm)));
        ("simt.cache.direct_frac", Stats.ratio (float_of_int pd) (float_of_int ph));
        ("simt.cache.entries", float_of_int entries);
        ("failed_frac", Stats.failed_frac ~failed ~attempted);
        ("trace.overhead_frac", overhead);
        ("par.parallel_for_us", parallel_for_us ());
        ("trace.unattributed_frac", Stats.ratio (Stats.sum (self "op")) op_total);
      ]
  in
  (* Every per-layer metric is reported; one the workload's layers never
     produced reads 0. *)
  let metrics =
    List.map
      (fun m ->
        let v =
          match List.assoc_opt m.Catalogue.name measured with
          | Some v when Float.is_finite v -> v
          | _ -> 0.0
        in
        (m.Catalogue.name, v))
      Catalogue.per_layer
  in
  List.iter (fun (name, v) -> print_metric name v) metrics;
  ({ correct = identity && failed = 0; attempted; failed }, metrics)

let run ~(workload : Workload.t) ~seed ~seconds ~trace ~trace_file =
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d domains=%d\n"
    workload.Workload.name seed seconds (if trace then 1 else 0) domains;
  Printf.printf "input_digest %s\n" workload.Workload.input_digest;
  let outcome, metrics =
    if trace then traced workload ~seconds ~trace_file else untraced workload ~seconds
  in
  json_result outcome metrics;
  outcome.correct
