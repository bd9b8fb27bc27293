(* Tests of the benchmark's own arithmetic and contracts: percentiles,
   span self time, failure fractions, the clock, metric names, and that
   seeds change inputs while every output check still passes. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b)

let test_percentiles () =
  let xs = [| 7.; 1.; 10.; 3.; 5.; 2.; 9.; 4.; 8.; 6. |] in
  check "p50 nearest rank" (Stats.percentile xs 50.0 = 5.0);
  check "p90 nearest rank" (Stats.percentile xs 90.0 = 9.0);
  check "p99 nearest rank" (Stats.percentile xs 99.0 = 10.0);
  check "p0 is the minimum" (Stats.percentile xs 0.0 = 1.0);
  check "input left unsorted" (xs.(0) = 7.0);
  check "single sample" (Stats.percentile [| 42. |] 99.0 = 42.0);
  check "empty is nan" (Float.is_nan (Stats.median [||]));
  check "infinite samples rank last"
    (Stats.percentile [| 1.; infinity; 2.; 3. |] 50.0 = 2.0
    && Stats.percentile [| 1.; infinity; 2.; 3. |] 99.0 = infinity);
  check "mean" (close (Stats.mean [| 1.; 2.; 6. |]) 3.0);
  check "cuts" (Stats.cuts 10 ~segments:4 = [| (0, 2); (2, 5); (5, 7); (7, 10) |]);
  check "cuts of too few samples" (Stats.cuts 3 ~segments:5 = [| (0, 3) |]);
  (* Ten operations in five slices of two.  Probes at the nominal pace
     after ops 0 and 3, at half pace (twice as long) after ops 4, 5 and 7,
     none during the last slice, which takes the run's median probe (half
     pace). *)
  let nom = Pace.nominal_s in
  let probes = [| (0, nom); (3, nom); (4, 2.0 *. nom); (5, 2.0 *. nom); (7, 2.0 *. nom) |] in
  check "pace factors halve the times of half-pace slices"
    (Runner.pace_factors 10 probes ~segments:5
    = [| 1.; 1.; 1.; 1.; 0.5; 0.5; 0.5; 0.5; 0.5; 0.5 |]);
  check "a probe at the nominal pace leaves a time as measured" (Pace.scale nom = 1.0)

(* The probe allocates nothing on the OCaml heap (its data is in
   Bigarrays), so it neither moves peak_heap_mb nor depends on GC state. *)
let test_probe () =
  Pace.work ();
  let w0 = Gc.minor_words () in
  Pace.work ();
  check "probe allocates nothing" (Gc.minor_words () -. w0 < 64.0);
  check "probe takes time" (Pace.probe () > 0.0)

let test_failed_frac () =
  check "failed_frac" (close (Stats.failed_frac ~failed:3 ~attempted:12) 0.25);
  check "failed_frac zero" (Stats.failed_frac ~failed:0 ~attempted:5 = 0.0);
  check "failed_frac needs an attempt"
    (match Stats.failed_frac ~failed:0 ~attempted:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "ratio of nothing is 0" (Stats.ratio 0.0 0.0 = 0.0)

let span id name parent s e =
  { Spans.id; name; parent; op = 0; start_ns = Int64.of_int s; end_ns = Int64.of_int e }

let test_self_time () =
  (* Parent [0,100]; children [10,30] and [20,50] overlap, [90,120] runs
     past the parent's end; the grandchild only reduces its own parent. *)
  let spans =
    [| span 0 "p" (-1) 0 100; span 1 "a" 0 10 30; span 2 "b" 0 20 50;
       span 3 "c" 0 90 120; span 4 "g" 1 12 18; span 5 "root2" (-1) 200 260 |]
  in
  let self = Spans.self_times spans in
  check "parent self = duration - union of children" (self.(0) = 50L);
  check "child self excludes grandchild" (self.(1) = 14L);
  check "leaf self is its duration" (self.(2) = 30L && self.(4) = 6L);
  check "root without children" (self.(5) = 60L);
  let by = Spans.self_by_name spans in
  check "self_by_name" (by "a" = [| 14. |] && by "missing" = [||])

let test_recorder () =
  Spans.enable true;
  Spans.set_op 3;
  let r =
    Spans.with_span "outer" (fun () ->
        Spans.with_span "inner" (fun () -> 1) + Spans.with_span "inner" (fun () -> 2))
  in
  (try Spans.with_span "raises" (fun () -> failwith "x") with Failure _ -> ());
  Spans.enable false;
  let s = Spans.spans () in
  check "recorder result" (r = 3);
  check "recorder spans" (Array.length s = 4);
  check "recorder parents"
    (s.(0).Spans.parent = -1 && s.(1).Spans.parent = 0 && s.(2).Spans.parent = 0
    && s.(3).Spans.parent = -1);
  check "recorder op ids" (Array.for_all (fun x -> x.Spans.op = 3) s);
  check "recorder nesting"
    (Array.for_all (fun x -> Int64.compare x.Spans.start_ns x.Spans.end_ns <= 0) s
    && Int64.compare s.(0).Spans.start_ns s.(1).Spans.start_ns <= 0
    && Int64.compare s.(2).Spans.end_ns s.(0).Spans.end_ns <= 0);
  Spans.reset ();
  ignore (Spans.with_span "off" (fun () -> ()));
  check "disabled recorder records nothing" (Spans.spans () = [||])

(* Wall time, not processor time: a sleep advances the benchmark's clock
   by its length while consuming almost no processor time. *)
let test_clock () =
  let mono = ref true and prev = ref (Wall.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Wall.now_ns () in
    if Int64.compare t !prev < 0 then mono := false;
    prev := t
  done;
  check "clock is monotonic" !mono;
  let cpu0 = Sys.time () in
  let (), wall = Wall.time (fun () -> Unix.sleepf 0.05) in
  let cpu = Sys.time () -. cpu0 in
  check "clock measures wall time" (wall >= 0.045 && wall < 1.0 && cpu < wall /. 2.0)

let read path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The benchmark times everything itself: it never reads the library's
   processor-time fields nor passes an observability context. *)
let test_sources () =
  let dir = "../lib" in
  let files =
    "../main.ml"
    :: (Sys.readdir dir |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".ml")
       |> List.map (Filename.concat dir))
  in
  let banned =
    [ "setup_seconds"; "solve_seconds"; "elapsed_seconds";
      "Sys.time"; "gettimeofday"; "Preconditioner.timed"; "Clock.system"; "~obs"; "?obs" ]
  in
  List.iter
    (fun f ->
      let src = read f in
      List.iter
        (fun b ->
          check
            (Printf.sprintf "%s avoids %s" (Filename.basename f) b)
            (not (contains src b)))
        banned)
    files

(* Every metric name in BENCHMARK.json, in order of appearance, within the
   section that starts at [key]. *)
let names_in json key =
  let start =
    let rec find i = if String.sub json i (String.length key) = key then i else find (i + 1) in
    find 0
  in
  let stop = try String.index_from json start ']' with Not_found -> String.length json in
  let section = String.sub json start (stop - start) in
  let marker = "\"name\": \"" in
  let rec collect i acc =
    match
      let rec find j =
        if j + String.length marker > String.length section then None
        else if String.sub section j (String.length marker) = marker then Some j
        else find (j + 1)
      in
      find i
    with
    | None -> List.rev acc
    | Some j ->
      let a = j + String.length marker in
      let b = String.index_from section a '"' in
      collect b (String.sub section a (b - a) :: acc)
  in
  collect 0 []

let test_names () =
  let json = read "../../BENCHMARK.json" and doc = read "../METRICS.md" in
  let names l = List.map (fun m -> m.Catalogue.name) l in
  check "BENCHMARK.json end_to_end = catalogue"
    (names_in json "\"end_to_end\"" = names Catalogue.end_to_end);
  check "BENCHMARK.json per_layer = catalogue"
    (names_in json "\"per_layer\"" = names Catalogue.per_layer);
  List.iter
    (fun m ->
      check
        ("METRICS.md documents " ^ m.Catalogue.name)
        (contains doc ("`" ^ m.Catalogue.name ^ "`")))
    (Catalogue.end_to_end @ Catalogue.workload_specific @ Catalogue.per_layer);
  List.iter
    (fun w -> check ("METRICS.md documents workload " ^ w) (contains doc ("`" ^ w ^ "`")))
    (List.map fst Registry.all)

(* Two seeds give different inputs, and the first operation of every
   workload passes all its output checks on both. *)
let test_seeds () =
  let pool = Vblu_par.Pool.create ~num_domains:1 () in
  List.iter
    (fun (name, make) ->
      let w1 = make ~pool ~seed:1 and w2 = make ~pool ~seed:2 in
      check (name ^ ": seeds give different inputs")
        (w1.Workload.input_digest <> w2.Workload.input_digest);
      check (name ^ ": input digest is a function of the seed")
        ((make ~pool ~seed:1).Workload.input_digest = w1.Workload.input_digest);
      List.iter
        (fun (seed, (w : Workload.t)) ->
          let live, _ = w.Workload.fresh () in
          let s = live.Workload.op 0 in
          let fa, ff = live.Workload.finish () in
          check
            (Printf.sprintf "%s seed %d: output checks pass" name seed)
            (s.Workload.failed = 0 && ff = 0 && s.Workload.attempted + fa > 0))
        [ (1, w1); (2, w2) ])
    Registry.all

let () =
  test_percentiles ();
  test_probe ();
  test_failed_frac ();
  test_self_time ();
  test_recorder ();
  test_clock ();
  test_sources ();
  test_names ();
  test_seeds ();
  if !failures > 0 then begin
    Printf.printf "%d failures\n" !failures;
    exit 1
  end
