
type stats = {
  time_us : float;
  gflops : float;
  bandwidth_gbs : float;
  warps : int;
  total : Counter.t;
  faults_injected : int;
}

let warp_cycles cfg prec (c : Counter.t) =
  let shfl_cost =
    cfg.Config.shfl_cycles
    *. match prec with
       | Vblu_smallblas.Precision.Double -> cfg.Config.dp_shfl_factor
       | Vblu_smallblas.Precision.Single -> 1.0
  in
  (c.fma_instrs *. Config.fma_cycles cfg prec)
  +. (c.div_instrs *. Config.div_cycles cfg prec)
  +. (c.shfl_instrs *. shfl_cost)
  +. (c.smem_accesses *. cfg.Config.smem_cycles)
  +. (c.gmem_instrs *. cfg.Config.gmem_issue_cycles)

let time ?(cfg = Config.p100) ?(faults_injected = 0) ~prec ~warps ~total
    ~max_warp () =
  if warps <= 0 then invalid_arg "Launch.time: no warps";
  let clock_hz = cfg.Config.clock_ghz *. 1e9 in
  let sms_used = min cfg.Config.num_sms warps in
  let resident = (warps + cfg.Config.num_sms - 1) / cfg.Config.num_sms in
  (* Occupancy ramp: more resident warps (and deeper wave pipelines) fill
     more issue slots, saturating exponentially. *)
  let efficiency =
    cfg.Config.max_issue_efficiency
    *. (1.0 -. exp (-.float_of_int resident /. cfg.Config.occupancy_tau))
  in
  let total_cycles = warp_cycles cfg prec total in
  let compute_s =
    total_cycles /. float_of_int sms_used /. efficiency /. clock_hz
  in
  let serial_s =
    (warp_cycles cfg prec max_warp
    +. (float_of_int max_warp.Counter.gmem_rounds *. cfg.Config.mem_latency_cycles))
    /. clock_hz
  in
  let mem_s =
    total.Counter.gmem_bytes
    /. (cfg.Config.mem_bandwidth_gbs *. cfg.Config.mem_efficiency *. 1e9)
  in
  let time_s =
    (cfg.Config.launch_overhead_us *. 1e-6)
    +. Float.max compute_s (Float.max serial_s mem_s)
  in
  {
    time_us = time_s *. 1e6;
    gflops = total.Counter.useful_flops /. time_s /. 1e9;
    bandwidth_gbs = total.Counter.gmem_bytes /. time_s /. 1e9;
    warps;
    total;
    faults_injected;
  }

(* Defined result for an empty batch: no warps ran, no time was modelled.
   [time] itself still rejects [warps <= 0] — callers that reach it must
   have work — so empty batches short-circuit here instead. *)
let empty_stats () =
  {
    time_us = 0.0;
    gflops = 0.0;
    bandwidth_gbs = 0.0;
    warps = 0;
    total = Counter.create ();
    faults_injected = 0;
  }

(* Cross-launch counter cache.  The cacheable kernels are warp-synchronous
   with data-independent instruction streams: the per-warp counters are a
   pure function of (kernel, precision, problem size, device config) plus
   an integer salt for kernel options that change the charge stream (ABFT
   on/off, rhs count, …).  After the first charging execution of a size
   class, later warps run charge-free and take the cached counters — the
   event signature recorded with the entry verifies the replayed stream
   matched, and a mismatch (a value-dependent path such as a breakdown
   early-exit) falls back to a charging rerun.

   The device config enters the key as its precomputed [Config.fingerprint]
   — one int compare per lookup instead of a polymorphic hash + structural
   compare of the whole 20-odd-field record; [Config.validate] guarantees
   distinct presets get distinct fingerprints.

   Entries additionally certify whether the kernel's direct-execution
   closure reproduced the simulator's result at store time ([direct_ok]);
   certified hits may skip op interpretation entirely (see [Sampling.run]).

   Hit/miss accounting is folded into [find]/[store] on atomics so the hot
   path takes the table mutex exactly once per problem: [find] counts its
   own outcome provisionally, and a caller whose replay check then fails
   reclassifies with [demote_hit].

   A kernel whose charges depend on more than an int can encode (the CSR
   sparsity pattern of an extraction block) packs that dependence into an
   int array and takes [intern]'s id as its salt.  Interning is by
   structural equality over a full-array hash, so distinct signatures get
   distinct ids — nothing is hashed into the salt itself. *)
module Signatures = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec from i = i = n || (a.(i) = b.(i) && from (i + 1)) in
    from 0

  (* FNV-1a over whole words; [Hashtbl.hash] stops after ten elements. *)
  let hash (a : int array) =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x100000001b3
    done;
    !h land max_int
end)

module Cache = struct
  type key = {
    kernel : string;
    prec : Vblu_smallblas.Precision.t;
    size : int;
    salt : int;
    cfg_fp : int;
  }

  type entry = { counter : Counter.t; events : int array; direct_ok : bool }

  let tbl : (key, entry) Hashtbl.t = Hashtbl.create 64
  let interned : int Signatures.t = Signatures.create 64
  let lock = Mutex.create ()
  let enabled_flag = ref true
  let hit_count = Atomic.make 0
  let miss_count = Atomic.make 0
  let direct_count = Atomic.make 0

  let enabled () = !enabled_flag
  let set_enabled b = enabled_flag := b

  let key ~kernel ~prec ~size ~salt ~cfg =
    { kernel; prec; size; salt; cfg_fp = cfg.Config.fingerprint }

  let find k =
    Mutex.lock lock;
    let r = Hashtbl.find_opt tbl k in
    Mutex.unlock lock;
    (match r with
    | Some _ -> Atomic.incr hit_count
    | None -> Atomic.incr miss_count);
    r

  let peek k =
    Mutex.lock lock;
    let r = Hashtbl.find_opt tbl k in
    Mutex.unlock lock;
    r

  let note_hit () = Atomic.incr hit_count

  let store k ~counter ~events ~direct_ok =
    Mutex.lock lock;
    (* Last writer wins: counters of a cacheable kernel are deterministic
       per key, so racing first executions store equal entries. *)
    Hashtbl.replace tbl k { counter; events; direct_ok };
    Mutex.unlock lock

  let intern a =
    Mutex.lock lock;
    let id =
      match Signatures.find_opt interned a with
      | Some id -> id
      | None ->
        let id = Signatures.length interned in
        Signatures.add interned a id;
        id
    in
    Mutex.unlock lock;
    id

  let demote_hit () =
    Atomic.decr hit_count;
    Atomic.incr miss_count

  let note_direct () = Atomic.incr direct_count

  let stats () = (Atomic.get hit_count, Atomic.get miss_count)

  let direct_hits () = Atomic.get direct_count

  let entries () =
    Mutex.lock lock;
    let n = Hashtbl.length tbl in
    Mutex.unlock lock;
    n

  (* Health-snapshot export: last-set-wins gauges, so callers may refresh
     them every reporting window without compounding. *)
  let export_gauges m =
    let hits = Atomic.get hit_count and misses = Atomic.get miss_count in
    let direct = Atomic.get direct_count in
    let lookups = hits + misses in
    let f = float_of_int in
    Vblu_obs.Metrics.set_gauge m "launch.cache.hits" (f hits);
    Vblu_obs.Metrics.set_gauge m "launch.cache.misses" (f misses);
    Vblu_obs.Metrics.set_gauge m "launch.cache.direct_hits" (f direct);
    Vblu_obs.Metrics.set_gauge m "launch.cache.entries" (f (entries ()));
    Vblu_obs.Metrics.set_gauge m "launch.cache.hit_rate"
      (if lookups = 0 then 0.0 else f hits /. f lookups);
    Vblu_obs.Metrics.set_gauge m "launch.cache.direct_fraction"
      (if lookups = 0 then 0.0 else f direct /. f lookups)

  let clear () =
    Mutex.lock lock;
    Hashtbl.reset tbl;
    Signatures.reset interned;
    Atomic.set hit_count 0;
    Atomic.set miss_count 0;
    Atomic.set direct_count 0;
    Mutex.unlock lock
end

let pp_stats ppf s =
  Format.fprintf ppf "%d warps, %.1f us, %.1f GFLOPS, %.1f GB/s" s.warps
    s.time_us s.gflops s.bandwidth_gbs
