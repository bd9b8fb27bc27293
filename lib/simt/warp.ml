open Vblu_smallblas
open Vblu_fault

(* Arena geometry: enough lane-width register slots for the widest kernel
   (batched GEMM holds two full 32-column tiles plus a handful of vector
   temporaries), plus predication-mask and address scratch.  At 32 lanes
   the whole arena is ~20 KB per warp, and warps are reused across
   problems, so the cost is per-domain, not per-problem. *)
let reg_slots = 72
let mask_slots = 8
let addr_slots = 4

(* Segment scratch for the coalescing counter: open-addressed, generation
   stamped.  A blocked warp access touches at most [warp_size] distinct
   segments (32); a cohort-cooperative access (interleaved batch layout)
   expands every lane address into its cohort strip of up to 32 elements —
   at most 32 × 9 = 288 distinct segments — so 512 slots keep the load
   factor at or below ~0.6 in the worst case. *)
let seg_slots = 512

(* Rounded arithmetic inlined into this unit, bitwise equal to
   [Precision]'s: under [-opaque] a call into another unit boxes every
   float it passes or returns.  Each lane loop is an [@inline] body that
   its op instantiates once per precision, so in Double [round] folds
   away instead of testing the precision per lane (DESIGN §5i). *)
module R = struct
  let[@inline] round p x =
    match p with
    | Precision.Double -> x
    | Single -> Int32.float_of_bits (Int32.bits_of_float x)

  let[@inline] div p a b = round p (a /. b)
  let[@inline] fma p a b c = round p ((a *. b) +. c)
end

type t = {
  cfg : Config.t;
  prec : Precision.t;
  counter : Counter.t;
  size : int;
  mutable inject : Fault.Injector.t option;
  mutable charging : bool;
  (* Op-event signature: always-on integer call counts, one bump per
     issuing API call.  Cheap enough to keep in charge-free mode, where
     they witness that a cached counter's instruction stream was replayed
     unchanged (see Launch.Cache). *)
  mutable ev_fma : int;
  mutable ev_div : int;
  mutable ev_shfl : int;
  mutable ev_gmem : int;
  mutable ev_smem : int;
  mutable ev_rounds : int;
  (* Cohort-cooperative coalescing context (interleaved batch layout):
     when [co_width > 1], each lane address is the slot-[co_slot] member of
     a [co_width]-wide same-size cohort, and global accesses are charged as
     this problem's 1/width share of the cohort's collective transactions
     (on the modelled GPU one warp serves the whole cohort, one problem per
     lane).  [co_width <= 1] is the classic blocked path, bit-identical to
     the pre-cohort engine. *)
  mutable co_width : int;
  mutable co_slot : int;
  (* Scratch arena. *)
  all_true : bool array;
  seg_slot : int array;
  seg_gen : int array;
  mutable gen : int;
  bank_hits : int array;
  regs : float array array;
  masks : bool array array;
  addrs : int array array;
  mutable in_use : bool;
}

let create ?(cfg = Config.p100) ?inject prec () =
  let size = cfg.Config.warp_size in
  {
    cfg;
    prec;
    counter = Counter.create ();
    size;
    inject;
    charging = true;
    ev_fma = 0;
    ev_div = 0;
    ev_shfl = 0;
    ev_gmem = 0;
    ev_smem = 0;
    ev_rounds = 0;
    co_width = 0;
    co_slot = 0;
    all_true = Array.make size true;
    seg_slot = Array.make seg_slots 0;
    seg_gen = Array.make seg_slots 0;
    gen = 0;
    bank_hits = Array.make cfg.Config.smem_banks 0;
    regs = Array.init reg_slots (fun _ -> Array.make size 0.0);
    masks = Array.init mask_slots (fun _ -> Array.make size false);
    addrs = Array.init addr_slots (fun _ -> Array.make size 0);
    in_use = false;
  }

let reset ?inject t =
  Counter.reset t.counter;
  t.inject <- inject;
  t.charging <- true;
  t.ev_fma <- 0;
  t.ev_div <- 0;
  t.ev_shfl <- 0;
  t.ev_gmem <- 0;
  t.ev_smem <- 0;
  t.ev_rounds <- 0;
  t.co_width <- 0;
  t.co_slot <- 0

let set_charging t b = t.charging <- b

let set_cohort t ~width ~slot =
  if width < 0 || slot < 0 || (width > 1 && slot >= width) then
    invalid_arg "Warp.set_cohort";
  t.co_width <- width;
  t.co_slot <- slot

let clear_cohort t =
  t.co_width <- 0;
  t.co_slot <- 0

let cohort_width t = t.co_width

let events t =
  [| t.ev_fma; t.ev_div; t.ev_shfl; t.ev_gmem; t.ev_smem; t.ev_rounds |]

let events_equal t e =
  Array.length e = 6
  && t.ev_fma = e.(0)
  && t.ev_div = e.(1)
  && t.ev_shfl = e.(2)
  && t.ev_gmem = e.(3)
  && t.ev_smem = e.(4)
  && t.ev_rounds = e.(5)

let acquire t = if t.in_use then false else (t.in_use <- true; true)
let release t = t.in_use <- false

let fault_step t k =
  match t.inject with None -> () | Some inj -> Fault.Injector.step inj k

(* The injection fast path: with no injector attached ([inject = None] —
   the default) every operation pays exactly one immediate match and
   returns its result unchanged, so counters and numerics are bit-identical
   to a build without fault support.  A fired fault corrupts {e data} only;
   it never charges the counters (soft errors are free — only the ABFT
   checks that hunt them cost instructions). *)
let apply_fault t target (a : float array) =
  match t.inject with
  | None -> a
  | Some inj -> (
    match Fault.Injector.take inj target with
    | None -> a
    | Some (lane, kind) ->
      if lane < Array.length a then a.(lane) <- Fault.corrupt kind a.(lane);
      a)

let size t = t.size
let prec t = t.prec
let counter t = t.counter
let cfg t = t.cfg

let reg t i = t.regs.(i)
let mask_slot t i = t.masks.(i)
let addr_slot t i = t.addrs.(i)

let check_lanes t a name =
  if Array.length a <> t.size then
    invalid_arg (name ^ ": lane array of wrong width")

let active_or_all t = function
  | Some a ->
    check_lanes t a "Warp.active";
    a
  | None -> t.all_true

(* {1 Charging} — every issuing call bumps its event; the float counter
   work is skipped when the warp runs charge-free. *)

let charge_fma t n =
  t.ev_fma <- t.ev_fma + 1;
  if t.charging then
    t.counter.Counter.fma_instrs <- t.counter.Counter.fma_instrs +. n

let charge_div t n =
  t.ev_div <- t.ev_div + 1;
  if t.charging then
    t.counter.Counter.div_instrs <- t.counter.Counter.div_instrs +. n

let charge_shfl t n =
  t.ev_shfl <- t.ev_shfl + 1;
  if t.charging then
    t.counter.Counter.shfl_instrs <- t.counter.Counter.shfl_instrs +. n

let charge_smem t n =
  t.ev_smem <- t.ev_smem + 1;
  if t.charging then
    t.counter.Counter.smem_accesses <- t.counter.Counter.smem_accesses +. n

let charge_gmem t ~instrs ~txns =
  t.ev_gmem <- t.ev_gmem + 1;
  if t.charging then begin
    t.counter.Counter.gmem_instrs <- t.counter.Counter.gmem_instrs +. instrs;
    t.counter.Counter.gmem_transactions <-
      t.counter.Counter.gmem_transactions +. float_of_int txns;
    t.counter.Counter.gmem_bytes <-
      t.counter.Counter.gmem_bytes
      +. float_of_int (txns * t.cfg.Config.transaction_bytes)
  end

(* Fractional-transaction variant for cohort-amortized charges: a cohort
   access costs the collective transactions divided by the cohort width,
   which is not an integer per problem. *)
let charge_gmem_frac t ~instrs ~txns =
  t.ev_gmem <- t.ev_gmem + 1;
  if t.charging then begin
    t.counter.Counter.gmem_instrs <- t.counter.Counter.gmem_instrs +. instrs;
    t.counter.Counter.gmem_transactions <-
      t.counter.Counter.gmem_transactions +. txns;
    t.counter.Counter.gmem_bytes <-
      t.counter.Counter.gmem_bytes
      +. (txns *. float_of_int t.cfg.Config.transaction_bytes)
  end

let charge_gmem_elems t n =
  t.ev_gmem <- t.ev_gmem + 1;
  if t.charging then
    t.counter.Counter.gmem_elems <-
      t.counter.Counter.gmem_elems +. float_of_int n

let credit_flops t f = if t.charging then Counter.credit_flops t.counter f

(* {1 Arithmetic} — every op writes a caller-chosen destination. *)

(* [dst <- ±a·b + c] on the active lanes; [neg] is a constant at each
   instantiation. *)
let[@inline] fma_k prec ~neg act ~dst a b c n =
  for i = 0 to n - 1 do
    dst.(i) <-
      (if act.(i) then R.fma prec (if neg then -.a.(i) else a.(i)) b.(i) c.(i)
       else c.(i))
  done

let fma_into_gen t ~neg ?active ~dst a b c name =
  check_lanes t a name;
  check_lanes t b name;
  check_lanes t c name;
  check_lanes t dst name;
  let act = active_or_all t active in
  charge_fma t 1.0;
  (match t.prec with
  | Precision.Double ->
    (fma_k [@inlined]) Precision.Double ~neg act ~dst a b c t.size
  | Single -> (fma_k [@inlined]) Precision.Single ~neg act ~dst a b c t.size);
  ignore (apply_fault t Register dst)

let fma_into t ?active ~dst a b c =
  fma_into_gen t ~neg:false ?active ~dst a b c "Warp.fma_into"

let fnma_into t ?active ~dst a b c =
  fma_into_gen t ~neg:true ?active ~dst a b c "Warp.fnma_into"

(* The operator is a tag, not a closure: a closure call per lane would box
   both operands and the result. *)
type lane_op = Add | Mul

let[@inline] lanewise2_k prec op act ~dst a b n =
  for i = 0 to n - 1 do
    dst.(i) <-
      (if act.(i) then
         let x = a.(i) and y = b.(i) in
         R.round prec
           (match op with Add -> x +. y | Mul -> x *. y)
       else a.(i))
  done

let lanewise2_into t ?active op name ~dst a b =
  check_lanes t a name;
  check_lanes t b name;
  check_lanes t dst name;
  let act = active_or_all t active in
  charge_fma t 1.0;
  (match t.prec with
  | Precision.Double ->
    (lanewise2_k [@inlined]) Precision.Double op act ~dst a b t.size
  | Single -> (lanewise2_k [@inlined]) Precision.Single op act ~dst a b t.size);
  ignore (apply_fault t Register dst)

let add_into t ?active ~dst a b =
  lanewise2_into t ?active Add "Warp.add_into" ~dst a b

let mul_into t ?active ~dst a b =
  lanewise2_into t ?active Mul "Warp.mul_into" ~dst a b

let[@inline] div_k prec act ~dst a b n =
  for i = 0 to n - 1 do
    dst.(i) <- (if act.(i) then R.div prec a.(i) b.(i) else a.(i))
  done

let div_into t ?active ~dst a b =
  check_lanes t a "Warp.div_into";
  check_lanes t b "Warp.div_into";
  check_lanes t dst "Warp.div_into";
  let act = active_or_all t active in
  charge_div t 1.0;
  (match t.prec with
  | Precision.Double -> (div_k [@inlined]) Precision.Double act ~dst a b t.size
  | Single -> (div_k [@inlined]) Precision.Single act ~dst a b t.size);
  ignore (apply_fault t Register dst)

let[@inline] sqrt_k prec act ~dst a n =
  for i = 0 to n - 1 do
    dst.(i) <- (if act.(i) then R.round prec (sqrt a.(i)) else a.(i))
  done

let sqrt_into t ?active ~dst a =
  check_lanes t a "Warp.sqrt_into";
  check_lanes t dst "Warp.sqrt_into";
  let act = active_or_all t active in
  charge_div t 1.0;
  (match t.prec with
  | Precision.Double -> (sqrt_k [@inlined]) Precision.Double act ~dst a t.size
  | Single -> (sqrt_k [@inlined]) Precision.Single act ~dst a t.size);
  ignore (apply_fault t Register dst)

let broadcast_into t ~dst x ~src =
  check_lanes t x "Warp.broadcast_into";
  check_lanes t dst "Warp.broadcast_into";
  if src < 0 || src >= t.size then
    invalid_arg "Warp.broadcast_into: bad source lane";
  charge_shfl t 1.0;
  (* Read before fill: [dst] may alias [x]. *)
  let v = x.(src) in
  Array.fill dst 0 t.size v

(* Exact integer ceil(log2 n) — the float round-trip through [log] it
   replaces was correct only by luck of the libm at the sizes we use. *)
let ceil_log2 n =
  let r = ref 0 and v = ref 1 in
  while !v < n do
    incr r;
    v := !v * 2
  done;
  !r

let argmax_abs t ?active x =
  check_lanes t x "Warp.argmax_abs";
  let act = active_or_all t active in
  (* Butterfly reduction: log2(size) shuffle + compare/select rounds. *)
  let rounds = ceil_log2 t.size in
  charge_shfl t (float_of_int rounds);
  charge_fma t (float_of_int rounds);
  let best = ref (-1) in
  for i = 0 to t.size - 1 do
    if act.(i) && (!best < 0 || Float.abs x.(i) > Float.abs x.(!best)) then
      best := i
  done;
  if !best < 0 then invalid_arg "Warp.argmax_abs: no active lane";
  !best

(* Coalescing: distinct transaction segments touched by the active lanes.
   A perfectly coalesced access costs one issue slot; address divergence
   serializes into replays — charged as the ratio of touched segments to
   the coalesced minimum (two segments per replay slot).  The distinct-
   segment count runs over the warp's generation-stamped scratch table:
   no per-access table allocation, and a single stamp bump retires the
   previous access's entries.

   Cohort-cooperative mode ([co_width > 1], interleaved batch layout): on
   the modelled GPU one warp serves a whole same-size cohort, one problem
   per lane, so the element this kernel touches per lane address is
   touched {e simultaneously} for all [co_width] cohort members — the
   collective footprint of the access is, per lane, the contiguous strip
   [addr - slot, addr - slot + width).  We count the distinct segments of
   the union of those strips and charge this problem its 1/width share of
   the collective transactions, bytes and replays.  [gmem_elems] (the
   logical pre-coalescing volume) stays per-problem. *)
(* Stamp segment [s] into the table for generation [stamp]; true when it
   was not there yet.  A top-level function rather than a closure over the
   access's count, so an access allocates nothing. *)
let seg_insert t stamp s =
  let h = ref (s * 0x9e3779b1 land (seg_slots - 1)) in
  while t.seg_gen.(!h) = stamp && t.seg_slot.(!h) <> s do
    h := (!h + 1) land (seg_slots - 1)
  done;
  let fresh = t.seg_gen.(!h) <> stamp in
  if fresh then begin
    t.seg_gen.(!h) <- stamp;
    t.seg_slot.(!h) <- s
  end;
  fresh

let count_transactions t mem addrs act =
  t.ev_gmem <- t.ev_gmem + 1;
  if t.charging then begin
    let seg_elems = Config.elements_per_transaction t.cfg (Gmem.prec mem) in
    t.gen <- t.gen + 1;
    let stamp = t.gen in
    let n = ref 0 in
    let active = ref 0 in
    if t.co_width <= 1 then begin
      for i = 0 to t.size - 1 do
        if act.(i) then begin
          incr active;
          if seg_insert t stamp (addrs.(i) / seg_elems) then incr n
        end
      done;
      let n = !n in
      let min_txns = max 1 ((!active + seg_elems - 1) / seg_elems) in
      let replays =
        Float.max 1.0 (float_of_int n /. float_of_int min_txns /. 2.0)
      in
      t.counter.Counter.gmem_instrs <- t.counter.Counter.gmem_instrs +. replays;
      t.counter.Counter.gmem_transactions <-
        t.counter.Counter.gmem_transactions +. float_of_int n;
      t.counter.Counter.gmem_bytes <-
        t.counter.Counter.gmem_bytes
        +. float_of_int (n * t.cfg.Config.transaction_bytes);
      t.counter.Counter.gmem_elems <-
        t.counter.Counter.gmem_elems +. float_of_int !active
    end
    else begin
      let width = t.co_width and slot = t.co_slot in
      for i = 0 to t.size - 1 do
        if act.(i) then begin
          incr active;
          let lo = addrs.(i) - slot in
          let s0 = lo / seg_elems and s1 = (lo + width - 1) / seg_elems in
          for s = s0 to s1 do
            if seg_insert t stamp s then incr n
          done
        end
      done;
      let n = !n in
      let wf = float_of_int width in
      (* Collective coalesced minimum: the cohort touches active·width
         elements per access. *)
      let min_txns =
        max 1 (((!active * width) + seg_elems - 1) / seg_elems)
      in
      let replays =
        Float.max 1.0 (float_of_int n /. float_of_int min_txns /. 2.0)
      in
      t.counter.Counter.gmem_instrs <-
        t.counter.Counter.gmem_instrs +. (replays /. wf);
      t.counter.Counter.gmem_transactions <-
        t.counter.Counter.gmem_transactions +. (float_of_int n /. wf);
      t.counter.Counter.gmem_bytes <-
        t.counter.Counter.gmem_bytes
        +. (float_of_int (n * t.cfg.Config.transaction_bytes) /. wf);
      t.counter.Counter.gmem_elems <-
        t.counter.Counter.gmem_elems +. float_of_int !active
    end
  end

let load_into t mem ?active addrs ~dst =
  check_lanes t addrs "Warp.load_into";
  check_lanes t dst "Warp.load_into";
  let act = active_or_all t active in
  count_transactions t mem addrs act;
  let data = Gmem.raw mem in
  for i = 0 to t.size - 1 do
    dst.(i) <- (if act.(i) then data.(addrs.(i)) else 0.0)
  done;
  ignore (apply_fault t Global dst)

(* Rounded scatter of the active lanes, shared by global and shared
   stores. *)
let[@inline] scatter_k prec act data addrs values n =
  for i = 0 to n - 1 do
    if act.(i) then data.(addrs.(i)) <- R.round prec values.(i)
  done

let scatter prec act data addrs values n =
  match prec with
  | Precision.Double ->
    (scatter_k [@inlined]) Precision.Double act data addrs values n
  | Single -> (scatter_k [@inlined]) Precision.Single act data addrs values n

let store t mem ?active addrs values =
  check_lanes t addrs "Warp.store";
  check_lanes t values "Warp.store";
  let act = active_or_all t active in
  count_transactions t mem addrs act;
  (* [Gmem.set]'s rounding, inlined. *)
  scatter (Gmem.prec mem) act (Gmem.raw mem) addrs values t.size;
  (* A global-memory fault on a store corrupts the cell in DRAM itself,
     after (and bypassing) the precision rounding of the store path. *)
  match t.inject with
  | None -> ()
  | Some inj -> (
    match Fault.Injector.take inj Global with
    | Some (lane, kind) when act.(lane) ->
      Gmem.corrupt mem addrs.(lane) (Fault.corrupt kind)
    | _ -> ())

let round_barrier t =
  t.ev_rounds <- t.ev_rounds + 1;
  if t.charging then
    t.counter.Counter.gmem_rounds <- t.counter.Counter.gmem_rounds + 1

type smem = { data : float array }

let smem_alloc _t n = { data = Array.make n 0.0 }

let charge_smem_access t sm addrs act =
  (* Serialized passes = worst bank multiplicity (same-address lanes would
     broadcast, but the small-block kernels never co-address, so we charge
     the simple rule). *)
  t.ev_smem <- t.ev_smem + 1;
  ignore sm;
  if t.charging then begin
    let banks = t.cfg.Config.smem_banks in
    let hits = t.bank_hits in
    Array.fill hits 0 banks 0;
    (* The int maximum is tracked in the loop: a fold with the polymorphic
       [max] would make a compare call per bank. *)
    let passes = ref 1 in
    for i = 0 to t.size - 1 do
      if act.(i) then begin
        let b = addrs.(i) mod banks in
        let h = hits.(b) + 1 in
        hits.(b) <- h;
        if h > !passes then passes := h
      end
    done;
    t.counter.Counter.smem_accesses <-
      t.counter.Counter.smem_accesses +. float_of_int !passes
  end

let smem_store t sm ?active addrs values =
  check_lanes t addrs "Warp.smem_store";
  check_lanes t values "Warp.smem_store";
  let act = active_or_all t active in
  charge_smem_access t sm addrs act;
  scatter t.prec act sm.data addrs values t.size;
  (match t.inject with
  | None -> ()
  | Some inj -> (
    match Fault.Injector.take inj Shared with
    | Some (lane, kind) when act.(lane) ->
      sm.data.(addrs.(lane)) <- Fault.corrupt kind sm.data.(addrs.(lane))
    | _ -> ()))

let smem_load_into t sm ?active addrs ~dst =
  check_lanes t addrs "Warp.smem_load_into";
  check_lanes t dst "Warp.smem_load_into";
  let act = active_or_all t active in
  charge_smem_access t sm addrs act;
  for i = 0 to t.size - 1 do
    dst.(i) <- (if act.(i) then sm.data.(addrs.(i)) else 0.0)
  done;
  ignore (apply_fault t Shared dst)

let smem_read sm i = sm.data.(i)
