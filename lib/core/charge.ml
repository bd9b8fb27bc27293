open Vblu_smallblas
open Vblu_simt

(* All analytic charging funnels through Warp.charge_* so that the op-event
   signature and the charge-free replay mode (Launch.Cache) see these
   kernels exactly like the functionally simulated ones. *)

let fma w n = Warp.charge_fma w n
let div w n = Warp.charge_div w n
let shfl w n = Warp.charge_shfl w n
let smem w n = Warp.charge_smem w n

let reduction w =
  shfl w 5.0;
  fma w 5.0

let charge_txns w txns = Warp.charge_gmem w ~instrs:1.0 ~txns

let elems_touched w n = Warp.charge_gmem_elems w n

let gmem_coalesced w ~elems =
  if elems > 0 then begin
    let cfg = Warp.cfg w in
    let per = Config.elements_per_transaction cfg (Warp.prec w) in
    let cw = Warp.cohort_width w in
    if cw <= 1 then charge_txns w ((elems + per - 1) / per)
    else begin
      (* Cohort-cooperative: the cohort collectively streams elems·width
         contiguous elements; this problem pays its 1/width share. *)
      let cwf = float_of_int cw in
      let segs = ((elems * cw) + per - 1) / per in
      Warp.charge_gmem_frac w ~instrs:(1.0 /. cwf)
        ~txns:(float_of_int segs /. cwf)
    end;
    elems_touched w elems
  end

let charge_custom w ~instrs ~txns = Warp.charge_gmem w ~instrs ~txns

let gmem_strided_read w ~elems ~stride_bytes =
  if elems > 0 then begin
    elems_touched w elems;
    let cfg = Warp.cfg w in
    let tx = cfg.Config.transaction_bytes in
    let bytes = Precision.bytes (Warp.prec w) in
    let cw = Warp.cohort_width w in
    if cw > 1 then begin
      (* Interleaved: each strided element is a width-wide strip shared by
         the cohort; per element the strip touches at most
         ceil((width + per - 1) / per) segments, amortized over width. *)
      let per = Config.elements_per_transaction cfg (Warp.prec w) in
      let cwf = float_of_int cw in
      let segs_per_elem = (cw + per - 1 + per - 1) / per in
      Warp.charge_gmem_frac w
        ~instrs:(float_of_int (max 1 (elems / 4)) /. cwf)
        ~txns:(float_of_int (elems * segs_per_elem) /. cwf)
    end
    else if stride_bytes >= tx then
      (* Replays serialize the access (four sectors per issue slot); the
         cache turns repeated sector hits of neighbouring steps into a
         footprint's worth of DRAM traffic. *)
      let span = ((elems - 1) * stride_bytes) + bytes in
      charge_custom w
        ~instrs:(float_of_int (max 1 (elems / 4)))
        ~txns:((span + tx - 1) / tx / max 1 (stride_bytes / bytes))
    else begin
      let span = ((elems - 1) * stride_bytes) + bytes in
      charge_txns w ((span + tx - 1) / tx)
    end
  end

let round w = Warp.round_barrier w
