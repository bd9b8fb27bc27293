open Vblu_smallblas
open Vblu_simt

type result = {
  products : Batch.t;
  stats : Launch.stats;
}

(* Arena slot map: 0..31 columns of a, 32..63 columns of b, 64 running
   accumulator, 65 broadcast of b(k,j), 66/67 alpha/beta splats, 68 loaded
   column of c. *)
let a_base = 0
let b_base = 32
let t_acc = 64
let t_bkj = 65
let t_alpha = 66
let t_beta = 67
let t_c = 68

let load_rows w g ~off ~st ~s ~base =
  let p = Warp.size w in
  let active = Warp.mask_slot w 0 in
  let addrs = Warp.addr_slot w 0 in
  for j = 0 to s - 1 do
    for lane = 0 to p - 1 do
      addrs.(lane) <- off + (st * ((if lane < s then lane else 0) + (j * s)))
    done;
    Warp.load_into w g ~active addrs ~dst:(Warp.reg w (base + j))
  done

let kernel w ga gb gc gout ~off ~st ~s ~alpha ~beta ~with_c =
  let p = Warp.size w in
  let active = Warp.mask_slot w 0 in
  let addrs = Warp.addr_slot w 0 in
  for lane = 0 to p - 1 do
    active.(lane) <- lane < s
  done;
  (* Registers: lane i holds row i of a (one register per column) and the
     row of c under construction. *)
  load_rows w ga ~off ~st ~s ~base:a_base;
  load_rows w gb ~off ~st ~s ~base:b_base;
  Warp.round_barrier w;
  let acc = Warp.reg w t_acc
  and bkj = Warp.reg w t_bkj
  and alpha_v = Warp.reg w t_alpha
  and beta_v = Warp.reg w t_beta
  and cj = Warp.reg w t_c in
  Array.fill alpha_v 0 p alpha;
  Array.fill beta_v 0 p beta;
  for j = 0 to s - 1 do
    (* c(:,j) = alpha * Σ_k a(:,k) * b(k,j) (+ beta * c(:,j)). *)
    Array.fill acc 0 p 0.0;
    for k = 0 to s - 1 do
      Warp.broadcast_into w ~dst:bkj (Warp.reg w (b_base + j)) ~src:k;
      Warp.fma_into w ~active ~dst:acc (Warp.reg w (a_base + k)) bkj acc
    done;
    Warp.mul_into w ~active ~dst:acc acc alpha_v;
    for lane = 0 to p - 1 do
      addrs.(lane) <- off + (st * ((if lane < s then lane else 0) + (j * s)))
    done;
    if with_c then begin
      Warp.load_into w gc ~active addrs ~dst:cj;
      Warp.fma_into w ~active ~dst:acc cj beta_v acc
    end;
    Warp.store w gout ~active addrs acc
  done;
  let m = float_of_int s in
  Warp.credit_flops w (2.0 *. m *. m *. m)

let name = "gemm"

(* a, b, c and the product share one offset table (sizes are checked
   equal), so a single alignment class plus the with_c flag keys the
   charge stream. *)
let salt ~cfg ~prec ~with_c (a : Batch.t) =
  let align = Config.elements_per_transaction cfg prec in
  fun i -> Staging.mix (Bool.to_int with_c) (Batch.salt_class a i ~align)

let charge ?(cfg = Config.p100) ?obs ~prec ~layout ~with_c sizes =
  Sampling.charge ~cfg ?obs ~name ~prec ~sizes
    ~salt:(salt ~cfg ~prec ~with_c (Batch.shape ~layout sizes))
    ()

let multiply ?(cfg = Config.p100) ?(pool = Vblu_par.Pool.sequential)
    ?(prec = Precision.Double) ?obs ?(alpha = 1.0)
    ?(beta = 0.0) ~(a : Batch.t) ~(b : Batch.t) ?c () =
  if a.Batch.sizes <> b.Batch.sizes then
    invalid_arg "Batched_gemm.multiply: size mismatch between a and b";
  if Batch.layout a <> Batch.layout b then
    invalid_arg "Batched_gemm.multiply: layout mismatch between a and b";
  (match c with
  | Some (c : Batch.t) ->
    if c.Batch.sizes <> a.Batch.sizes then
      invalid_arg "Batched_gemm.multiply: size mismatch with c";
    if Batch.layout c <> Batch.layout a then
      invalid_arg "Batched_gemm.multiply: layout mismatch with c"
  | None -> ());
  Array.iter
    (fun s ->
      if s > cfg.Config.warp_size then
        invalid_arg "Batched_gemm.multiply: block exceeds warp width")
    a.Batch.sizes;
  let ga = Gmem.of_array prec a.Batch.values in
  let gb = Gmem.of_array prec b.Batch.values in
  let with_c = c <> None in
  let gc =
    match c with
    | Some c -> Gmem.of_array prec c.Batch.values
    | None -> Gmem.create prec 1
  in
  let gout = Gmem.create prec (Batch.total_values a) in
  let kern w i =
    Staging.set_cohort w a i;
    kernel w ga gb gc gout ~off:(Batch.base a i) ~st:(Batch.stride a i)
      ~s:a.Batch.sizes.(i) ~alpha ~beta ~with_c
  in
  let cache = Some (salt ~cfg ~prec ~with_c a) in
  (* Direct execution: the column-order host GEMM view repeats the
     kernel's rounding sequence exactly (fma chain from zero, then the
     alpha multiply, then the optional beta fma) — reading the staged
     device buffers so single-precision inputs see the same pre-rounded
     values.  GEMM has no breakdown, so the closure always reports 0. *)
  let direct =
    let va = Gmem.raw ga
    and vb = Gmem.raw gb
    and vout = Gmem.raw gout in
    let vc = if with_c then Some (Gmem.raw gc) else None in
    Some
      (fun i ->
        Matrix.gemm_col_view ~prec ~stride:(Batch.stride a i) ~alpha ~beta
          ?c:vc ~a:va ~b:vb ~dst:vout ~off:(Batch.base a i)
          ~n:a.Batch.sizes.(i) ();
        0)
  in
  let stats =
    Sampling.run ~cfg ~pool ?obs ~name ?cache ?direct ~prec ~mode:Sampling.Exact
      ~sizes:a.Batch.sizes ~kernel:kern ()
  in
  { products = Batch.with_values a (Gmem.raw gout); stats }
