open Vblu_smallblas
open Vblu_simt
open Vblu_sparse

type strategy = Row_per_thread | Shared_memory

type result = {
  blocks : Batch.t;
  stats : Launch.stats;
}

let validate cfg (a : Csr.t) ~block_starts ~block_sizes =
  let k = Array.length block_starts in
  if Array.length block_sizes <> k then
    invalid_arg "Extraction: starts/sizes mismatch";
  let last = ref (-1) in
  for i = 0 to k - 1 do
    let st = block_starts.(i) and s = block_sizes.(i) in
    if s <= 0 || s > cfg.Config.warp_size then
      invalid_arg "Extraction: block size out of range";
    if st <= !last then invalid_arg "Extraction: blocks must be disjoint and sorted";
    if st + s > a.Csr.n_rows || st + s > a.Csr.n_cols then
      invalid_arg "Extraction: block exceeds matrix";
    last := st + s - 1
  done;
  if Csr.nnz a >= 1 lsl 24 then
    invalid_arg "Extraction: matrix too large for 32-bit index staging"

(* Device staging of the CSR structure.  Indices live in a single-precision
   buffer: exact for indices < 2^24 and 4 bytes wide like the int32 arrays
   of the real implementation, so transaction counts match. *)
type device_csr = {
  d_row_ptr : Gmem.t;
  d_col_idx : Gmem.t;
  d_values : Gmem.t;
}

let stage prec (a : Csr.t) =
  {
    d_row_ptr = Gmem.of_array Precision.Single (Array.map float_of_int a.Csr.row_ptr);
    d_col_idx = Gmem.of_array Precision.Single (Array.map float_of_int a.Csr.col_idx);
    d_values = Gmem.of_array prec a.Csr.values;
  }

(* Arena slot map shared by both strategies: regs 0/1 row-pointer loads,
   2 column indices, 3 values, 4 staging for stores, 5 zero splat; masks
   0 = lane<s, 1 = per-chunk activity, 2 = in-block matches; addr slot 0
   for addresses (lo/hi row pointers live in host int arrays — the CSR
   walk is host bookkeeping, not lane traffic). *)
let t_ptr_lo = 0
let t_ptr_hi = 1
let t_cols = 2
let t_vals = 3
let t_stage = 4
let t_zero = 5

let store_block w gout ~off ~s tile =
  let p = Warp.size w in
  let active = Warp.mask_slot w 0 in
  let addrs = Warp.addr_slot w 0 in
  let vals = Warp.reg w t_stage in
  for lane = 0 to p - 1 do
    active.(lane) <- lane < s
  done;
  for j = 0 to s - 1 do
    for lane = 0 to p - 1 do
      addrs.(lane) <- off + (if lane < s then lane + (j * s) else 0);
      vals.(lane) <- (if lane < s then tile.(lane).(j) else 0.0)
    done;
    Warp.store w gout ~active addrs vals
  done

let load_row_ptrs w dev ~start ~s =
  let p = Warp.size w in
  let active = Warp.mask_slot w 0 in
  let addrs = Warp.addr_slot w 0 in
  for lane = 0 to p - 1 do
    active.(lane) <- lane < s;
    addrs.(lane) <- start + min lane (s - 1)
  done;
  Warp.load_into w dev.d_row_ptr ~active addrs ~dst:(Warp.reg w t_ptr_lo);
  for lane = 0 to p - 1 do
    addrs.(lane) <- start + min lane (s - 1) + 1
  done;
  Warp.load_into w dev.d_row_ptr ~active addrs ~dst:(Warp.reg w t_ptr_hi);
  Warp.round_barrier w;
  let lo = Array.map int_of_float (Warp.reg w t_ptr_lo)
  and hi = Array.map int_of_float (Warp.reg w t_ptr_hi) in
  (lo, hi)

(* Naive strategy: lane r walks CSR row (start + r) alone; the warp spins
   for the longest row. *)
let kernel_naive w dev gout ~off ~start ~s =
  let p = Warp.size w in
  let lo, hi = load_row_ptrs w dev ~start ~s in
  let act = Warp.mask_slot w 1 in
  let matched = Warp.mask_slot w 2 in
  let addrs = Warp.addr_slot w 0 in
  let cols = Warp.reg w t_cols
  and vals = Warp.reg w t_vals in
  let maxlen = ref 0 in
  for lane = 0 to s - 1 do
    maxlen := max !maxlen (hi.(lane) - lo.(lane))
  done;
  let tile = Array.make_matrix s s 0.0 in
  for it = 0 to !maxlen - 1 do
    for lane = 0 to p - 1 do
      act.(lane) <- lane < s && lo.(lane) + it < hi.(lane);
      addrs.(lane) <- (if act.(lane) then lo.(lane) + it else lo.(0))
    done;
    Warp.load_into w dev.d_col_idx ~active:act addrs ~dst:cols;
    (* In-block test: two compare instructions. *)
    Charge.fma w 2.0;
    let any = ref false in
    for lane = 0 to p - 1 do
      matched.(lane) <-
        act.(lane)
        && int_of_float cols.(lane) >= start
        && int_of_float cols.(lane) < start + s;
      if matched.(lane) then any := true
    done;
    if !any then begin
      Warp.load_into w dev.d_values ~active:matched addrs ~dst:vals;
      for lane = 0 to s - 1 do
        if matched.(lane) then
          tile.(lane).(int_of_float cols.(lane) - start) <- vals.(lane)
      done
    end
  done;
  store_block w gout ~off ~s tile

(* The paper's strategy: the whole warp streams each row in coalesced
   chunks and parks matches in shared memory. *)
let kernel_shared w dev gout ~off ~start ~s =
  let p = Warp.size w in
  let lo, hi = load_row_ptrs w dev ~start ~s in
  let act = Warp.mask_slot w 1 in
  let matched = Warp.mask_slot w 2 in
  let addrs = Warp.addr_slot w 0 in
  let cols = Warp.reg w t_cols
  and vals = Warp.reg w t_vals in
  let tile = Warp.smem_alloc w (s * s) in
  (* Zero the tile cooperatively. *)
  let zero = Warp.reg w t_zero in
  Array.fill zero 0 p 0.0;
  let words = s * s in
  let rec zero_chunk base =
    if base < words then begin
      for lane = 0 to p - 1 do
        act.(lane) <- base + lane < words;
        addrs.(lane) <- min (base + lane) (words - 1)
      done;
      Warp.smem_store w tile ~active:act addrs zero;
      zero_chunk (base + p)
    end
  in
  zero_chunk 0;
  for r = 0 to s - 1 do
    let len = hi.(r) - lo.(r) in
    let chunks = (len + p - 1) / p in
    for c = 0 to chunks - 1 do
      let base = lo.(r) + (c * p) in
      for lane = 0 to p - 1 do
        act.(lane) <- base + lane < hi.(r);
        addrs.(lane) <- min (base + lane) (hi.(r) - 1)
      done;
      Warp.load_into w dev.d_col_idx ~active:act addrs ~dst:cols;
      Charge.fma w 2.0;
      let any = ref false in
      for lane = 0 to p - 1 do
        matched.(lane) <-
          act.(lane)
          && int_of_float cols.(lane) >= start
          && int_of_float cols.(lane) < start + s;
        if matched.(lane) then any := true
      done;
      if !any then begin
        Warp.load_into w dev.d_values ~active:matched addrs ~dst:vals;
        for lane = 0 to p - 1 do
          addrs.(lane) <-
            (if matched.(lane) then r + ((int_of_float cols.(lane) - start) * s)
             else 0)
        done;
        Warp.smem_store w tile ~active:matched addrs vals
      end
    done
  done;
  (* Hand each row to the thread that will factorize it, then write back. *)
  let dense = Array.make_matrix s s 0.0 in
  let active = Warp.mask_slot w 0 in
  for lane = 0 to p - 1 do
    active.(lane) <- lane < s
  done;
  for j = 0 to s - 1 do
    for lane = 0 to p - 1 do
      addrs.(lane) <- min lane (s - 1) + (j * s)
    done;
    Warp.smem_load_into w tile ~active addrs ~dst:vals;
    for lane = 0 to s - 1 do
      dense.(lane).(j) <- vals.(lane)
    done
  done;
  store_block w gout ~off ~s dense

(* Launch.Cache signature of one block: everything either kernel's charge
   stream reads, packed one word per row and per in-block entry.  Header:
   [s]; [start mod e_idx] (row-pointer loads); [off mod e_val] (block
   stores); the block's first row pointer [mod e_idx] and [mod e_val] —
   every later index/value load address is that pointer plus row lengths
   and positions.  Then per row [lnot len] (negative, so it also delimits
   the row), followed by one word [(pos_in_row lsl 5) lor (col - start)]
   per entry inside the block (columns < s <= 32 fit five bits); entries
   outside the block only matter through the row length.  Duplicates keep
   a word each. *)
let signature ~e_idx ~e_val (a : Csr.t) ~off ~start ~s =
  let rp = a.Csr.row_ptr and ci = a.Csr.col_idx in
  let in_block k = ci.(k) >= start && ci.(k) < start + s in
  let words = ref (5 + s) in
  for k = rp.(start) to rp.(start + s) - 1 do
    if in_block k then incr words
  done;
  let sg = Array.make !words 0 in
  let p0 = rp.(start) in
  sg.(0) <- s;
  sg.(1) <- start mod e_idx;
  sg.(2) <- off mod e_val;
  sg.(3) <- p0 mod e_idx;
  sg.(4) <- p0 mod e_val;
  let w = ref 5 in
  for r = start to start + s - 1 do
    let lo = rp.(r) and hi = rp.(r + 1) in
    sg.(!w) <- lnot (hi - lo);
    incr w;
    for k = lo to hi - 1 do
      if in_block k then begin
        sg.(!w) <- ((k - lo) lsl 5) lor (ci.(k) - start);
        incr w
      end
    done
  done;
  sg

(* [Precision.round] inlined into this unit, bitwise equal to it (and to
   [Gmem.of_array]'s staging): under [-opaque] a call into another unit
   boxes every float it passes or returns.  The gather is an [@inline]
   body instantiated once per precision, so in Double [round] folds away
   (DESIGN §5i). *)
module R = struct
  let[@inline] round p x =
    match p with
    | Precision.Double -> x
    | Single -> Int32.float_of_bits (Int32.bits_of_float x)
end

(* Direct execution: [Csr.extract_block]'s gather of the [s]-by-[s] block
   at row/column [start], written in place at [off] of the output buffer
   and rounded as the staging rounds the values; a later duplicate
   overwrites an earlier one, as in both kernels. *)
let[@inline] gather_k prec (a : Csr.t) out ~start ~s ~off =
  Array.fill out off (s * s) 0.0;
  for r = 0 to s - 1 do
    for k = a.Csr.row_ptr.(start + r) to a.Csr.row_ptr.(start + r + 1) - 1 do
      let c = a.Csr.col_idx.(k) - start in
      if c >= 0 && c < s then
        out.(off + r + (c * s)) <- R.round prec a.Csr.values.(k)
    done
  done

let gather prec a out ~start ~s ~off =
  match prec with
  | Precision.Double ->
    (gather_k [@inlined]) Precision.Double a out ~start ~s ~off
  | Single -> (gather_k [@inlined]) Precision.Single a out ~start ~s ~off

let extract ?(cfg = Config.p100) ?(pool = Vblu_par.Pool.sequential)
    ?(prec = Precision.Double) ?(strategy = Shared_memory) ?obs (a : Csr.t)
    ~block_starts ~block_sizes =
  validate cfg a ~block_starts ~block_sizes;
  let blocks = Batch.shape block_sizes in
  let gout = Gmem.create prec (Batch.total_values blocks) in
  (* Device staging waits for the first problem that is interpreted: a
     launch served entirely by the direct path never needs it.  Domains
     racing to stage build equal copies; the first published one wins. *)
  let staged = Atomic.make None in
  let dev () =
    match Atomic.get staged with
    | Some d -> d
    | None ->
      let d = stage prec a in
      if Atomic.compare_and_set staged None (Some d) then d
      else Option.get (Atomic.get staged)
  in
  let kernel w i =
    let start = block_starts.(i)
    and s = block_sizes.(i)
    and off = blocks.Batch.offsets.(i) in
    match strategy with
    | Row_per_thread -> kernel_naive w (dev ()) gout ~off ~start ~s
    | Shared_memory -> kernel_shared w (dev ()) gout ~off ~start ~s
  in
  (* The salt is the interned sparsity signature of the block, so two
     blocks share a cache entry exactly when their charge streams agree. *)
  let cache =
    let e_idx = Config.elements_per_transaction cfg Precision.Single
    and e_val = Config.elements_per_transaction cfg prec in
    fun i ->
      Launch.Cache.intern
        (signature ~e_idx ~e_val a ~off:blocks.Batch.offsets.(i)
           ~start:block_starts.(i) ~s:block_sizes.(i))
  in
  let direct =
    let out = Gmem.raw gout in
    fun i ->
      gather prec a out ~start:block_starts.(i) ~s:block_sizes.(i)
        ~off:blocks.Batch.offsets.(i);
      0
  in
  let stats =
    Sampling.run ~cfg ~pool ?obs
      ~name:
        (match strategy with
        | Row_per_thread -> "extract.naive"
        | Shared_memory -> "extract.shared")
      ~cache ~direct ~prec ~mode:Sampling.Exact ~sizes:block_sizes ~kernel ()
  in
  { blocks = Batch.with_values blocks (Gmem.raw gout); stats }
