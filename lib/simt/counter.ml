type t = {
  mutable fma_instrs : float;
  mutable div_instrs : float;
  mutable shfl_instrs : float;
  mutable smem_accesses : float;
  mutable gmem_instrs : float;
  mutable gmem_transactions : float;
  mutable gmem_bytes : float;
  mutable gmem_elems : float;
  mutable gmem_rounds : int;
  mutable useful_flops : float;
}

let create () =
  {
    fma_instrs = 0.0;
    div_instrs = 0.0;
    shfl_instrs = 0.0;
    smem_accesses = 0.0;
    gmem_instrs = 0.0;
    gmem_transactions = 0.0;
    gmem_bytes = 0.0;
    gmem_elems = 0.0;
    gmem_rounds = 0;
    useful_flops = 0.0;
  }

let copy x =
  {
    fma_instrs = x.fma_instrs;
    div_instrs = x.div_instrs;
    shfl_instrs = x.shfl_instrs;
    smem_accesses = x.smem_accesses;
    gmem_instrs = x.gmem_instrs;
    gmem_transactions = x.gmem_transactions;
    gmem_bytes = x.gmem_bytes;
    gmem_elems = x.gmem_elems;
    gmem_rounds = x.gmem_rounds;
    useful_flops = x.useful_flops;
  }

let reset t =
  t.fma_instrs <- 0.0;
  t.div_instrs <- 0.0;
  t.shfl_instrs <- 0.0;
  t.smem_accesses <- 0.0;
  t.gmem_instrs <- 0.0;
  t.gmem_transactions <- 0.0;
  t.gmem_bytes <- 0.0;
  t.gmem_elems <- 0.0;
  t.gmem_rounds <- 0;
  t.useful_flops <- 0.0

let add acc x =
  acc.fma_instrs <- acc.fma_instrs +. x.fma_instrs;
  acc.div_instrs <- acc.div_instrs +. x.div_instrs;
  acc.shfl_instrs <- acc.shfl_instrs +. x.shfl_instrs;
  acc.smem_accesses <- acc.smem_accesses +. x.smem_accesses;
  acc.gmem_instrs <- acc.gmem_instrs +. x.gmem_instrs;
  acc.gmem_transactions <- acc.gmem_transactions +. x.gmem_transactions;
  acc.gmem_bytes <- acc.gmem_bytes +. x.gmem_bytes;
  acc.gmem_elems <- acc.gmem_elems +. x.gmem_elems;
  (* Rounds measure critical-path depth, not volume: parallel warps overlap
     their latency, so merging takes the max rather than the sum. *)
  acc.gmem_rounds <- max acc.gmem_rounds x.gmem_rounds;
  acc.useful_flops <- acc.useful_flops +. x.useful_flops

let scale_into x f =
  {
    fma_instrs = x.fma_instrs *. f;
    div_instrs = x.div_instrs *. f;
    shfl_instrs = x.shfl_instrs *. f;
    smem_accesses = x.smem_accesses *. f;
    gmem_instrs = x.gmem_instrs *. f;
    (* Scaled exactly; consumers round once on the final totals, so Sampled
       extrapolation no longer picks up a spurious transaction per class. *)
    gmem_transactions = x.gmem_transactions *. f;
    gmem_bytes = x.gmem_bytes *. f;
    gmem_elems = x.gmem_elems *. f;
    gmem_rounds = x.gmem_rounds;
    useful_flops = x.useful_flops *. f;
  }

let credit_flops t f = t.useful_flops <- t.useful_flops +. f

let transactions t = int_of_float (Float.round t.gmem_transactions)
