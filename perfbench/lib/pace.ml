(* Host pace: the wall time of a fixed reference computation, taken
   between operations, by which every end-to-end timing is rescaled.

   The benchmark runs on a few cores of a shared host whose speed for
   this process drifts by up to about 1.8x for seconds to minutes at a
   time (neighbours contending for cores, caches and memory bandwidth;
   no CPU steal shows in /proc/stat).  That drift moves every timing of a
   run together, and no statistic over the run's own samples removes it.
   The probe is plain OCaml that calls no library code, has fixed inputs,
   keeps its data outside the OCaml heap and allocates nothing, so a
   change to the program never moves it and it never moves
   [peak_heap_mb]; what moves it is the host.  A time t measured while
   the probe took p seconds is reported as t * nominal_s / p: the time it
   would take on a host where the probe takes [nominal_s].  The probe
   mixes the workloads' two kinds of work: a memory-bound sparse
   matrix-vector product over a working set larger than L2, and small
   dense LU factorizations with partial pivoting. *)

open Bigarray

(* About the probe's wall time on the 2-vCPU Xeon VM the benchmark was
   tuned on, where it read 2.4-4.7 ms as the host's load varied. *)
let nominal_s = 3.5e-3

type floats = (float, float64_elt, c_layout) Array1.t
type ints = (int, int_elt, c_layout) Array1.t

(* 5-point Laplacian on a [grid] x [grid] mesh in CSR arrays: 800k
   nonzeros, about 14 MB with the vectors. *)
let grid = 400

type csr = { row_ptr : ints; cols : ints; vals : floats; x : floats; y : floats }

let csr =
  lazy
    (let n = grid * grid in
     let row_ptr = Array1.create int c_layout (n + 1) in
     let cols = Array1.create int c_layout (5 * n) in
     let vals = Array1.create float64 c_layout (5 * n) in
     let nnz = ref 0 in
     let add j v =
       cols.{!nnz} <- j;
       vals.{!nnz} <- v;
       incr nnz
     in
     row_ptr.{0} <- 0;
     for i = 0 to n - 1 do
       let x = i mod grid and y = i / grid in
       if y > 0 then add (i - grid) (-1.0);
       if x > 0 then add (i - 1) (-1.0);
       add i 4.0;
       if x < grid - 1 then add (i + 1) (-1.0);
       if y < grid - 1 then add (i + grid) (-1.0);
       row_ptr.{i + 1} <- !nnz
     done;
     let x = Array1.create float64 c_layout n in
     for i = 0 to n - 1 do
       x.{i} <- float_of_int (i mod 7) -. 3.0
     done;
     { row_ptr; cols; vals; x; y = Array1.create float64 c_layout n })

let spmv m =
  for i = 0 to Array1.dim m.y - 1 do
    let s = ref 0.0 in
    for k = m.row_ptr.{i} to m.row_ptr.{i + 1} - 1 do
      s := !s +. (m.vals.{k} *. m.x.{m.cols.{k}})
    done;
    m.y.{i} <- !s
  done

(* [blocks] dense [bs] x [bs] matrices (row-major), refactored in place
   from a fixed source on every probe. *)
let blocks = 24
let bs = 24

let dense =
  lazy
    (let len = blocks * bs * bs in
     let src = Array1.create float64 c_layout len in
     for k = 0 to len - 1 do
       let b = k / (bs * bs) and r = k / bs mod bs and c = k mod bs in
       src.{k} <- float_of_int (((b * 31) + (r * 17) + (c * 7)) mod 23) -. 11.0
     done;
     (src, Array1.create float64 c_layout len))

let getrf (a : floats) off =
  for k = 0 to bs - 1 do
    let p = ref k in
    for r = k + 1 to bs - 1 do
      if Float.abs a.{off + (r * bs) + k} > Float.abs a.{off + (!p * bs) + k} then p := r
    done;
    if !p <> k then
      for c = 0 to bs - 1 do
        let t = a.{off + (k * bs) + c} in
        a.{off + (k * bs) + c} <- a.{off + (!p * bs) + c};
        a.{off + (!p * bs) + c} <- t
      done;
    let d = a.{off + (k * bs) + k} in
    if d <> 0.0 then
      for r = k + 1 to bs - 1 do
        let l = a.{off + (r * bs) + k} /. d in
        a.{off + (r * bs) + k} <- l;
        for c = k + 1 to bs - 1 do
          a.{off + (r * bs) + c} <- a.{off + (r * bs) + c} -. (l *. a.{off + (k * bs) + c})
        done
      done
  done

(* One run of the reference computation. *)
let work () =
  let m = Lazy.force csr and src, a = Lazy.force dense in
  spmv m;
  Array1.blit src a;
  for b = 0 to blocks - 1 do
    getrf a (b * bs * bs)
  done

(* Wall seconds of one probe. *)
let probe () = snd (Wall.time work)

(* The factor that rescales a time measured at probe time [p] to the
   nominal pace. *)
let scale p = nominal_s /. p
