(* Host numerics under the dev build: allocation guards and bit-identity.

   The dev profile compiles every unit [-opaque], so a call into another
   unit that passes or returns a float boxes it.  Each per-element kernel
   therefore does its precision rounding inside its own unit (DESIGN §5i).
   The "allocation" group pins that: a kernel's minor-heap words must not
   grow with the problem size (a boxed op in the loop costs several words
   per element), and a kernel writing into caller buffers must allocate
   nothing at all per Double call (a loop body that lost its per-precision
   inlining allocates its leftover closure).  The "bit-identity" group
   checks every rewritten kernel, in both precisions, against a reference
   written here with [Precision.*], on inputs full of NaN, infinities,
   subnormals and signed zeros, and pins how NaN and infinities flow
   through the direct views against the interpreter. *)

open Vblu_smallblas
open Vblu_sparse
open Vblu_simt
open Vblu_core
open Vblu_precond

let precs = [ Precision.Double; Precision.Single ]

(* Minor-heap words allocated by one call of [f], after a warm-up call
   (lazily built state, such as a preconditioner's per-block solvers,
   belongs to the first apply only). *)
let words f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let state seed = Random.State.make [| 0xa110c; seed |]

(* Block-tridiagonal CSR with dense [bs]-by-[bs] diagonal blocks and a
   scalar coupling to the neighbouring rows: nonsingular and
   diagonally dominant, so every block factors cleanly. *)
let banded ~n ~bs =
  let st = state n in
  let rows = Array.make n [] in
  for i = 0 to n - 1 do
    let b0 = i / bs * bs in
    let cols = ref [] in
    for j = max 0 (b0 - 1) to min (n - 1) (b0 + bs) do
      if j = i then cols := (j, 4.0 *. float_of_int bs) :: !cols
      else if (j >= b0 && j < b0 + bs) || j = i - bs || j = i + bs then
        cols := (j, Random.State.float st 2.0 -. 1.0) :: !cols
    done;
    rows.(i) <- List.rev !cols
  done;
  let row_ptr = Array.make (n + 1) 0 in
  Array.iteri (fun i r -> row_ptr.(i + 1) <- row_ptr.(i) + List.length r) rows;
  let entries = Array.concat (Array.to_list (Array.map Array.of_list rows)) in
  Csr.create ~n_rows:n ~n_cols:n ~row_ptr ~col_idx:(Array.map fst entries)
    ~values:(Array.map snd entries)

(* [a] laid out at offset 1 with element stride 2, gaps filled with 7.0 —
   a view's off/stride addressing must neither miss an element nor touch
   a gap. *)
let strided a =
  Array.init
    ((2 * Array.length a) + 1)
    (fun e -> if e >= 1 && (e - 1) mod 2 = 0 then a.((e - 1) / 2) else 7.0)

(* [a] at offset 1 and unit stride. *)
let shifted a = Array.append [| 7.0 |] a

(* ------------------------------------------------------------------ *)
(* Allocation guards                                                   *)

(* [words_at n] must not depend on [n]: compare the two sizes exactly. *)
let check_flat name words_at (n1, n2) =
  let w1 = words_at n1 and w2 = words_at n2 in
  if w1 <> w2 then
    Alcotest.failf "%s: %.0f words at n=%d but %.0f at n=%d" name w1 n1
      w2 n2

let test_vector () =
  List.iter
    (fun prec ->
      let ps = Precision.to_string prec in
      let vecs n =
        let st = state n in
        (Vector.random ~state:st n, Vector.random ~state:st n)
      in
      let sizes = (1_000, 20_000) in
      check_flat ("dot " ^ ps)
        (fun n ->
          let x, y = vecs n in
          words (fun () -> ignore (Sys.opaque_identity (Vector.dot ~prec x y))))
        sizes;
      check_flat ("nrm2 " ^ ps)
        (fun n ->
          let x, _ = vecs n in
          words (fun () -> ignore (Sys.opaque_identity (Vector.nrm2 ~prec x))))
        sizes;
      check_flat ("axpy " ^ ps)
        (fun n ->
          let x, y = vecs n in
          words (fun () -> Vector.axpy ~prec 0.5 x y))
        sizes;
      check_flat ("scal " ^ ps)
        (fun n ->
          let x, _ = vecs n in
          words (fun () -> Vector.scal ~prec 0.5 x))
        sizes)
    precs

let test_spmv () =
  List.iter
    (fun prec ->
      check_flat
        ("spmv_into " ^ Precision.to_string prec)
        (fun n ->
          let a = banded ~n ~bs:8 in
          let x = Vector.random ~state:(state 1) n and y = Vector.create n in
          words (fun () -> Csr.spmv_into ~prec a x y))
        (800, 8_000))
    precs

let test_trsv () =
  List.iter
    (fun prec ->
      let ps = Precision.to_string prec in
      let factors n =
        Lu.factor_implicit ~prec (Matrix.random_diagdom ~state:(state n) n)
      in
      List.iter
        (fun (stride, view) ->
          check_flat
            (Printf.sprintf "pair_eager_view stride %d %s" stride ps)
            (fun n ->
              let f = factors n in
              let m = view f.Lu.lu.Matrix.a in
              let b = view (Vector.random ~state:(state 3) n) in
              words (fun () ->
                  ignore
                    (Sys.opaque_identity
                       (Trsv.pair_eager_view ~prec ~mstride:stride
                          ~bstride:stride ~m ~moff:1 ~n ~b ~boff:1 ()))))
            (16, 96))
        [ (1, shifted); (2, strided) ];
      (* A solve allocates its result (n floats plus a header) and
         nothing per element. *)
      check_flat ("solve " ^ ps)
        (fun n ->
          let f = factors n in
          let b = Vector.random ~state:(state 2) n in
          words (fun () ->
              ignore
                (Sys.opaque_identity (Trsv.solve ~prec f.Lu.lu f.Lu.perm b)))
          -. float_of_int (n + 1))
        (16, 96);
      check_flat ("factor_implicit_view " ^ ps)
        (fun n ->
          let src = (Matrix.random_diagdom ~state:(state n) n).Matrix.a in
          let dst = Array.make (n * n) 0.0 and tile = Array.make (n * n) 0.0 in
          let step = Array.make n 0 and perm = Array.make n 0 in
          words (fun () ->
              ignore
                (Sys.opaque_identity
                   (Lu.factor_implicit_view ~prec ~src ~dst ~off:0 ~n ~tile
                      ~step ~perm ()))))
        (16, 96))
    precs

let test_block_jacobi_apply () =
  (* The apply allocates its result vector (n floats plus a header) and a
     size-independent constant — nothing per block or per element.  Both
     sizes keep the result below [Max_young_wosize] (256 words), so it is
     allocated on the minor heap where [words] sees it.  Blocks of order 7
     run the eager pair's one-column tail. *)
  List.iter
    (fun prec ->
      List.iter
        (fun (bs, sizes) ->
          check_flat
            (Printf.sprintf "block-jacobi apply overhead %s bs=%d"
               (Precision.to_string prec) bs)
            (fun n ->
              let p, _ =
                Block_jacobi.create ~prec ~max_block_size:bs
                  ~blocking:(Supervariable.uniform ~n ~block_size:bs)
                  (banded ~n ~bs)
              in
              let r = Vector.random ~state:(state 4) n in
              words (fun () ->
                  ignore (Sys.opaque_identity (Preconditioner.apply p r)))
              -. float_of_int (n + 1))
            sizes)
        [ (8, (64, 248)); (7, (63, 245)) ])
    precs

let test_block_ilu0_apply () =
  (* After the first apply (the charge pass) a Double block-ILU(0) apply
     is one host sweep per triangle: its result vector (n floats plus a
     header) and a small constant, never a staged batch or a launch. *)
  let overhead = 8.0 in
  check_flat "block-ilu0 apply overhead"
    (fun n ->
      let p, _ = Block_ilu0.create ~max_block_size:8 (banded ~n ~bs:8) in
      let r = Vector.random ~state:(state 5) n in
      let w =
        words (fun () -> ignore (Sys.opaque_identity (Preconditioner.apply p r)))
        -. float_of_int (n + 1)
      in
      if w > overhead then
        Alcotest.failf "block-ilu0 apply: %.0f words beyond the result at n=%d"
          w n;
      w)
    (64, 248)

let test_block_ilu0_update () =
  (* A warm forced refresh refills the arenas in place, factors into the
     existing storage and charges every wave from the launch cache: a
     bounded number of words per block row — wave shapes, cache keys,
     launch stats — and none that grow with the block size.  Both sizes
     keep an s×s block below [Max_young_wosize], so a per-block arena
     allocation would show on the minor heap. *)
  let blocks = 12 and bound = 1000.0 in
  List.iter
    (fun prec ->
      check_flat
        ("block-ilu0 warm update " ^ Precision.to_string prec)
        (fun bs ->
          let n = blocks * bs in
          let a = banded ~n ~bs in
          let h =
            Block_ilu0.handle ~prec
              ~blocking:(Supervariable.uniform ~n ~block_size:bs)
              a
          in
          let w =
            words (fun () -> ignore (Block_ilu0.update ~force_all:true h a))
          in
          if w > bound *. float_of_int blocks then
            Alcotest.failf "block-ilu0 update: %.0f words for %d blocks of %d" w
              blocks bs;
          w)
        (4, 8))
    precs

let test_launch_major_words () =
  (* A warm Double launch reads its input batch in place and returns the
     buffer its kernels wrote: the major heap takes that one output buffer
     (plus the LU's pivot vector), not also a staged input copy, a
     copy-out and a result batch to blit it into.  Every batch-sized
     buffer here is far above [Max_young_wosize], so it is allocated on
     the major heap directly. *)
  let st = state 11 in
  let sizes =
    Batch.random_sizes ~state:st ~count:200 ~min_size:1 ~max_size:32 ()
  in
  let b = Batch.random_diagdom ~state:st sizes in
  let rhs = Batch.vec_random ~state:st sizes in
  let total = float_of_int (Batch.total_values b) in
  let per_value f =
    f ();
    let _, _, m0 = Gc.counters () in
    f ();
    let _, _, m1 = Gc.counters () in
    (m1 -. m0) /. total
  in
  let lu = Batched_lu.factor b in
  let getrf = per_value (fun () -> ignore (Batched_lu.factor b)) in
  let trsv =
    per_value (fun () ->
        ignore
          (Batched_trsv.solve ~factors:lu.Batched_lu.factors
             ~pivots:lu.Batched_lu.pivots rhs))
  in
  if getrf >= 1.5 then
    Alcotest.failf "warm getrf: %.2f major words per batch value" getrf;
  if trsv >= 0.5 then
    Alcotest.failf "warm trsv: %.2f major words per batch value" trsv

let test_idr_iteration () =
  (* Each IDR(4) iteration allocates the identity preconditioner's result
     (n floats plus a header) and a size-independent constant — s-vectors
     and boxed scalars — but no n-vector of its own: the products, the
     inner step's operand and the new directions live in per-solve
     workspaces.  With rtol 0 the solve runs to its cap, so the words
     between two caps are those of the extra iterations.  n stays below
     [Max_young_wosize], so every vector is allocated on the minor heap,
     whose counter is exact (the major-heap counters behind
     [Gc.allocated_bytes] are flushed lazily). *)
  let slack = 128.0 in
  let a =
    Vblu_workloads.Generators.convection_diffusion_2d ~nx:15 ~ny:15
      ~peclet:20.0 ()
  in
  let n, _ = Csr.dims a in
  let b = Vector.random ~state:(state 6) n in
  List.iter
    (fun prec ->
      let words_at max_iters =
        let config = { Vblu_krylov.Solver.max_iters; rtol = 0.0 } in
        let w0 = Gc.minor_words () in
        let _, stats = Vblu_krylov.Idr.solve ~prec ~config a b in
        let w = Gc.minor_words () -. w0 in
        Alcotest.(check int)
          ("runs to the cap " ^ Precision.to_string prec)
          max_iters stats.Vblu_krylov.Solver.iterations;
        w
      in
      let lo = 20 and hi = 60 in
      let per_iter =
        (words_at hi -. words_at lo) /. float_of_int (hi - lo)
        -. float_of_int (n + 1)
      in
      if per_iter > slack then
        Alcotest.failf "idr %s: %.0f words per iteration beyond the result"
          (Precision.to_string prec) per_iter)
    precs

let test_warp () =
  (* The lane ops run on arena slots.  Charge-free (a cache replay) they
     allocate nothing.  Charging, an op boxes its float counter updates
     (the counter record has an int field, so its floats are boxed): at
     most four, 8 words, whatever the lane count. *)
  List.iter
    (fun prec ->
      let w = Warp.create prec () in
      let a = Warp.reg w 0 and b = Warp.reg w 1 and c = Warp.reg w 2 in
      let dst = Warp.reg w 3 and addrs = Warp.addr_slot w 0 in
      Array.iteri (fun i _ -> a.(i) <- float_of_int (i + 1)) a;
      Array.blit a 0 b 0 (Array.length a);
      Array.iteri (fun i _ -> addrs.(i) <- 3 * i) addrs;
      let mem = Gmem.create prec (3 * Warp.size w) in
      let sm = Warp.smem_alloc w (3 * Warp.size w) in
      let ops =
        [
          ("fma_into", fun () -> Warp.fma_into w ~dst a b c);
          ("fnma_into", fun () -> Warp.fnma_into w ~dst a b c);
          ("add_into", fun () -> Warp.add_into w ~dst a b);
          ("mul_into", fun () -> Warp.mul_into w ~dst a b);
          ("div_into", fun () -> Warp.div_into w ~dst a b);
          ("sqrt_into", fun () -> Warp.sqrt_into w ~dst a);
          ("store", fun () -> Warp.store w mem addrs a);
          ("load_into", fun () -> Warp.load_into w mem addrs ~dst);
          ("smem_store", fun () -> Warp.smem_store w sm addrs a);
          ("smem_load_into", fun () -> Warp.smem_load_into w sm addrs ~dst);
        ]
      in
      List.iter
        (fun (name, op) ->
          let label = Printf.sprintf "%s %s" name (Precision.to_string prec) in
          Warp.set_charging w false;
          Alcotest.(check (float 0.0)) (label ^ " charge-free words") 0.0
            (words op);
          Warp.set_charging w true;
          let charged = words op in
          if charged > 8.0 then
            Alcotest.failf "%s: %.0f words charged (lanes: %d)" label charged
              (Warp.size w))
        ops)
    precs

(* Exactly zero words per Double call for every kernel that writes into
   caller-supplied buffers.  The constant arguments are static, and no
   [?prec] is passed (a [Some] would be the caller's allocation). *)
let test_zero_alloc () =
  let n = 24 in
  let st = state 5 in
  let x = Vector.random ~state:st n and y = Vector.random ~state:st n in
  let mat = Matrix.random_diagdom ~state:st n in
  let lu = (Lu.factor_implicit mat).Lu.lu in
  let lu2 = strided lu.Matrix.a and y2 = strided y in
  let src = mat.Matrix.a in
  let spd =
    Matrix.init n n (fun i j ->
        if i = j then float_of_int (2 * n) else 1.0 /. float_of_int (1 + i + j))
  in
  let chol = Cholesky.factor spd in
  let a = banded ~n:96 ~bs:8 in
  let xs = Vector.random ~state:st 96 and ys = Vector.create 96 in
  let dst = Array.make (n * n) 0.0 and tile = Array.make (n * n) 0.0 in
  let step = Array.make n 0 and perm = Array.make n 0 in
  let c = Some (Array.copy src) in
  let int_result f () = ignore (Sys.opaque_identity (f ())) in
  List.iter
    (fun (name, f) ->
      Alcotest.(check (float 0.0)) (name ^ " words per Double call") 0.0
        (words f))
    [
      ("Vector.axpy", fun () -> Vector.axpy 0.5 x y);
      ("Vector.scal", fun () -> Vector.scal 0.5 x);
      ("Csr.spmv_into", fun () -> Csr.spmv_into a xs ys);
      ("Matrix.gemv_into", fun () -> Matrix.gemv_into mat x y);
      ( "Matrix.gemm_col_view",
        fun () ->
          Matrix.gemm_col_view ~alpha:1.0 ~beta:0.5 ?c ~a:src ~b:src ~dst ~off:0
            ~n () );
      ( "Trsv.pair_eager_view",
        int_result (fun () ->
            Trsv.pair_eager_view ~m:lu.Matrix.a ~moff:0 ~n ~b:y ~boff:0 ()) );
      ( "Trsv.pair_eager_view stride 2",
        int_result (fun () ->
            Trsv.pair_eager_view ~mstride:2 ~bstride:2 ~m:lu2 ~moff:1 ~n ~b:y2
              ~boff:1 ()) );
      ( "Trsv.pair_lazy_view",
        int_result (fun () ->
            Trsv.pair_lazy_view ~m:lu.Matrix.a ~moff:0 ~n ~b:y ~boff:0 ()) );
      ( "Lu.factor_implicit_view",
        int_result (fun () ->
            Lu.factor_implicit_view ~src ~dst ~off:0 ~n ~tile ~step ~perm ()) );
      ( "Lu.factor_nopivot_view",
        int_result (fun () -> Lu.factor_nopivot_view ~src ~dst ~off:0 ~n ()) );
      ( "Cholesky.factor_view",
        int_result (fun () ->
            Cholesky.factor_view ~src:spd.Matrix.a ~dst ~off:0 ~n ()) );
      ( "Cholesky.solve_view",
        int_result (fun () ->
            Cholesky.solve_view ~m:chol.Cholesky.l.Matrix.a ~moff:0 ~n ~b:y
              ~boff:0 ()) );
      ("Cholesky.solve_in_place", fun () -> Cholesky.solve_in_place chol y);
    ]

(* ------------------------------------------------------------------ *)
(* Bit-identity against [Precision.*] references                       *)

(* Specials that stress rounding and propagation: NaN, infinities,
   binary64 and binary32 subnormals, signed zeros, values beyond the
   binary32 range. *)
let specials =
  [|
    Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 4.9e-324;
    -2.2e-310; 1.0e-40; -1.4e-45; 3.5e38; -1.0e300; 1.0; -1.0;
  |]

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (1, oneofa specials);
        (6, map (fun x -> x -. 1.0) (float_bound_inclusive 2.0));
      ])

let gen_array n = QCheck.Gen.array_size (QCheck.Gen.return n) gen_value

(* A square block [n]×[n] with a dominant diagonal most of the time, so
   the sweeps run deep before specials spread. *)
let gen_case =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    gen_array (n * n) >>= fun m ->
    gen_array n >>= fun v ->
    gen_array n >>= fun w ->
    bool >>= fun single ->
    return (n, m, v, w, single))

let arb_case =
  QCheck.make gen_case ~print:(fun (n, _, _, _, single) ->
      Printf.sprintf "n=%d %s" n (if single then "single" else "double"))

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let prec_of single = if single then Precision.Single else Precision.Double

(* References: the pre-inlining formulations, op for op. *)
module Ref = struct
  module P = Precision

  let dot p x y =
    let acc = ref 0.0 in
    Array.iteri (fun i xi -> acc := P.fma p xi y.(i) !acc) x;
    !acc

  let axpy p alpha x y = Array.iteri (fun i xi -> y.(i) <- P.fma p alpha xi y.(i)) x

  let gemv p n m x =
    let y = Array.make n 0.0 in
    for j = 0 to n - 1 do
      if x.(j) <> 0.0 then
        for i = 0 to n - 1 do
          y.(i) <- P.fma p m.(i + (j * n)) x.(j) y.(i)
        done
    done;
    y

  let lower_eager p n m b =
    for k = 0 to n - 2 do
      for i = k + 1 to n - 1 do
        b.(i) <- P.fma p (-.m.(i + (k * n))) b.(k) b.(i)
      done
    done

  let upper_eager p n m b =
    let info = ref 0 in
    (try
       for k = n - 1 downto 0 do
         let d = m.(k + (k * n)) in
         if d = 0.0 then (info := k + 1; raise Exit);
         b.(k) <- P.div p b.(k) d;
         for i = 0 to k - 1 do
           b.(i) <- P.fma p (-.m.(i + (k * n))) b.(k) b.(i)
         done
       done
     with Exit -> ());
    !info

  (* The view kernels' lazy pair: rounded products folded from 0.0. *)
  let pair_lazy p n m b =
    for k = 1 to n - 1 do
      let acc = ref 0.0 in
      for j = 0 to k - 1 do
        acc := P.add p (P.mul p m.(k + (j * n)) b.(j)) !acc
      done;
      b.(k) <- P.sub p b.(k) !acc
    done;
    let info = ref 0 in
    (try
       for k = n - 1 downto 0 do
         let acc = ref 0.0 in
         for j = k + 1 to n - 1 do
           acc := P.add p (P.mul p m.(k + (j * n)) b.(j)) !acc
         done;
         let d = m.(k + (k * n)) in
         if d = 0.0 then (info := k + 1; raise Exit);
         b.(k) <- P.div p (P.sub p b.(k) !acc) d
       done
     with Exit -> ());
    !info

  (* Implicit-pivoting LU one step at a time over a column-major copy,
     scanning every row for the unpivoted ones: packed in pivot order,
     freeze on a zero pivot.  Returns the factors, [perm] and [info]. *)
  let lu_implicit p n src =
    let w = Array.copy src and step = Array.make n (-1) in
    let info = ref 0 in
    (try
       for k = 0 to n - 1 do
         let piv = ref (-1) in
         for r = 0 to n - 1 do
           if step.(r) < 0
              && (!piv < 0
                 || Float.abs w.(r + (k * n)) > Float.abs w.(!piv + (k * n)))
           then piv := r
         done;
         let d = w.(!piv + (k * n)) in
         if d = 0.0 then (info := k + 1; raise Exit);
         step.(!piv) <- k;
         for r = 0 to n - 1 do
           if step.(r) < 0 then begin
             w.(r + (k * n)) <- P.div p w.(r + (k * n)) d;
             for j = k + 1 to n - 1 do
               w.(r + (j * n)) <-
                 P.fma p (-.w.(r + (k * n))) w.(!piv + (j * n)) w.(r + (j * n))
             done
           end
         done
       done
     with Exit -> ());
    let next = ref (max 0 (!info - 1)) in
    Array.iteri (fun r s -> if s < 0 then (step.(r) <- !next; incr next)) step;
    let out = Array.make (n * n) 0.0 and perm = Array.make n 0 in
    for j = 0 to n - 1 do
      for r = 0 to n - 1 do
        out.(step.(r) + (j * n)) <- w.(r + (j * n))
      done
    done;
    Array.iteri (fun r s -> perm.(s) <- r) step;
    (out, perm, !info)

  (* Right-looking Cholesky on the lower triangle, no [ljk] skip. *)
  let cholesky p n src =
    let w = Array.make (n * n) 0.0 in
    for j = 0 to n - 1 do
      for i = j to n - 1 do
        w.(i + (j * n)) <- src.(i + (j * n))
      done
    done;
    let info = ref 0 in
    (try
       for k = 0 to n - 1 do
         let d = w.(k + (k * n)) in
         if not (d > 0.0) then (info := k + 1; raise Exit);
         let l = P.round p (sqrt d) in
         w.(k + (k * n)) <- l;
         for i = k + 1 to n - 1 do
           w.(i + (k * n)) <- P.div p w.(i + (k * n)) l
         done;
         for j = k + 1 to n - 1 do
           for i = j to n - 1 do
             w.(i + (j * n)) <-
               P.fma p (-.w.(i + (k * n))) w.(j + (k * n)) w.(i + (j * n))
           done
         done
       done
     with Exit -> ());
    (w, !info)

  (* Column GEMM view: k-loop FMA from 0.0, one rounded scale, then the
     optional rounded [beta·C] FMA. *)
  let gemm p n ~alpha ~beta c a b =
    let out = Array.make (n * n) 0.0 in
    for j = 0 to n - 1 do
      for i = 0 to n - 1 do
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          acc := P.fma p a.(i + (k * n)) b.(k + (j * n)) !acc
        done;
        let v = P.mul p !acc alpha in
        out.(i + (j * n)) <-
          (match c with None -> v | Some c -> P.fma p c.(i + (j * n)) beta v)
      done
    done;
    out

  let matmul p n a b =
    let out = Array.make (n * n) 0.0 in
    for j = 0 to n - 1 do
      for k = 0 to n - 1 do
        if b.(k + (j * n)) <> 0.0 then
          for i = 0 to n - 1 do
            out.(i + (j * n)) <-
              P.fma p a.(i + (k * n)) b.(k + (j * n)) out.(i + (j * n))
          done
      done
    done;
    out

  let gemv_trans p n m x =
    Array.init n (fun j ->
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          acc := P.fma p m.(i + (j * n)) x.(i) !acc
        done;
        !acc)

  (* No-pivot LU as the batch view runs it: no [ukj <> 0.0] skip. *)
  let lu_nopivot p n src =
    let w = Array.copy src in
    let info = ref 0 in
    (try
       for k = 0 to n - 1 do
         let d = w.(k + (k * n)) in
         if d = 0.0 then (info := k + 1; raise Exit);
         for i = k + 1 to n - 1 do
           w.(i + (k * n)) <- P.div p w.(i + (k * n)) d
         done;
         for j = k + 1 to n - 1 do
           for i = k + 1 to n - 1 do
             w.(i + (j * n)) <-
               P.fma p (-.w.(i + (k * n))) w.(k + (j * n)) w.(i + (j * n))
           done
         done
       done
     with Exit -> ());
    (w, !info)

  (* Gauss-Huard: lazy update of row k, column pivoting in row k, pivot
     scaling, eager elimination above the diagonal. *)
  let gh_factor p n src =
    let w = Array.copy src and cperm = Array.init n Fun.id in
    let info = ref 0 in
    (try
       for k = 0 to n - 1 do
         for j = k to n - 1 do
           for i = 0 to k - 1 do
             w.(k + (j * n)) <-
               P.fma p (-.w.(k + (i * n))) w.(i + (j * n)) w.(k + (j * n))
           done
         done;
         let piv = ref k in
         for j = k + 1 to n - 1 do
           if Float.abs w.(k + (j * n)) > Float.abs w.(k + (!piv * n)) then
             piv := j
         done;
         if !piv <> k then begin
           for i = 0 to n - 1 do
             let t = w.(i + (k * n)) in
             w.(i + (k * n)) <- w.(i + (!piv * n));
             w.(i + (!piv * n)) <- t
           done;
           let t = cperm.(k) in
           cperm.(k) <- cperm.(!piv);
           cperm.(!piv) <- t
         end;
         let d = w.(k + (k * n)) in
         if d = 0.0 then (info := k + 1; raise Exit);
         for j = k + 1 to n - 1 do
           w.(k + (j * n)) <- P.div p w.(k + (j * n)) d
         done;
         for i = 0 to k - 1 do
           if w.(i + (k * n)) <> 0.0 then
             for j = k + 1 to n - 1 do
               w.(i + (j * n)) <-
                 P.fma p (-.w.(i + (k * n))) w.(k + (j * n)) w.(i + (j * n))
             done
         done
       done
     with Exit -> ());
    (w, cperm, !info)

  (* The Gauss-Huard solve in column-permuted order. *)
  let gh_solve p n w b =
    let y = Array.copy b in
    let info = ref 0 in
    (try
       for k = 0 to n - 1 do
         (* Accumulate apart: a breakdown at step k leaves y(k) as it
            was. *)
         let acc = ref y.(k) in
         for j = 0 to k - 1 do
           acc := P.fma p (-.w.(k + (j * n))) y.(j) !acc
         done;
         let d = w.(k + (k * n)) in
         if d = 0.0 then (info := k + 1; raise Exit);
         y.(k) <- P.div p !acc d;
         for i = 0 to k - 1 do
           y.(i) <- P.fma p (-.w.(i + (k * n))) y.(k) y.(i)
         done
       done
     with Exit -> ());
    (y, !info)

  (* Gauss-Jordan on [A | I], partial pivoting; returns the right half. *)
  let gje p n src =
    let w = Array.make (2 * n * n) 0.0 in
    Array.blit src 0 w 0 (n * n);
    for i = 0 to n - 1 do
      w.(i + ((n + i) * n)) <- 1.0
    done;
    let info = ref 0 in
    (try
       for k = 0 to n - 1 do
         let piv = ref k in
         for i = k + 1 to n - 1 do
           if Float.abs w.(i + (k * n)) > Float.abs w.(!piv + (k * n)) then
             piv := i
         done;
         let d = w.(!piv + (k * n)) in
         if d = 0.0 then (info := k + 1; raise Exit);
         if !piv <> k then
           for j = 0 to (2 * n) - 1 do
             let t = w.(k + (j * n)) in
             w.(k + (j * n)) <- w.(!piv + (j * n));
             w.(!piv + (j * n)) <- t
           done;
         for j = 0 to (2 * n) - 1 do
           w.(k + (j * n)) <- P.div p w.(k + (j * n)) d
         done;
         for i = 0 to n - 1 do
           if i <> k && w.(i + (k * n)) <> 0.0 then begin
             let l = w.(i + (k * n)) in
             for j = 0 to (2 * n) - 1 do
               w.(i + (j * n)) <- P.fma p (-.l) w.(k + (j * n)) w.(i + (j * n))
             done
           end
         done
       done
     with Exit -> ());
    (Array.sub w (n * n) (n * n), !info)

  (* Cholesky view solve: eager forward sweep with L, then a DOT backward
     sweep with Lᵀ whose products are rounded and folded from 0.0. *)
  let chol_solve p n l b =
    let info = ref 0 in
    (try
       for k = 0 to n - 1 do
         let d = l.(k + (k * n)) in
         if d = 0.0 then (info := k + 1; raise Exit);
         b.(k) <- P.div p b.(k) d;
         for i = k + 1 to n - 1 do
           b.(i) <- P.fma p (-.l.(i + (k * n))) b.(k) b.(i)
         done
       done;
       for k = n - 1 downto 0 do
         let acc = ref 0.0 in
         for i = k + 1 to n - 1 do
           acc := P.add p (P.mul p l.(i + (k * n)) b.(i)) !acc
         done;
         b.(k) <- P.div p (P.sub p b.(k) !acc) l.(k + (k * n))
       done
     with Exit -> ());
    !info
end

let qcheck_bit_identity =
  QCheck.Test.make ~count:400
    ~name:"rewritten kernels ≡ Precision.* references, bitwise" arb_case
    (fun (n, m, v, w, single) ->
      let prec = prec_of single in
      let mat = Matrix.init n n (fun i j -> m.(i + (j * n))) in
      let expect name got want =
        if not (bits_equal got want) then
          QCheck.Test.fail_reportf "%s differs" name
      in
      let expect_int name got want =
        if got <> want then QCheck.Test.fail_reportf "%s: %d vs %d" name got want
      in
      (* Vector. *)
      expect "dot" [| Vector.dot ~prec v w |] [| Ref.dot prec v w |];
      expect "nrm2" [| Vector.nrm2 ~prec v |]
        [| Precision.round prec (sqrt (Ref.dot prec v v)) |];
      (let y = Array.copy w and y' = Array.copy w in
       Vector.axpy ~prec v.(0) v y;
       Ref.axpy prec v.(0) v y';
       expect "axpy" y y');
      (let y = Array.copy w in
       Vector.scal ~prec v.(0) y;
       expect "scal" y (Array.map (Precision.mul prec v.(0)) w));
      expect "vector add" (Vector.add ~prec v w)
        (Array.map2 (Precision.add prec) v w);
      expect "vector sub" (Vector.sub ~prec v w)
        (Array.map2 (Precision.sub prec) v w);
      (* Matrix. *)
      expect "gemv" (Matrix.gemv ~prec mat v) (Ref.gemv prec n m v);
      (let y = Array.make n 0.0 in
       Matrix.gemv_into ~prec mat v y;
       expect "gemv_into" y (Ref.gemv prec n m v));
      expect "scale" (Matrix.scale ~prec v.(0) mat).Matrix.a
        (Array.map (Precision.mul prec v.(0)) m);
      expect "matrix add" (Matrix.add ~prec mat mat).Matrix.a
        (Array.map2 (Precision.add prec) m m);
      (* CSR SpMV over the dense pattern (explicit zeros dropped). *)
      (let a = Csr.of_dense mat in
       let y = Array.make n 0.0 in
       Csr.spmv_into ~prec a v y;
       let want =
         Array.init n (fun i ->
             let acc = ref 0.0 in
             for j = 0 to n - 1 do
               if m.(i + (j * n)) <> 0.0 then
                 acc := Precision.fma prec m.(i + (j * n)) v.(j) !acc
             done;
             !acc)
       in
       expect "spmv_into" y want;
       expect "extract_block" (Csr.extract_block a ~row_start:0 ~size:n).Matrix.a
         (Array.map (fun x -> if x = 0.0 then 0.0 else x) m));
      (* The eager TRSV pair at an offset, in its unit-stride and its
         strided instance, and behind the permuted [Trsv.solve_status]. *)
      (let b' = Array.copy v in
       Ref.lower_eager prec n m b';
       let info' = Ref.upper_eager prec n m b' in
       List.iter
         (fun (stride, view) ->
           let b = view v in
           let info =
             Trsv.pair_eager_view ~prec ~mstride:stride ~bstride:stride
               ~m:(view m) ~moff:1 ~n ~b ~boff:1 ()
           in
           expect
             (Printf.sprintf "pair_eager_view stride %d" stride)
             b (view b');
           expect_int
             (Printf.sprintf "pair_eager_view stride %d info" stride)
             info info')
         [ (1, shifted); (2, strided) ];
       let perm = Array.init n (fun k -> n - 1 - k) in
       let pv = Array.map (fun k -> v.(k)) perm in
       Ref.lower_eager prec n m pv;
       let info' = Ref.upper_eager prec n m pv in
       let x, info = Trsv.solve_status ~prec mat perm v in
       expect "trsv solve_status" x pv;
       expect_int "trsv solve_status info" info info');
      (* The lazy pair at an offset and stride 2. *)
      (let b = strided v in
       let info =
         Trsv.pair_lazy_view ~prec ~mstride:2 ~bstride:2 ~m:(strided m) ~moff:1
           ~n ~b ~boff:1 ()
       in
       let b' = Array.copy v in
       let info' = Ref.pair_lazy prec n m b' in
       expect "pair_lazy_view" b (strided b');
       expect_int "pair_lazy_view info" info info');
      (* LU: the reference status factorization and the batch view. *)
      (let want, _, info' = Ref.lu_implicit prec n m in
       let f, info = Lu.factor_implicit_status ~prec mat in
       expect "factor_implicit_status" f.Lu.lu.Matrix.a want;
       expect_int "factor_implicit_status info" info info';
       let dst = Array.make (n * n) 0.0 in
       let info =
         Lu.factor_implicit_view ~prec ~src:m ~dst ~off:0 ~n
           ~tile:(Array.make (n * n) 0.0) ~step:(Array.make n 0)
           ~perm:(Array.make n 0) ()
       in
       expect "factor_implicit_view" dst want;
       expect_int "factor_implicit_view info" info info');
      (* Cholesky view. *)
      (let want, info' = Ref.cholesky prec n m in
       let dst = Array.make (n * n) 0.0 in
       let info = Cholesky.factor_view ~prec ~src:m ~dst ~off:0 ~n () in
       expect "cholesky factor_view" dst want;
       expect_int "cholesky factor_view info" info info');
      (* Matrix: the transposed GEMV, MATMUL, SUB and the GEMM view at
         offset 1, stride 2, with and without C. *)
      let m2 = Array.init (n * n) (fun e -> m.((n * n) - 1 - e)) in
      let mat2 = Matrix.init n n (fun i j -> m2.(i + (j * n))) in
      expect "gemv trans" (Matrix.gemv ~prec ~trans:true mat v)
        (Ref.gemv_trans prec n m v);
      expect "matmul" (Matrix.matmul ~prec mat mat2).Matrix.a
        (Ref.matmul prec n m m2);
      expect "matrix sub" (Matrix.sub ~prec mat mat2).Matrix.a
        (Array.map2 (Precision.sub prec) m m2);
      (let alpha = v.(0) and beta = w.(0) in
       let c = Array.init (n * n) (fun e -> w.(e mod n)) in
       List.iter
         (fun (cname, c) ->
           let dst = Array.make ((2 * n * n) + 1) 7.0 in
           Matrix.gemm_col_view ~prec ~stride:2 ~alpha ~beta
             ?c:(Option.map strided c) ~a:(strided m) ~b:(strided m2) ~dst
             ~off:1 ~n ();
           expect ("gemm_col_view " ^ cname) dst
             (strided (Ref.gemm prec n ~alpha ~beta c m m2)))
         [ ("no C", None); ("with C", Some c) ]);
      (* No-pivot LU view at offset 1, stride 2. *)
      (let want, info' = Ref.lu_nopivot prec n m in
       let dst = Array.make ((2 * n * n) + 1) 7.0 in
       let info =
         Lu.factor_nopivot_view ~prec ~stride:2 ~src:(strided m) ~dst ~off:1 ~n
           ()
       in
       expect "factor_nopivot_view" dst (strided want);
       expect_int "factor_nopivot_view info" info info');
      (* Gauss-Huard factor and solve, both storages; Gauss-Jordan. *)
      (let want, cperm, info' = Ref.gh_factor prec n m in
       List.iter
         (fun storage ->
           let f, info = Gauss_huard.factor_status ~prec ~storage mat in
           let stored =
             match storage with
             | Gauss_huard.Normal -> want
             | Transposed -> Array.init (n * n) (fun e -> want.((e / n) + (e mod n * n)))
           in
           expect "gauss_huard factor" f.Gauss_huard.gh.Matrix.a stored;
           if f.Gauss_huard.cperm <> cperm then
             QCheck.Test.fail_report "gauss_huard column permutation differs";
           expect_int "gauss_huard factor info" info info';
           let x, sinfo = Gauss_huard.solve_status ~prec f v in
           let y', sinfo' = Ref.gh_solve prec n want v in
           let x' = Array.make n 0.0 in
           Array.iteri (fun j c -> x'.(c) <- y'.(j)) cperm;
           expect "gauss_huard solve" x x';
           expect_int "gauss_huard solve info" sinfo sinfo')
         [ Gauss_huard.Normal; Gauss_huard.Transposed ]);
      (let want, info' = Ref.gje prec n m in
       let inv, info = Gauss_jordan.invert_status ~prec mat in
       expect "gauss_jordan invert" inv.Matrix.a want;
       expect_int "gauss_jordan invert info" info info');
      (* Cholesky view solve at offset 1, stride 2, on this block's lower
         factor as computed by the reference. *)
      (let l, _ = Ref.cholesky prec n m in
       let b = strided v in
       let info =
         Cholesky.solve_view ~prec ~mstride:2 ~bstride:2 ~m:(strided l) ~moff:1
           ~n ~b ~boff:1 ()
       in
       let b' = Array.copy v in
       let info' = Ref.chol_solve prec n l b' in
       expect "cholesky solve_view" b (strided b');
       expect_int "cholesky solve_view info" info info');
      (* The batched TRSM's direct closure: a warm run (certified entry,
         served by the host view) against the interpreter. *)
      (let factors = Batch.of_matrices [| mat |] in
       let pivots = [| Array.init n (fun k -> n - 1 - k) |] in
       let rhs =
         [| Batch.vec_of_vectors [| v |]; Batch.vec_of_vectors [| w |] |]
       in
       let run () = Batched_trsm.solve ~prec ~factors ~pivots rhs in
       Launch.Cache.set_enabled false;
       let cold =
         Fun.protect ~finally:(fun () -> Launch.Cache.set_enabled true) run
       in
       ignore (run ());
       let warm = run () in
       Array.iteri
         (fun r (x : Batch.vec) ->
           expect
             (Printf.sprintf "trsm direct rhs %d" r)
             x.Batch.vvalues
             cold.Batched_trsm.solutions.(r).Batch.vvalues)
         warm.Batched_trsm.solutions;
       expect_int "trsm direct info" warm.Batched_trsm.info.(0)
         cold.Batched_trsm.info.(0));
      (* Simulated memory and the warp's lane ops. *)
      (let g = Gmem.of_array prec v in
       expect "gmem of_array" (Gmem.raw g) (Array.map (Precision.round prec) v));
      (let wp = Warp.create prec () in
       let lanes a = Array.init (Warp.size wp) (fun i -> a.(i mod n)) in
       let a = lanes v and b = lanes w and c = lanes (Array.sub m 0 n) in
       let dst = Array.make (Warp.size wp) 0.0 in
       Warp.fma_into wp ~dst a b c;
       expect "warp fma" dst
         (Array.init (Array.length a) (fun i -> Precision.fma prec a.(i) b.(i) c.(i)));
       Warp.add_into wp ~dst a b;
       expect "warp add" dst (Array.map2 (Precision.add prec) a b);
       Warp.div_into wp ~dst a b;
       expect "warp div" dst (Array.map2 (Precision.div prec) a b);
       Warp.sqrt_into wp ~dst a;
       expect "warp sqrt" dst (Array.map (fun x -> Precision.round prec (sqrt x)) a));
      true)

(* The implicit-pivoting view (row-major tile, active-row list, two steps
   per trailing pass) against the one-step reference: factors, [perm] and
   [info] bitwise, at a nonzero offset and stride, in both precisions. *)
let check_lu_view ~prec ~n ~off ~stride m =
  let want, perm', info' = Ref.lu_implicit prec n m in
  let place a =
    let out = Array.make (off + (stride * n * n)) 7.0 in
    Array.iteri (fun e x -> out.(off + (stride * e)) <- x) a;
    out
  in
  let dst = place (Array.make (n * n) 5.0) and perm = Array.make n (-1) in
  let info =
    Lu.factor_implicit_view ~prec ~stride ~src:(place m) ~dst ~off ~n
      ~tile:(Array.make (n * n) 0.0) ~step:(Array.make n 0) ~perm ()
  in
  (bits_equal dst (place want) && perm = perm' && info = info', info')

(* Orders 1..32.  Besides dense blocks with specials, three shapes aim at
   the pivot logic: entries from {0, ±1} (ties and breakdowns anywhere),
   a zero column at a random position over generic entries (the first
   zero pivot at that step, so at either half of a step pair), and small
   integers with NaN and -0.0 mixed in (NaN and signed-zero pivot
   candidates among tied magnitudes). *)
let gen_lu_case =
  QCheck.Gen.(
    int_range 1 32 >>= fun n ->
    let generic = map (fun x -> x -. 1.0) (float_bound_inclusive 2.0) in
    let entries g = array_size (return (n * n)) g in
    oneof
      [
        map (fun m -> ("specials", m)) (gen_array (n * n));
        map (fun m -> ("0/±1", m)) (entries (oneofl [ 0.0; 1.0; -1.0 ]));
        ( int_range 0 (n - 1) >>= fun c ->
          map
            (fun m ->
              ( Printf.sprintf "zero column %d" c,
                Array.mapi (fun e x -> if e / n = c then 0.0 else x) m ))
            (entries generic) );
        map
          (fun m -> ("NaN/-0.0/ties", m))
          (entries (oneofl [ 0.0; -0.0; 1.0; -1.0; 2.0; -2.0; Float.nan ]));
      ]
    >>= fun (shape, m) ->
    int_range 0 3 >>= fun off ->
    int_range 1 3 >>= fun stride ->
    bool >>= fun single -> return (n, shape, m, off, stride, single))

let qcheck_lu_view =
  QCheck.Test.make ~count:1500
    ~name:"implicit LU view ≡ one-step reference, bitwise"
    (QCheck.make gen_lu_case ~print:(fun (n, shape, _, off, stride, single) ->
         Printf.sprintf "n=%d %s off=%d stride=%d %s" n shape off stride
           (if single then "single" else "double")))
    (fun (n, _, m, off, stride, single) ->
      fst (check_lu_view ~prec:(prec_of single) ~n ~off ~stride m))

(* A zero column at every position of blocks of both parities, in both
   precisions, unit and strided: the first zero pivot lands on each step,
   so on both halves of a step pair, and [info] names it. *)
let test_lu_freeze () =
  List.iter
    (fun prec ->
      List.iter
        (fun n ->
          for c = 0 to n - 1 do
            let m =
              Array.init (n * n) (fun e ->
                  let i = e mod n and j = e / n in
                  if j = c then 0.0
                  else if i = j then 0.25 +. float_of_int i
                  else 1.0 /. float_of_int (2 + ((5 * i) + (3 * j)) mod 11))
            in
            List.iter
              (fun (off, stride) ->
                let same, info =
                  check_lu_view ~prec ~n ~off ~stride m
                in
                let name =
                  Printf.sprintf "%s n=%d zero column %d off %d stride %d"
                    (Precision.to_string prec) n c off stride
                in
                Alcotest.(check int) (name ^ " info") (c + 1) info;
                Alcotest.(check bool) (name ^ " frozen state") true same)
              [ (0, 1); (3, 2) ]
          done)
        [ 7; 8 ])
    precs

(* A zero diagonal of U at every step of the upper sweep, at both
   parities of the two-column pass, in both precisions and both stride
   instances: [info] and the frozen partial state match the one-column
   reference bit for bit. *)
let test_eager_freeze () =
  List.iter
    (fun prec ->
      List.iter
        (fun n ->
          for k = 0 to n - 1 do
            let m =
              Array.init (n * n) (fun e ->
                  let i = e mod n and j = e / n in
                  if i <> j then 1.0 /. float_of_int (2 + i + (3 * j))
                  else if i = k then 0.0
                  else 3.0 +. float_of_int i)
            in
            let v = Array.init n (fun i -> 1.0 +. (0.37 *. float_of_int i)) in
            let b' = Array.copy v in
            Ref.lower_eager prec n m b';
            let info' = Ref.upper_eager prec n m b' in
            Alcotest.(check int) "reference info" (k + 1) info';
            List.iter
              (fun (stride, view) ->
                let name =
                  Printf.sprintf "%s n=%d zero at %d stride %d"
                    (Precision.to_string prec) n k stride
                in
                let b = view v in
                let info =
                  Trsv.pair_eager_view ~prec ~mstride:stride ~bstride:stride
                    ~m:(view m) ~moff:1 ~n ~b ~boff:1 ()
                in
                Alcotest.(check int) (name ^ " info") info' info;
                Alcotest.(check bool) (name ^ " frozen state") true
                  (bits_equal b (view b')))
              [ (1, shifted); (2, strided) ]
          done)
        [ 5; 6 ])
    precs

(* A NaN pivot is not a zero pivot: the direct views, the interpreter and
   the CPU reference all return info = 0 with NaN-poisoned factors and
   solution, bitwise alike. *)
let test_nan_pivot () =
  List.iter
    (fun prec ->
      let ps = Precision.to_string prec in
      let n = 4 in
      (* Inputs pre-rounded to [prec], as the interpreter stages them (a
         NaN's payload changes on the way through binary32). *)
      let mat =
        Matrix.init n n (fun i j ->
            Precision.round prec
              (if i = 0 && j = 0 then Float.nan
               else if i = j then 4.0
               else 0.5))
      in
      let reference, info_ref = Lu.factor_implicit_status ~prec mat in
      Alcotest.(check int) ("reference info " ^ ps) 0 info_ref;
      Alcotest.(check bool) ("factors carry NaN " ^ ps) true
        (Array.exists Float.is_nan reference.Lu.lu.Matrix.a);
      let dst = Array.make (n * n) 0.0 and perm = Array.make n 0 in
      let info_view =
        Lu.factor_implicit_view ~prec ~src:mat.Matrix.a ~dst ~off:0 ~n
          ~tile:(Array.make (n * n) 0.0) ~step:(Array.make n 0) ~perm ()
      in
      Alcotest.(check int) ("view info " ^ ps) 0 info_view;
      Alcotest.(check bool) ("view ≡ reference " ^ ps) true
        (bits_equal dst reference.Lu.lu.Matrix.a);
      Launch.Cache.set_enabled false;
      let interp =
        Fun.protect
          ~finally:(fun () -> Launch.Cache.set_enabled true)
          (fun () ->
            let b = Batch.of_matrices [| mat |] in
            let lu = Batched_lu.factor ~prec b in
            let rhs = Batch.vec_of_vectors [| Array.make n 1.0 |] in
            let x =
              Batched_trsv.solve ~prec ~factors:lu.Batched_lu.factors
                ~pivots:lu.Batched_lu.pivots rhs
            in
            (lu, x))
      in
      let lu, x = interp in
      Alcotest.(check (array int)) ("interpreter LU info " ^ ps) [| 0 |]
        lu.Batched_lu.info;
      Alcotest.(check bool) ("interpreter ≡ reference " ^ ps) true
        (bits_equal (Batch.get_matrix lu.Batched_lu.factors 0).Matrix.a
           reference.Lu.lu.Matrix.a);
      let rhs = Array.map (fun k -> [| 1.0; 1.0; 1.0; 1.0 |].(k)) perm in
      let info_trsv =
        Trsv.pair_eager_view ~prec ~m:dst ~moff:0 ~n ~b:rhs ~boff:0 ()
      in
      let x_ref, info_solve =
        Lu.solve_status ~prec reference (Array.make n 1.0)
      in
      Alcotest.(check int) ("trsv view info " ^ ps) 0 info_trsv;
      Alcotest.(check int) ("reference solve info " ^ ps) 0 info_solve;
      Alcotest.(check (array int)) ("interpreter TRSV info " ^ ps) [| 0 |]
        x.Batched_trsv.info;
      Alcotest.(check bool) ("solution is NaN " ^ ps) true
        (Array.for_all Float.is_nan x_ref);
      Alcotest.(check bool) ("trsv view ≡ reference " ^ ps) true
        (bits_equal rhs x_ref);
      Alcotest.(check bool) ("interpreter TRSV ≡ reference " ^ ps) true
        (bits_equal (Batch.vec_get x.Batched_trsv.solutions 0) x_ref))
    precs

(* The interleaved-row GEMM view against the interpreted warp kernel,
   n = 1..32: a blocked batch (stride 1) or an interleaved cohort of two
   (stride 2), both precisions, with and without C.  The view reads the
   inputs rounded as [Gmem.of_array] stages them. *)
let qcheck_gemm_view =
  QCheck.Test.make ~count:120 ~name:"Matrix.gemm_col_view ≡ GEMM interpreter, bitwise"
    QCheck.(
      make
        ~print:(fun (n, interleaved, single, with_c, _) ->
          Printf.sprintf "n=%d %s %s %s" n
            (if interleaved then "interleaved" else "blocked")
            (if single then "single" else "double")
            (if with_c then "with C" else "no C"))
        Gen.(
          int_range 1 32 >>= fun n ->
          bool >>= fun interleaved ->
          bool >>= fun single ->
          bool >>= fun with_c ->
          gen_array (6 * n * n) >>= fun vals ->
          return (n, interleaved, single, with_c, vals)))
    (fun (n, interleaved, single, with_c, vals) ->
      let prec = prec_of single in
      let layout = if interleaved then Batch.Interleaved else Batch.Blocked in
      let batch k =
        Batch.of_matrices ~layout
          (Array.init 2 (fun p ->
               Matrix.init n n (fun i j -> vals.((((2 * k) + p) * n * n) + i + (j * n)))))
      in
      let a = batch 0 and b = batch 1 and c = batch 2 in
      let alpha = -1.0 and beta = 1.0 in
      let want =
        Launch.Cache.set_enabled false;
        Fun.protect
          ~finally:(fun () -> Launch.Cache.set_enabled true)
          (fun () ->
            (Batched_gemm.multiply ~prec ~alpha ~beta ~a ~b
               ?c:(if with_c then Some c else None)
               ())
              .Batched_gemm.products.Batch.values)
      in
      let staged (x : Batch.t) = Array.map (Precision.round prec) x.Batch.values in
      let dst = Array.make (Array.length want) 0.0 in
      for p = 0 to 1 do
        Matrix.gemm_col_view ~prec ~stride:(Batch.stride a p) ~alpha ~beta
          ?c:(if with_c then Some (staged c) else None)
          ~a:(staged a) ~b:(staged b) ~dst ~off:(Batch.base a p) ~n ()
      done;
      Batch.stride a 1 = (if interleaved then 2 else 1) && bits_equal dst want)

(* NaN and infinities through the other direct kernels (GEMM, TRSM,
   no-pivot LU, both Cholesky views): a warm run, whose certified entries
   the host views serve, equals the cache-off interpreter bitwise, info
   included.  Block 0 of each batch is clean; the others carry a NaN, a
   +inf or a −inf, in both precisions. *)
let test_nonfinite_direct () =
  let n = 4 in
  let poisons = [| 0.0; Float.nan; Float.infinity; Float.neg_infinity |] in
  (* Diagonally dominant and symmetric, with the poison at (2,1) and
     (1,2) — below the first pivot, so the sweeps carry it on. *)
  let block k =
    Matrix.init n n (fun i j ->
        if k > 0 && ((i = 2 && j = 1) || (i = 1 && j = 2)) then poisons.(k)
        else if i = j then 4.0 +. float_of_int i
        else 0.5 /. float_of_int (1 + i + j))
  in
  let batch = Batch.of_matrices (Array.init 4 block) in
  let clean = Batch.of_matrices (Array.init 4 (fun _ -> block 0)) in
  let sizes = Array.make 4 n in
  let rhs = Batch.vec_random ~state:(state 6) sizes in
  let compare_warm ?(direct = true) name ~values ~info run =
    Launch.Cache.set_enabled false;
    let cold =
      Fun.protect ~finally:(fun () -> Launch.Cache.set_enabled true) run
    in
    Launch.Cache.clear ();
    ignore (run ());
    let dh = Launch.Cache.direct_hits () in
    let warm = run () in
    let served = Launch.Cache.direct_hits () - dh in
    Launch.Cache.clear ();
    if direct then
      Alcotest.(check bool) (name ^ " served directly") true (served > 0);
    Alcotest.(check bool) (name ^ " bitwise") true
      (bits_equal (values warm) (values cold));
    Alcotest.(check (array int)) (name ^ " info") (info cold) (info warm)
  in
  List.iter
    (fun prec ->
      let ps = " " ^ Precision.to_string prec in
      compare_warm ("gemm" ^ ps)
        ~values:(fun r -> r.Batched_gemm.products.Batch.values)
        ~info:(fun _ -> [||])
        (fun () ->
          Batched_gemm.multiply ~prec ~alpha:1.5 ~beta:(-0.5) ~a:batch
            ~b:clean ~c:batch ());
      compare_warm ("getrf no-pivot" ^ ps)
        ~values:(fun r -> r.Batched_lu.factors.Batch.values)
        ~info:(fun r -> r.Batched_lu.info)
        (fun () ->
          Batched_lu.factor ~prec ~pivoting:Batched_lu.No_pivoting batch);
      let pivots = Array.make 4 [| 3; 1; 0; 2 |] in
      compare_warm ("trsm" ^ ps)
        ~values:(fun r ->
          Array.concat
            (Array.to_list
               (Array.map (fun (v : Batch.vec) -> v.Batch.vvalues)
                  r.Batched_trsm.solutions)))
        ~info:(fun r -> r.Batched_trsm.info)
        (fun () ->
          Batched_trsm.solve ~prec ~factors:batch ~pivots [| rhs; rhs |]);
      (* Each poisoned block breaks down and de-certifies the shared
         entry, so nothing is served directly here: the view is pinned
         on its own below. *)
      compare_warm ~direct:false ("potrf" ^ ps)
        ~values:(fun r -> r.Batched_cholesky.factors.Batch.values)
        ~info:(fun r -> r.Batched_cholesky.info)
        (fun () -> Batched_cholesky.factor ~prec batch);
      compare_warm ("potrs" ^ ps)
        ~values:(fun r -> r.Batched_trsv.solutions.Batch.vvalues)
        ~info:(fun r -> r.Batched_trsv.info)
        (fun () -> Batched_cholesky.solve ~prec ~factors:batch rhs);
      (* A poisoned Cholesky factor breaks down, so its warm run falls back
         to the interpreter; pin the view's own frozen state and info
         against the interpreter's. *)
      Launch.Cache.set_enabled false;
      let interp =
        Fun.protect
          ~finally:(fun () -> Launch.Cache.set_enabled true)
          (fun () -> Batched_cholesky.factor ~prec batch)
      in
      let src = Array.map (Precision.round prec) batch.Batch.values in
      let dst = Array.make (Array.length src) 0.0 in
      for i = 0 to 3 do
        let off = Batch.base batch i in
        let info = Cholesky.factor_view ~prec ~src ~dst ~off ~n () in
        Alcotest.(check int)
          (Printf.sprintf "potrf view info, block %d%s" i ps)
          interp.Batched_cholesky.info.(i) info
      done;
      Alcotest.(check bool) ("potrf view ≡ interpreter" ^ ps) true
        (bits_equal dst interp.Batched_cholesky.factors.Batch.values))
    precs

let () =
  Alcotest.run "host numerics"
    [
      ( "allocation",
        [
          Alcotest.test_case "vector BLAS-1" `Quick test_vector;
          Alcotest.test_case "csr spmv" `Quick test_spmv;
          Alcotest.test_case "trsv and lu views" `Quick test_trsv;
          Alcotest.test_case "block-jacobi apply" `Quick test_block_jacobi_apply;
          Alcotest.test_case "block-ilu0 apply" `Quick test_block_ilu0_apply;
          Alcotest.test_case "block-ilu0 warm update" `Quick
            test_block_ilu0_update;
          Alcotest.test_case "idr iteration" `Quick test_idr_iteration;
          Alcotest.test_case "warm launch major words" `Quick
            test_launch_major_words;
          Alcotest.test_case "warp lane ops" `Quick test_warp;
          Alcotest.test_case "zero words per Double call" `Quick
            test_zero_alloc;
        ] );
      ( "bit-identity",
        [
          QCheck_alcotest.to_alcotest qcheck_bit_identity;
          QCheck_alcotest.to_alcotest qcheck_gemm_view;
          Alcotest.test_case "eager pair breakdown freeze" `Quick
            test_eager_freeze;
          QCheck_alcotest.to_alcotest qcheck_lu_view;
          Alcotest.test_case "implicit LU breakdown freeze" `Quick
            test_lu_freeze;
          Alcotest.test_case "NaN pivot" `Quick test_nan_pivot;
          Alcotest.test_case "non-finite direct kernels" `Quick
            test_nonfinite_direct;
        ] );
    ]
