type variant = Lazy | Eager

(* Rounded arithmetic inlined into this unit, bitwise equal to
   [Precision]'s: under [-opaque] a call into another unit boxes every
   float it passes or returns.  Each sweep below is an [@inline] body that
   its entry point instantiates once per precision, so in Double [round]
   folds away instead of testing the precision per element (DESIGN §5i). *)
module R = struct
  let[@inline] round p x =
    match p with
    | Precision.Double -> x
    | Single -> Int32.float_of_bits (Int32.bits_of_float x)

  let[@inline] add p a b = round p (a +. b)
  let[@inline] sub p a b = round p (a -. b)
  let[@inline] mul p a b = round p (a *. b)
  let[@inline] div p a b = round p (a /. b)
  let[@inline] fma p a b c = round p ((a *. b) +. c)
end

let check (m : Matrix.t) b name =
  if m.rows <> m.cols then invalid_arg (name ^ ": matrix not square");
  if Array.length b <> m.rows then invalid_arg (name ^ ": dimension mismatch")

let[@inline] lower_unit_k prec variant ma b n =
  match variant with
  | Lazy ->
    for k = 1 to n - 1 do
      let acc = ref b.(k) in
      for j = 0 to k - 1 do
        acc := R.fma prec (-.ma.(k + (j * n))) b.(j) !acc
      done;
      b.(k) <- !acc
    done
  | Eager ->
    for k = 0 to n - 2 do
      let bk = b.(k) in
      for i = k + 1 to n - 1 do
        b.(i) <- R.fma prec (-.ma.(i + (k * n))) bk b.(i)
      done
    done

let lower_unit_in_place ?(prec = Precision.Double) ?(variant = Eager) m b =
  check m b "Trsv.lower_unit_in_place";
  let n = Array.length b and ma = m.Matrix.a in
  match prec with
  | Precision.Double ->
    (lower_unit_k [@inlined]) Precision.Double variant ma b n
  | Single -> (lower_unit_k [@inlined]) Precision.Single variant ma b n

(* On a zero diagonal entry at step [k] the sweep freezes: [info] is set
   to [k + 1], no further element of [b] is written, and the partial
   state (steps [n-1 .. k+1] already applied) is left in place — the same
   state the batched kernel stores back when a warp predicates off a dead
   problem. *)
let[@inline] upper_k prec variant ma b n =
  let info = ref 0 in
  (try
     match variant with
     | Lazy ->
       for k = n - 1 downto 0 do
         let acc = ref b.(k) in
         for j = k + 1 to n - 1 do
           acc := R.fma prec (-.ma.(k + (j * n))) b.(j) !acc
         done;
         let d = ma.(k + (k * n)) in
         if d = 0.0 then begin
           info := k + 1;
           raise Exit
         end;
         b.(k) <- R.div prec !acc d
       done
     | Eager ->
       for k = n - 1 downto 0 do
         let d = ma.(k + (k * n)) in
         if d = 0.0 then begin
           info := k + 1;
           raise Exit
         end;
         b.(k) <- R.div prec b.(k) d;
         let bk = b.(k) in
         for i = 0 to k - 1 do
           b.(i) <- R.fma prec (-.ma.(i + (k * n))) bk b.(i)
         done
       done
   with Exit -> ());
  !info

(* Shared by both public forms below: one calling the other through its
   optional [?prec] would allocate a [Some] per call. *)
let upper_status prec variant m b =
  check m b "Trsv.upper_in_place";
  let n = Array.length b and ma = m.Matrix.a in
  match prec with
  | Precision.Double -> (upper_k [@inlined]) Precision.Double variant ma b n
  | Single -> (upper_k [@inlined]) Precision.Single variant ma b n

let upper_in_place_status ?(prec = Precision.Double) ?(variant = Eager) m b =
  upper_status prec variant m b

let upper_in_place ?(prec = Precision.Double) ?(variant = Eager) m b =
  let info = upper_status prec variant m b in
  if info <> 0 then raise (Error.Singular (info - 1))

(* Batch-view solves for the direct-execution fast path: the unit-lower /
   upper pair over a column-major n-by-n factor block at [moff] and a
   solution segment at [boff], solved in place.  [mstride]/[bstride]
   (default 1) are the batches' element strides — 1 for the blocked
   layout, the cohort width for interleaved storage, where consecutive
   elements of one problem sit a stride apart: element (i,j) of the block
   is [m.(moff + mstride*(i + j*n))], element i of the segment
   [b.(boff + bstride*i)].  The op schedules replicate the batched warp
   kernels exactly — the eager (AXPY) form issues one FMA per column
   element, the lazy (DOT) form a rounded product per row element folded
   left-to-right — so results are bitwise identical. *)

let[@inline] pair_eager_k prec mstride bstride m moff n b boff =
  for k = 0 to n - 2 do
    let bk = b.(boff + (bstride * k)) in
    for i = k + 1 to n - 1 do
      let bi = boff + (bstride * i) in
      b.(bi) <- R.fma prec (-.m.(moff + (mstride * (i + (k * n))))) bk b.(bi)
    done
  done;
  let info = ref 0 in
  (try
     for k = n - 1 downto 0 do
       let d = m.(moff + (mstride * (k + (k * n)))) in
       if d = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       let bk = boff + (bstride * k) in
       b.(bk) <- R.div prec b.(bk) d;
       let bk = b.(bk) in
       for i = 0 to k - 1 do
         let bi = boff + (bstride * i) in
         b.(bi) <-
           R.fma prec (-.m.(moff + (mstride * (i + (k * n))))) bk b.(bi)
       done
     done
   with Exit -> ());
  !info

let pair_eager_view ?(prec = Precision.Double) ?(mstride = 1) ?(bstride = 1)
    ~m ~moff ~n ~b ~boff () =
  match prec with
  | Precision.Double ->
    (pair_eager_k [@inlined]) Precision.Double mstride bstride m moff n b boff
  | Single ->
    (pair_eager_k [@inlined]) Precision.Single mstride bstride m moff n b boff

let[@inline] pair_lazy_k prec mstride bstride m moff n b boff =
  for k = 1 to n - 1 do
    let acc = ref 0.0 in
    for j = 0 to k - 1 do
      acc :=
        R.add prec
          (R.mul prec
             m.(moff + (mstride * (k + (j * n))))
             b.(boff + (bstride * j)))
          !acc
    done;
    let bk = boff + (bstride * k) in
    b.(bk) <- R.sub prec b.(bk) !acc
  done;
  let info = ref 0 in
  (try
     for k = n - 1 downto 0 do
       let acc = ref 0.0 in
       for j = k + 1 to n - 1 do
         acc :=
           R.add prec
             (R.mul prec m.(moff + (mstride * (k + (j * n))))
                b.(boff + (bstride * j)))
             !acc
       done;
       let diag = m.(moff + (mstride * (k + (k * n)))) in
       if diag = 0.0 then begin
         info := k + 1;
         raise Exit
       end;
       let bk = boff + (bstride * k) in
       b.(bk) <- R.div prec (R.sub prec b.(bk) !acc) diag
     done
   with Exit -> ());
  !info

let pair_lazy_view ?(prec = Precision.Double) ?(mstride = 1) ?(bstride = 1)
    ~m ~moff ~n ~b ~boff () =
  match prec with
  | Precision.Double ->
    (pair_lazy_k [@inlined]) Precision.Double mstride bstride m moff n b boff
  | Single ->
    (pair_lazy_k [@inlined]) Precision.Single mstride bstride m moff n b boff

let apply_perm perm b =
  if Array.length perm <> Array.length b then
    invalid_arg "Trsv.apply_perm: dimension mismatch";
  Array.map (fun k -> b.(k)) perm

let solve_status ?(prec = Precision.Double) ?(variant = Eager) lu perm b =
  let x = apply_perm perm b in
  lower_unit_in_place ~prec ~variant lu x;
  let info = upper_in_place_status ~prec ~variant lu x in
  (x, info)

let solve ?(prec = Precision.Double) ?(variant = Eager) lu perm b =
  let x, info = solve_status ~prec ~variant lu perm b in
  if info <> 0 then raise (Error.Singular (info - 1));
  x
