open Vblu_smallblas

(* Rounded FMA inlined into this unit, bitwise equal to [Precision.fma]:
   under [-opaque] a call into another unit boxes every float it passes or
   returns.  The SpMV loop is an [@inline] body instantiated once per
   precision and dot count, so in Double [round] folds away (DESIGN §5i). *)
module R = struct
  let[@inline] round p x =
    match p with
    | Precision.Double -> x
    | Single -> Int32.float_of_bits (Int32.bits_of_float x)

  let[@inline] fma p a b c = round p ((a *. b) +. c)
end

type t = {
  n_rows : int;
  n_cols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

let validate t =
  let nnz = Array.length t.col_idx in
  if Array.length t.values <> nnz then
    invalid_arg "Csr.create: col_idx/values length mismatch";
  if Array.length t.row_ptr <> t.n_rows + 1 then
    invalid_arg "Csr.create: row_ptr length must be n_rows + 1";
  if t.row_ptr.(0) <> 0 || t.row_ptr.(t.n_rows) <> nnz then
    invalid_arg "Csr.create: row_ptr must start at 0 and end at nnz";
  for i = 0 to t.n_rows - 1 do
    if t.row_ptr.(i) > t.row_ptr.(i + 1) then
      invalid_arg "Csr.create: row_ptr not monotone";
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      if j < 0 || j >= t.n_cols then invalid_arg "Csr.create: column out of range";
      if k > t.row_ptr.(i) && t.col_idx.(k - 1) >= j then
        invalid_arg "Csr.create: columns not strictly increasing within a row"
    done
  done

let create ~n_rows ~n_cols ~row_ptr ~col_idx ~values =
  if n_rows < 0 || n_cols < 0 then invalid_arg "Csr.create: negative dimension";
  let t = { n_rows; n_cols; row_ptr; col_idx; values } in
  validate t;
  t

let nnz t = Array.length t.values

let dims t = (t.n_rows, t.n_cols)

let get t i j =
  if i < 0 || i >= t.n_rows || j < 0 || j >= t.n_cols then
    invalid_arg "Csr.get: out of bounds";
  let lo = ref t.row_ptr.(i) and hi = ref (t.row_ptr.(i + 1) - 1) in
  let found = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.col_idx.(mid) in
    if c = j then begin
      found := t.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let of_dense ?(threshold = 0.0) m =
  let rows, cols = Matrix.dims m in
  let entries = ref [] in
  let count = ref 0 in
  for i = rows - 1 downto 0 do
    for j = cols - 1 downto 0 do
      let v = m.Matrix.a.(i + (j * rows)) in
      if Float.abs v > threshold || (threshold = 0.0 && v <> 0.0) then begin
        entries := (i, j, v) :: !entries;
        incr count
      end
    done
  done;
  let row_ptr = Array.make (rows + 1) 0 in
  let col_idx = Array.make !count 0 in
  let values = Array.make !count 0.0 in
  List.iteri
    (fun k (i, j, v) ->
      row_ptr.(i + 1) <- row_ptr.(i + 1) + 1;
      col_idx.(k) <- j;
      values.(k) <- v)
    !entries;
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  { n_rows = rows; n_cols = cols; row_ptr; col_idx; values }

let to_dense t =
  let m = Matrix.create t.n_rows t.n_cols in
  for i = 0 to t.n_rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      m.Matrix.a.(i + (t.col_idx.(k) * t.n_rows)) <- t.values.(k)
    done
  done;
  m

(* [y = A·x] row by row, carrying [nd <= 4] dots of [y] against
   [ws.(woff + j)] into [out.(ooff + j)], each read back from the row just
   written and accumulated in index order: [Vector.dots_into]'s bits,
   operand order included ([y_left]).  [nd] and [y_left] are constants at
   each instantiation, so [spmv_into] is the [nd = 0] loop alone. *)
let[@inline] spmv_k prec ~y_left nd t x y ws woff out ooff =
  let w0 = if nd > 0 then ws.(woff) else y in
  let w1 = if nd > 1 then ws.(woff + 1) else y in
  let w2 = if nd > 2 then ws.(woff + 2) else y in
  let w3 = if nd > 3 then ws.(woff + 3) else y in
  let d0 = ref 0.0 and d1 = ref 0.0 and d2 = ref 0.0 and d3 = ref 0.0 in
  for i = 0 to t.n_rows - 1 do
    let acc = ref 0.0 in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      acc := R.fma prec t.values.(k) x.(t.col_idx.(k)) !acc
    done;
    y.(i) <- !acc;
    if y_left then begin
      if nd > 0 then d0 := R.fma prec y.(i) w0.(i) !d0;
      if nd > 1 then d1 := R.fma prec y.(i) w1.(i) !d1;
      if nd > 2 then d2 := R.fma prec y.(i) w2.(i) !d2;
      if nd > 3 then d3 := R.fma prec y.(i) w3.(i) !d3
    end
    else begin
      if nd > 0 then d0 := R.fma prec w0.(i) y.(i) !d0;
      if nd > 1 then d1 := R.fma prec w1.(i) y.(i) !d1;
      if nd > 2 then d2 := R.fma prec w2.(i) y.(i) !d2;
      if nd > 3 then d3 := R.fma prec w3.(i) y.(i) !d3
    end
  done;
  if nd > 0 then out.(ooff) <- !d0;
  if nd > 1 then out.(ooff + 1) <- !d1;
  if nd > 2 then out.(ooff + 2) <- !d2;
  if nd > 3 then out.(ooff + 3) <- !d3

let[@inline] spmv_n prec ~y_left t x y ws woff nd out ooff =
  match nd with
  | 0 -> (spmv_k [@inlined]) prec ~y_left 0 t x y ws woff out ooff
  | 1 -> (spmv_k [@inlined]) prec ~y_left 1 t x y ws woff out ooff
  | 2 -> (spmv_k [@inlined]) prec ~y_left 2 t x y ws woff out ooff
  | 3 -> (spmv_k [@inlined]) prec ~y_left 3 t x y ws woff out ooff
  | _ -> (spmv_k [@inlined]) prec ~y_left 4 t x y ws woff out ooff

let check_spmv t x y =
  if Array.length x <> t.n_cols || Array.length y <> t.n_rows then
    invalid_arg "Csr.spmv: dimension mismatch"

let spmv_into ?(prec = Precision.Double) t x y =
  check_spmv t x y;
  match prec with
  | Precision.Double ->
    (spmv_k [@inlined]) Precision.Double ~y_left:false 0 t x y [||] 0 [||] 0
  | Single ->
    (spmv_k [@inlined]) Precision.Single ~y_left:false 0 t x y [||] 0 [||] 0

let spmv_dots_into ?prec ~y_left t x y ~ws ~woff ~nd ~out ~ooff =
  check_spmv t x y;
  Vector.check_dots "Csr.spmv_dots_into" y ~ws ~woff ~nd ~out ~ooff ~gap:0;
  let n4 = min nd 4 in
  (match (Option.value prec ~default:Precision.Double, y_left) with
  | Precision.Double, false ->
    (spmv_n [@inlined]) Precision.Double ~y_left:false t x y ws woff n4 out
      ooff
  | Double, true ->
    (spmv_n [@inlined]) Precision.Double ~y_left:true t x y ws woff n4 out ooff
  | Single, false ->
    (spmv_n [@inlined]) Precision.Single ~y_left:false t x y ws woff n4 out
      ooff
  | Single, true ->
    (spmv_n [@inlined]) Precision.Single ~y_left:true t x y ws woff n4 out
      ooff);
  (* [?prec] is passed on as given: a fresh [Some] would allocate. *)
  if nd > 4 then
    Vector.dots_into ?prec ~y_left y ~ws ~woff:(woff + 4) ~nd:(nd - 4) ~out
      ~ooff:(ooff + 4)

let spmv ?(prec = Precision.Double) t x =
  let y = Array.make t.n_rows 0.0 in
  spmv_into ~prec t x y;
  y

let transpose t =
  let row_ptr = Array.make (t.n_cols + 1) 0 in
  let m = nnz t in
  for k = 0 to m - 1 do
    row_ptr.(t.col_idx.(k) + 1) <- row_ptr.(t.col_idx.(k) + 1) + 1
  done;
  for j = 0 to t.n_cols - 1 do
    row_ptr.(j + 1) <- row_ptr.(j + 1) + row_ptr.(j)
  done;
  let fill = Array.copy row_ptr in
  let col_idx = Array.make m 0 in
  let values = Array.make m 0.0 in
  for i = 0 to t.n_rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      col_idx.(fill.(j)) <- i;
      values.(fill.(j)) <- t.values.(k);
      fill.(j) <- fill.(j) + 1
    done
  done;
  { n_rows = t.n_cols; n_cols = t.n_rows; row_ptr; col_idx; values }

let diagonal t =
  let n = min t.n_rows t.n_cols in
  Array.init n (fun i -> get t i i)

let extract_block t ~row_start ~size =
  if row_start < 0 || row_start + size > t.n_rows || row_start + size > t.n_cols
  then invalid_arg "Csr.extract_block: block out of range";
  let m = Matrix.create size size in
  for i = 0 to size - 1 do
    for k = t.row_ptr.(row_start + i) to t.row_ptr.(row_start + i + 1) - 1 do
      let j = t.col_idx.(k) - row_start in
      if j >= 0 && j < size then m.Matrix.a.(i + (j * size)) <- t.values.(k)
    done
  done;
  m

let row_nnz t =
  Array.init t.n_rows (fun i -> t.row_ptr.(i + 1) - t.row_ptr.(i))

let row_imbalance t =
  if t.n_rows = 0 then 1.0
  else begin
    let counts = row_nnz t in
    let maxc = Array.fold_left max 0 counts in
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then 1.0
    else float_of_int maxc /. (float_of_int total /. float_of_int t.n_rows)
  end

let bandwidth t =
  let b = ref 0 in
  for i = 0 to t.n_rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      b := max !b (abs (i - t.col_idx.(k)))
    done
  done;
  !b

let is_symmetric_pattern t =
  t.n_rows = t.n_cols
  &&
  let tt = transpose t in
  let ok = ref true in
  for i = 0 to t.n_rows - 1 do
    if
      t.row_ptr.(i + 1) - t.row_ptr.(i) <> tt.row_ptr.(i + 1) - tt.row_ptr.(i)
    then ok := false
    else
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        if t.col_idx.(k) <> tt.col_idx.(k - t.row_ptr.(i) + tt.row_ptr.(i)) then
          ok := false
      done
  done;
  !ok

let equal ?(tol = 0.0) a b =
  a.n_rows = b.n_rows && a.n_cols = b.n_cols
  &&
  let ok = ref true in
  for i = 0 to a.n_rows - 1 do
    (* Compare row by row through [get], so differing explicit-zero
       patterns still compare equal. *)
    let check t other =
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        let j = t.col_idx.(k) in
        if Float.abs (t.values.(k) -. get other i j) > tol then ok := false
      done
    in
    check a b;
    check b a
  done;
  !ok

let pp_stats ppf t =
  Format.fprintf ppf "%dx%d, nnz=%d, imbalance=%.2f, bandwidth=%d" t.n_rows
    t.n_cols (nnz t) (row_imbalance t) (bandwidth t)
