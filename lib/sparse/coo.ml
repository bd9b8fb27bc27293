type t = {
  n_rows : int;
  n_cols : int;
  mutable rows : int array;
  mutable cols : int array;
  mutable vals : float array;
  mutable len : int;
}

let create ~n_rows ~n_cols =
  if n_rows < 0 || n_cols < 0 then invalid_arg "Coo.create: negative dimension";
  { n_rows; n_cols; rows = Array.make 64 0; cols = Array.make 64 0;
    vals = Array.make 64 0.0; len = 0 }

let grow t =
  let cap = Array.length t.rows in
  let ncap = 2 * cap in
  let extend a zero =
    let b = Array.make ncap zero in
    Array.blit a 0 b 0 cap;
    b
  in
  t.rows <- extend t.rows 0;
  t.cols <- extend t.cols 0;
  t.vals <- extend t.vals 0.0

let add t i j v =
  if i < 0 || i >= t.n_rows || j < 0 || j >= t.n_cols then
    invalid_arg "Coo.add: entry out of range";
  if t.len = Array.length t.rows then grow t;
  t.rows.(t.len) <- i;
  t.cols.(t.len) <- j;
  t.vals.(t.len) <- v;
  t.len <- t.len + 1

let to_csr ?(drop_zeros = false) t =
  let n = t.len in
  let order = Array.init n (fun k -> k) in
  let cmp a b =
    let c = compare t.rows.(a) t.rows.(b) in
    if c <> 0 then c else compare t.cols.(a) t.cols.(b)
  in
  Array.sort cmp order;
  (* Merge runs of equal (i,j) by summation. *)
  let mrows = Array.make n 0 in
  let mcols = Array.make n 0 in
  let mvals = Array.make n 0.0 in
  let m = ref 0 in
  Array.iter
    (fun k ->
      let i = t.rows.(k) and j = t.cols.(k) and v = t.vals.(k) in
      if !m > 0 && mrows.(!m - 1) = i && mcols.(!m - 1) = j then
        mvals.(!m - 1) <- mvals.(!m - 1) +. v
      else begin
        mrows.(!m) <- i;
        mcols.(!m) <- j;
        mvals.(!m) <- v;
        incr m
      end)
    order;
  let keep k = (not drop_zeros) || mvals.(k) <> 0.0 in
  let kept = ref 0 in
  for k = 0 to !m - 1 do
    if keep k then incr kept
  done;
  let row_ptr = Array.make (t.n_rows + 1) 0 in
  let col_idx = Array.make !kept 0 in
  let values = Array.make !kept 0.0 in
  let pos = ref 0 in
  for k = 0 to !m - 1 do
    if keep k then begin
      row_ptr.(mrows.(k) + 1) <- row_ptr.(mrows.(k) + 1) + 1;
      col_idx.(!pos) <- mcols.(k);
      values.(!pos) <- mvals.(k);
      incr pos
    end
  done;
  for i = 0 to t.n_rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  Csr.create ~n_rows:t.n_rows ~n_cols:t.n_cols ~row_ptr ~col_idx ~values
