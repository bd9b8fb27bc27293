open Vblu_smallblas
open Vblu_sparse

type factors = {
  pattern : Csr.t;  (** original matrix (for the index structure). *)
  values : float array;  (** factored values on the same pattern. *)
  diag_pos : int array;  (** position of (i,i) within [values]. *)
}

(* Rounded arithmetic inlined into this unit, bitwise equal to
   [Precision]'s: under [-opaque] a call into another unit boxes every
   float it passes or returns.  The elimination and the sweeps are
   [@inline] bodies instantiated once per precision, so in Double [round]
   folds away instead of testing the precision per entry (DESIGN §5i). *)
module R = struct
  let[@inline] round p x =
    match p with
    | Precision.Double -> x
    | Single -> Int32.float_of_bits (Int32.bits_of_float x)

  let[@inline] sub p a b = round p (a -. b)
  let[@inline] mul p a b = round p (a *. b)
  let[@inline] div p a b = round p (a /. b)
end

let[@inline] factorize_k prec policy (a : Csr.t) v diag_pos n =
  (* IKJ elimination restricted to the pattern.  [where.(c)] maps a column
     to its position in the current row, -1 elsewhere.  The trailing
     update multiplies and subtracts with separate roundings — the scalar
     shadow of the block path's GEMM wave (alpha = -1, beta = 1), so a
     size-1-block Block_ilu0 reproduces these values bitwise.  A row's
     pivot is final once its own elimination completes (later rows never
     write into it), so breakdown is decided there, like the block path
     decides at the row's elimination wave. *)
  let where = Array.make n (-1) in
  let info = ref 0 in
  let frozen = ref false in
  let i = ref 0 in
  while (not !frozen) && !i < n do
    let row_lo = a.Csr.row_ptr.(!i) and row_hi = a.Csr.row_ptr.(!i + 1) in
    for p = row_lo to row_hi - 1 do
      where.(a.Csr.col_idx.(p)) <- p
    done;
    for p = row_lo to row_hi - 1 do
      let k = a.Csr.col_idx.(p) in
      if k < !i then begin
        (* Earlier breakdown rows were already patched (or froze the
           sweep), so the pivot here is nonzero by construction. *)
        v.(p) <- R.div prec v.(p) v.(diag_pos.(k));
        let lik = v.(p) in
        (* Update the intersection of row i's pattern with row k's tail. *)
        for q = diag_pos.(k) + 1 to a.Csr.row_ptr.(k + 1) - 1 do
          let j = a.Csr.col_idx.(q) in
          let pj = where.(j) in
          if pj >= 0 then
            v.(pj) <- R.sub prec v.(pj) (R.mul prec lik v.(q))
        done
      end
    done;
    if v.(diag_pos.(!i)) = 0.0 then begin
      if !info = 0 then info := !i + 1;
      match policy with
      | Block_jacobi.Identity_block -> v.(diag_pos.(!i)) <- 1.0
      | Block_jacobi.Perturb eps ->
        (* A zero pivot means the 1x1 breakdown "block" is all zero, so
           the [Perturb] rescue's [eps * scale] diagonal shift reduces to
           [eps] ([scale = 1.0]). *)
        v.(diag_pos.(!i)) <- eps
      | Block_jacobi.Fail -> frozen := true
    end;
    for p = row_lo to row_hi - 1 do
      where.(a.Csr.col_idx.(p)) <- -1
    done;
    incr i
  done;
  !info

let factorize ?(prec = Precision.Double)
    ?(policy = (Block_jacobi.Identity_block : Block_jacobi.breakdown_policy))
    (a : Csr.t) =
  let n, cols = Csr.dims a in
  if n <> cols then invalid_arg "Ilu0.factorize: matrix not square";
  let diag_pos = Array.make n (-1) in
  for i = 0 to n - 1 do
    for p = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
      if a.Csr.col_idx.(p) = i then diag_pos.(i) <- p
    done;
    if diag_pos.(i) < 0 then
      invalid_arg "Ilu0.factorize: structurally missing diagonal entry"
  done;
  let v = Array.copy a.Csr.values in
  let info =
    match prec with
    | Precision.Double ->
      (factorize_k [@inlined]) Precision.Double policy a v diag_pos n
    | Single -> (factorize_k [@inlined]) Precision.Single policy a v diag_pos n
  in
  ({ pattern = a; values = v; diag_pos }, info)

let[@inline] solve_k prec f x n =
  let a = f.pattern in
  (* Forward: unit-lower sweep over the strictly-lower entries
     (multiply-then-subtract, like the level-scheduled GEMM waves). *)
  for i = 0 to n - 1 do
    let acc = ref x.(i) in
    for p = a.Csr.row_ptr.(i) to f.diag_pos.(i) - 1 do
      acc :=
        R.sub prec !acc
          (R.mul prec f.values.(p) x.(a.Csr.col_idx.(p)))
    done;
    x.(i) <- !acc
  done;
  (* Backward: upper sweep including the diagonal. *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for p = f.diag_pos.(i) + 1 to a.Csr.row_ptr.(i + 1) - 1 do
      acc :=
        R.sub prec !acc
          (R.mul prec f.values.(p) x.(a.Csr.col_idx.(p)))
    done;
    x.(i) <- R.div prec !acc f.values.(f.diag_pos.(i))
  done

let solve ?(prec = Precision.Double) f b =
  let n, _ = Csr.dims f.pattern in
  if Array.length b <> n then invalid_arg "Ilu0.solve: dimension mismatch";
  let x = Array.copy b in
  (match prec with
  | Precision.Double -> (solve_k [@inlined]) Precision.Double f x n
  | Single -> (solve_k [@inlined]) Precision.Single f x n);
  x

let preconditioner ?(prec = Precision.Double)
    ?(policy = (Block_jacobi.Identity_block : Block_jacobi.breakdown_policy))
    (a : Csr.t) =
  let (f, info), setup_seconds =
    Preconditioner.timed (fun () -> factorize ~prec ~policy a)
  in
  (if info <> 0 then
     match policy with
     | Block_jacobi.Fail -> raise (Error.Singular (info - 1))
     | _ -> ());
  let n, _ = Csr.dims a in
  {
    Preconditioner.name = "ilu0";
    dim = n;
    setup_seconds;
    apply = (fun r -> solve ~prec f r);
  }
