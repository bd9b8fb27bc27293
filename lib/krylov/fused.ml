open Vblu_smallblas

(* Rounded arithmetic inlined into this unit, bitwise equal to
   [Precision]'s (DESIGN §5i).  Every pass below is an [@inline] body
   whose precision, mode and term or dot count are constants at each
   instantiation, so a pass runs one unrolled loop with no per-element
   test of either.

   The entry points check every length, so the loops index unchecked.
   Each element is bound to a local before it is used: an unchecked
   load used in place may become the memory operand of a product, and
   operand order is part of the bits.  Of two NaNs a product keeps the
   payload of the operand in the destination register.  [Vector.axpy]
   and [scal] receive their coefficient boxed and multiply it from
   memory, so the vector element is that operand; the passes therefore
   write each scaled term element first ([x_i *. c]), and each dot as
   [Vector.dot] does ([w_i *. y_i]).  test_alloc's "fused idr passes"
   property pins this on NaN inputs. *)
module R = struct
  let[@inline] round p x =
    match p with
    | Precision.Double -> x
    | Single -> Int32.float_of_bits (Int32.bits_of_float x)

  let[@inline] mul p a b = round p (a *. b)
  let[@inline] fma p a b c = round p ((a *. b) +. c)
end

(* One group of [nt <= 4] terms:
   [dst.(i) <- init + Σ_j c_j·xs.(xoff + j).(i)], each term one rounded
   [Vector.axpy] step in ascending [j].  [init] is [src.(i)], or
   [c.(ai)·src.(i)] rounded with [scale] ([Vector.scal]); [neg] negates
   every term coefficient as the caller of [axpy (-. c)] does. *)
let[@inline] terms_k prec ~neg ~scale nt c ai coff xs xoff src dst =
  let x0 = if nt > 0 then xs.(xoff) else src in
  let x1 = if nt > 1 then xs.(xoff + 1) else src in
  let x2 = if nt > 2 then xs.(xoff + 2) else src in
  let x3 = if nt > 3 then xs.(xoff + 3) else src in
  let c0 = if nt > 0 then c.(coff) else 0.0 in
  let c1 = if nt > 1 then c.(coff + 1) else 0.0 in
  let c2 = if nt > 2 then c.(coff + 2) else 0.0 in
  let c3 = if nt > 3 then c.(coff + 3) else 0.0 in
  let c0 = if neg then -.c0 else c0 and c1 = if neg then -.c1 else c1 in
  let c2 = if neg then -.c2 else c2 and c3 = if neg then -.c3 else c3 in
  let a = if scale then c.(ai) else 0.0 in
  for i = 0 to Array.length dst - 1 do
    let si = Array.unsafe_get src i in
    let acc = ref (if scale then R.mul prec si a else si) in
    if nt > 0 then begin
      let e = Array.unsafe_get x0 i in
      acc := R.fma prec e c0 !acc
    end;
    if nt > 1 then begin
      let e = Array.unsafe_get x1 i in
      acc := R.fma prec e c1 !acc
    end;
    if nt > 2 then begin
      let e = Array.unsafe_get x2 i in
      acc := R.fma prec e c2 !acc
    end;
    if nt > 3 then begin
      let e = Array.unsafe_get x3 i in
      acc := R.fma prec e c3 !acc
    end;
    Array.unsafe_set dst i !acc
  done

let[@inline] terms_n prec ~neg ~scale nt c ai coff xs xoff src dst =
  match nt with
  | 0 -> (terms_k [@inlined]) prec ~neg ~scale 0 c ai coff xs xoff src dst
  | 1 -> (terms_k [@inlined]) prec ~neg ~scale 1 c ai coff xs xoff src dst
  | 2 -> (terms_k [@inlined]) prec ~neg ~scale 2 c ai coff xs xoff src dst
  | 3 -> (terms_k [@inlined]) prec ~neg ~scale 3 c ai coff xs xoff src dst
  | _ -> (terms_k [@inlined]) prec ~neg ~scale 4 c ai coff xs xoff src dst

(* The first group reads [src]; each further group of four continues
   from [dst] with no scaling, so every element sees the same ops in the
   same order as the one-term-per-pass schedule. *)
let[@inline] combine_k prec ~neg ~scale c ai coff xs xoff m src dst =
  let g = min m 4 in
  (terms_n [@inlined]) prec ~neg ~scale g c ai coff xs xoff src dst;
  let j = ref g in
  while !j < m do
    let o = !j in
    (terms_n [@inlined]) prec ~neg ~scale:false (min 4 (m - o)) c ai (coff + o)
      xs (xoff + o) dst dst;
    j := o + 4
  done

let check_terms fn ~c ~coff ~xs ~xoff ~m src dst =
  if
    m < 0 || coff < 0 || coff + m > Array.length c || xoff < 0
    || xoff + m > Array.length xs
  then invalid_arg (fn ^ ": term range out of bounds");
  let n = Array.length dst in
  if Array.length src <> n then invalid_arg (fn ^ ": dimension mismatch");
  for j = xoff to xoff + m - 1 do
    if Array.length xs.(j) <> n then invalid_arg (fn ^ ": dimension mismatch")
  done

let sub_terms ?(prec = Precision.Double) ~c ~coff ~xs ~xoff ~m src dst =
  check_terms "Fused.sub_terms" ~c ~coff ~xs ~xoff ~m src dst;
  match prec with
  | Precision.Double ->
    (combine_k [@inlined]) Precision.Double ~neg:true ~scale:false c 0 coff
      xs xoff m src dst
  | Single ->
    (combine_k [@inlined]) Precision.Single ~neg:true ~scale:false c 0 coff
      xs xoff m src dst

let scale_terms ?(prec = Precision.Double) ~c ~coff ~xs ~xoff ~m src dst =
  if coff < 0 || coff >= Array.length c then
    invalid_arg "Fused.scale_terms: term range out of bounds";
  check_terms "Fused.scale_terms" ~c ~coff:(coff + 1) ~xs ~xoff ~m src dst;
  match prec with
  | Precision.Double ->
    (combine_k [@inlined]) Precision.Double ~neg:false ~scale:true c coff
      (coff + 1) xs xoff m src dst
  | Single ->
    (combine_k [@inlined]) Precision.Single ~neg:false ~scale:true c coff
      (coff + 1) xs xoff m src dst

(* [gk -= a·g; uk -= a·u] with [a = c.(ci)], carrying [nd <= 4] dots
   [w_j·gk] of the values just written. *)
let[@inline] biortho_k prec nd c ci g u gk uk ws woff out ooff =
  let a = -.c.(ci) in
  let w0 = if nd > 0 then ws.(woff) else gk in
  let w1 = if nd > 1 then ws.(woff + 1) else gk in
  let w2 = if nd > 2 then ws.(woff + 2) else gk in
  let w3 = if nd > 3 then ws.(woff + 3) else gk in
  let d0 = ref 0.0 and d1 = ref 0.0 and d2 = ref 0.0 and d3 = ref 0.0 in
  for i = 0 to Array.length gk - 1 do
    let gi = Array.unsafe_get g i and ui = Array.unsafe_get u i in
    let y = R.fma prec gi a (Array.unsafe_get gk i) in
    Array.unsafe_set gk i y;
    Array.unsafe_set uk i (R.fma prec ui a (Array.unsafe_get uk i));
    if nd > 0 then begin
      let w = Array.unsafe_get w0 i in
      d0 := R.fma prec w y !d0
    end;
    if nd > 1 then begin
      let w = Array.unsafe_get w1 i in
      d1 := R.fma prec w y !d1
    end;
    if nd > 2 then begin
      let w = Array.unsafe_get w2 i in
      d2 := R.fma prec w y !d2
    end;
    if nd > 3 then begin
      let w = Array.unsafe_get w3 i in
      d3 := R.fma prec w y !d3
    end
  done;
  if nd > 0 then out.(ooff) <- !d0;
  if nd > 1 then out.(ooff + 1) <- !d1;
  if nd > 2 then out.(ooff + 2) <- !d2;
  if nd > 3 then out.(ooff + 3) <- !d3

let[@inline] biortho_n prec nd c ci g u gk uk ws woff out ooff =
  match nd with
  | 0 -> (biortho_k [@inlined]) prec 0 c ci g u gk uk ws woff out ooff
  | 1 -> (biortho_k [@inlined]) prec 1 c ci g u gk uk ws woff out ooff
  | 2 -> (biortho_k [@inlined]) prec 2 c ci g u gk uk ws woff out ooff
  | 3 -> (biortho_k [@inlined]) prec 3 c ci g u gk uk ws woff out ooff
  | _ -> (biortho_k [@inlined]) prec 4 c ci g u gk uk ws woff out ooff

let check_pair fn ~c ~ci a b y z =
  if ci < 0 || ci >= Array.length c then
    invalid_arg (fn ^ ": coefficient out of bounds");
  let n = Array.length y in
  if Array.length a <> n || Array.length b <> n || Array.length z <> n then
    invalid_arg (fn ^ ": dimension mismatch")

(* [?prec] is passed on to [Vector.dots_into] as given: a fresh [Some]
   would allocate. *)
let biortho ?prec ~c ~ci ~g ~u gk uk ~ws ~woff ~nd ~out ~ooff =
  check_pair "Fused.biortho" ~c ~ci g u gk uk;
  Vector.check_dots "Fused.biortho" gk ~ws ~woff ~nd ~out ~ooff ~gap:0;
  let n4 = min nd 4 in
  (match Option.value prec ~default:Precision.Double with
  | Precision.Double ->
    (biortho_n [@inlined]) Precision.Double n4 c ci g u gk uk ws woff out ooff
  | Single ->
    (biortho_n [@inlined]) Precision.Single n4 c ci g u gk uk ws woff out ooff);
  if nd > 4 then
    Vector.dots_into ?prec ~y_left:false gk ~ws ~woff:(woff + 4)
      ~nd:(nd - 4) ~out ~ooff:(ooff + 4)

(* [r -= a·y; x += a·z] with [a = c.(ci)], carrying [r·r] into
   [out.(ooff)] and [nd <= 4] dots [w_j·r] after it. *)
let[@inline] update_k prec nd c ci y z r x ws woff out ooff =
  let a = c.(ci) in
  let na = -.a in
  let w0 = if nd > 0 then ws.(woff) else r in
  let w1 = if nd > 1 then ws.(woff + 1) else r in
  let w2 = if nd > 2 then ws.(woff + 2) else r in
  let w3 = if nd > 3 then ws.(woff + 3) else r in
  let rr = ref 0.0 in
  let d0 = ref 0.0 and d1 = ref 0.0 and d2 = ref 0.0 and d3 = ref 0.0 in
  for i = 0 to Array.length r - 1 do
    let yi = Array.unsafe_get y i and zi = Array.unsafe_get z i in
    let ri = R.fma prec yi na (Array.unsafe_get r i) in
    Array.unsafe_set r i ri;
    Array.unsafe_set x i (R.fma prec zi a (Array.unsafe_get x i));
    rr := R.fma prec ri ri !rr;
    if nd > 0 then begin
      let w = Array.unsafe_get w0 i in
      d0 := R.fma prec w ri !d0
    end;
    if nd > 1 then begin
      let w = Array.unsafe_get w1 i in
      d1 := R.fma prec w ri !d1
    end;
    if nd > 2 then begin
      let w = Array.unsafe_get w2 i in
      d2 := R.fma prec w ri !d2
    end;
    if nd > 3 then begin
      let w = Array.unsafe_get w3 i in
      d3 := R.fma prec w ri !d3
    end
  done;
  out.(ooff) <- !rr;
  if nd > 0 then out.(ooff + 1) <- !d0;
  if nd > 1 then out.(ooff + 2) <- !d1;
  if nd > 2 then out.(ooff + 3) <- !d2;
  if nd > 3 then out.(ooff + 4) <- !d3

let[@inline] update_n prec nd c ci y z r x ws woff out ooff =
  match nd with
  | 0 -> (update_k [@inlined]) prec 0 c ci y z r x ws woff out ooff
  | 1 -> (update_k [@inlined]) prec 1 c ci y z r x ws woff out ooff
  | 2 -> (update_k [@inlined]) prec 2 c ci y z r x ws woff out ooff
  | 3 -> (update_k [@inlined]) prec 3 c ci y z r x ws woff out ooff
  | _ -> (update_k [@inlined]) prec 4 c ci y z r x ws woff out ooff

let update ?prec ~c ~ci ~y ~z r x ~ws ~woff ~nd ~out ~ooff =
  check_pair "Fused.update" ~c ~ci y z r x;
  Vector.check_dots "Fused.update" r ~ws ~woff ~nd ~out ~ooff ~gap:1;
  let n4 = min nd 4 in
  (match Option.value prec ~default:Precision.Double with
  | Precision.Double ->
    (update_n [@inlined]) Precision.Double n4 c ci y z r x ws woff out ooff
  | Single ->
    (update_n [@inlined]) Precision.Single n4 c ci y z r x ws woff out ooff);
  if nd > 4 then
    Vector.dots_into ?prec ~y_left:false r ~ws ~woff:(woff + 4) ~nd:(nd - 4)
      ~out ~ooff:(ooff + 5)
