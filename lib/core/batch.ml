open Vblu_smallblas

type layout = Blocked | Interleaved

let layout_name = function Blocked -> "blocked" | Interleaved -> "interleaved"

let layout_of_string s =
  match String.lowercase_ascii s with
  | "blocked" -> Ok Blocked
  | "interleaved" -> Ok Interleaved
  | _ ->
    Error
      (Printf.sprintf "invalid layout %S: expected blocked or interleaved" s)

(* Interleaved cohorts hold at most [chunk] problems (one warp's worth:
   lane = cohort slot on the modelled GPU) and start at [chunk]-aligned
   element offsets, so a cohort base is aligned for every transaction size
   that divides the warp width. *)
let chunk = 32

type t = {
  count : int;
  layout : layout;
  sizes : int array;
  offsets : int array;
  widths : int array;
  slots : int array;
  values : float array;
}

(* Storage geometry shared by matrix and vector batches; [per_block] is the
   element count of one problem (s² or s).

   Blocked: back-to-back, [offsets] the prefix sums.

   Interleaved: problems are grouped into same-size cohorts in batch order —
   each problem joins the open cohort of its size while it has fewer than
   [chunk] members, else opens a new one.  The grouping is a pure function
   of the size array alone (not of [per_block]), so a matrix batch and a
   vector batch over the same sizes agree on cohort membership, width and
   slot.  Within a cohort of width [w], element [e] of the member in slot
   [t] lives at [base + e*w + t]: element [e] of every member is
   contiguous.  Returns [(offsets, widths, slots)] with [offsets.(i)] the
   member base ([cohort base + slot]), [offsets.(count)] the total storage
   (padding included), and [widths.(i)] the element stride. *)
let geometry ~layout ~per_block sizes =
  let count = Array.length sizes in
  Array.iter
    (fun s -> if s <= 0 then invalid_arg "Batch: non-positive block size")
    sizes;
  match layout with
  | Blocked ->
    let offsets = Array.make (count + 1) 0 in
    for i = 0 to count - 1 do
      offsets.(i + 1) <- offsets.(i) + per_block sizes.(i)
    done;
    (offsets, Array.make count 1, Array.make count 0)
  | Interleaved ->
    let offsets = Array.make (count + 1) 0 in
    let widths = Array.make count 0 in
    let slots = Array.make count 0 in
    let cohort_of = Array.make count 0 in
    let members = Array.make count 0 in
    let open_cohort = Hashtbl.create 16 in
    let n_cohorts = ref 0 in
    for i = 0 to count - 1 do
      let s = sizes.(i) in
      let c =
        match Hashtbl.find_opt open_cohort s with
        | Some c when members.(c) < chunk -> c
        | _ ->
          let c = !n_cohorts in
          incr n_cohorts;
          Hashtbl.replace open_cohort s c;
          c
      in
      cohort_of.(i) <- c;
      slots.(i) <- members.(c);
      members.(c) <- members.(c) + 1
    done;
    let cbase = Array.make (max 1 !n_cohorts) 0 in
    let celems = Array.make (max 1 !n_cohorts) 0 in
    for i = 0 to count - 1 do
      celems.(cohort_of.(i)) <- per_block sizes.(i)
    done;
    let off = ref 0 in
    for c = 0 to !n_cohorts - 1 do
      let aligned = (!off + chunk - 1) / chunk * chunk in
      cbase.(c) <- aligned;
      off := aligned + (celems.(c) * members.(c))
    done;
    for i = 0 to count - 1 do
      let c = cohort_of.(i) in
      widths.(i) <- members.(c);
      offsets.(i) <- cbase.(c) + slots.(i)
    done;
    offsets.(count) <- !off;
    (offsets, widths, slots)

let shape ?(layout = Blocked) sizes =
  let sizes = Array.copy sizes in
  let offsets, widths, slots =
    geometry ~layout ~per_block:(fun s -> s * s) sizes
  in
  {
    count = Array.length sizes;
    layout;
    sizes;
    offsets;
    widths;
    slots;
    values = [||];
  }

let create ?layout sizes =
  let b = shape ?layout sizes in
  { b with values = Array.make b.offsets.(b.count) 0.0 }

let with_values b values =
  if Array.length values <> b.offsets.(b.count) then
    invalid_arg "Batch.with_values: length mismatch";
  { b with values }

let layout b = b.layout
let base b i = b.offsets.(i)
let stride b i = b.widths.(i)

let index b p r j =
  b.offsets.(p) + (b.widths.(p) * (r + (j * b.sizes.(p))))

let cohort b i =
  match b.layout with
  | Blocked -> None
  | Interleaved -> Some (b.widths.(i), b.slots.(i))

(* Transaction-alignment class for Launch.Cache salts.  Blocked charges
   depend on the raw base offset modulo the transaction width; interleaved
   charges depend only on the cohort width (the slot cancels out of the
   cooperative coalescing model and cohort bases are [chunk]-aligned).  The
   two layouts map to disjoint ranges — [0, align) vs [align+1, align+chunk]
   — so a blocked cache entry can never be replayed for an interleaved
   launch or vice versa. *)
let salt_class b i ~align =
  match b.layout with
  | Blocked -> b.offsets.(i) mod align
  | Interleaved -> align + b.widths.(i)

(* Layout tag for analytically charged kernels whose traffic never consults
   raw addresses: 0 for blocked, the cohort width for interleaved. *)
let cohort_salt b i =
  match b.layout with Blocked -> 0 | Interleaved -> b.widths.(i)

let of_matrices ?layout ms =
  let sizes =
    Array.map
      (fun m ->
        let r, c = Matrix.dims m in
        if r <> c then invalid_arg "Batch.of_matrices: non-square block";
        r)
      ms
  in
  let b = create ?layout sizes in
  Array.iteri
    (fun i m ->
      let s = sizes.(i) and off = b.offsets.(i) and st = b.widths.(i) in
      for j = 0 to s - 1 do
        for r = 0 to s - 1 do
          b.values.(off + (st * (r + (j * s)))) <- m.Matrix.a.(r + (j * s))
        done
      done)
    ms;
  b

let get_matrix b i =
  let s = b.sizes.(i) and off = b.offsets.(i) and st = b.widths.(i) in
  let m = Matrix.create s s in
  for j = 0 to s - 1 do
    for row = 0 to s - 1 do
      m.Matrix.a.(row + (j * s)) <- b.values.(off + (st * (row + (j * s))))
    done
  done;
  m

let to_matrices b = Array.init b.count (get_matrix b)

let set_matrix b i m =
  let r, c = Matrix.dims m in
  if r <> b.sizes.(i) || c <> b.sizes.(i) then
    invalid_arg "Batch.set_matrix: size mismatch";
  let s = b.sizes.(i) and off = b.offsets.(i) and st = b.widths.(i) in
  for j = 0 to s - 1 do
    for row = 0 to s - 1 do
      b.values.(off + (st * (row + (j * s)))) <- m.Matrix.a.(row + (j * s))
    done
  done

let with_layout layout b =
  if layout = b.layout then b
  else begin
    let out = create ~layout b.sizes in
    for i = 0 to b.count - 1 do
      let s = b.sizes.(i) in
      let soff = b.offsets.(i) and sst = b.widths.(i) in
      let doff = out.offsets.(i) and dst = out.widths.(i) in
      for e = 0 to (s * s) - 1 do
        out.values.(doff + (dst * e)) <- b.values.(soff + (sst * e))
      done
    done;
    out
  end

let count b = b.count

let total_values b = b.offsets.(b.count)

let uniform_sizes ~count ~size =
  if count < 0 then invalid_arg "Batch.uniform_sizes: negative count";
  if size <= 0 then invalid_arg "Batch.uniform_sizes: non-positive size";
  (* An empty batch is a defined no-op everywhere else in the container
     API, so [count = 0] yields [[||]] rather than raising. *)
  Array.make count size

(* Seeding discipline: a call without [?state] gets a {e fresh} state
   derived from a per-function salt, never a shared mutable stream.  The
   previous single [lazy] state made unseeded results depend on every
   earlier unseeded call anywhere in the process — reordering two launches
   silently changed the data.  Now unseeded calls are pure: same function,
   same arguments, same data, in any order and on any domain. *)
let derived_state salt = Random.State.make [| 0x5eed; 0xbacc; salt |]

let state_or ~salt = function
  | Some s -> s
  | None -> derived_state salt

let random_sizes ?state ~count ~min_size ~max_size () =
  if count < 0 || min_size <= 0 || max_size < min_size then
    invalid_arg "Batch.random_sizes";
  let st = state_or ~salt:1 state in
  Array.init count (fun _ -> min_size + Random.State.int st (max_size - min_size + 1))

let random_with gen ~salt ?state ?layout sizes =
  let st = state_or ~salt state in
  of_matrices ?layout (Array.map (fun s -> gen st s) sizes)

let random_diagdom ?state ?layout sizes =
  random_with (fun st s -> Matrix.random_diagdom ~state:st s) ~salt:2 ?state
    ?layout sizes

let random_general ?state ?layout sizes =
  random_with (fun st s -> Matrix.random_general ~state:st s) ~salt:3 ?state
    ?layout sizes

type vec = {
  vcount : int;
  vlayout : layout;
  vsizes : int array;
  voffsets : int array;
  vwidths : int array;
  vslots : int array;
  vvalues : float array;
}

let vec_shape ?(layout = Blocked) sizes =
  let vsizes = Array.copy sizes in
  let voffsets, vwidths, vslots =
    geometry ~layout ~per_block:(fun s -> s) vsizes
  in
  {
    vcount = Array.length vsizes;
    vlayout = layout;
    vsizes;
    voffsets;
    vwidths;
    vslots;
    vvalues = [||];
  }

let vec_create ?layout sizes =
  let v = vec_shape ?layout sizes in
  { v with vvalues = Array.make v.voffsets.(v.vcount) 0.0 }

let vec_with_values v vvalues =
  if Array.length vvalues <> v.voffsets.(v.vcount) then
    invalid_arg "Batch.vec_with_values: length mismatch";
  { v with vvalues }

let vec_layout v = v.vlayout
let vec_base v i = v.voffsets.(i)
let vec_stride v i = v.vwidths.(i)
let vec_index v p k = v.voffsets.(p) + (v.vwidths.(p) * k)

let vec_cohort v i =
  match v.vlayout with
  | Blocked -> None
  | Interleaved -> Some (v.vwidths.(i), v.vslots.(i))

let vec_salt_class v i ~align =
  match v.vlayout with
  | Blocked -> v.voffsets.(i) mod align
  | Interleaved -> align + v.vwidths.(i)

let vec_cohort_salt v i =
  match v.vlayout with Blocked -> 0 | Interleaved -> v.vwidths.(i)

let vec_of_vectors ?layout vs =
  let v = vec_create ?layout (Array.map Array.length vs) in
  Array.iteri
    (fun i x ->
      let off = v.voffsets.(i) and st = v.vwidths.(i) in
      Array.iteri (fun k xv -> v.vvalues.(off + (st * k)) <- xv) x)
    vs;
  v

let vec_get v i =
  let dst = Array.make v.vsizes.(i) 0.0 in
  let off = v.voffsets.(i) and st = v.vwidths.(i) in
  for k = 0 to v.vsizes.(i) - 1 do
    dst.(k) <- v.vvalues.(off + (st * k))
  done;
  dst

let vec_set v i x =
  if Array.length x <> v.vsizes.(i) then invalid_arg "Batch.vec_set: size mismatch";
  let off = v.voffsets.(i) and st = v.vwidths.(i) in
  Array.iteri (fun k xv -> v.vvalues.(off + (st * k)) <- xv) x

let vec_with_layout layout v =
  if layout = v.vlayout then v
  else begin
    let out = vec_create ~layout v.vsizes in
    for i = 0 to v.vcount - 1 do
      let soff = v.voffsets.(i) and sst = v.vwidths.(i) in
      let doff = out.voffsets.(i) and dst = out.vwidths.(i) in
      for k = 0 to v.vsizes.(i) - 1 do
        out.vvalues.(doff + (dst * k)) <- v.vvalues.(soff + (sst * k))
      done
    done;
    out
  end

(* Random data is drawn per problem in batch order (not in storage order),
   so the same seed yields the same per-problem vectors in either layout —
   the cross-layout bit-identity the kernel tests rely on. *)
let vec_random ?state ?layout sizes =
  let st = state_or ~salt:4 state in
  let v = vec_create ?layout sizes in
  for i = 0 to v.vcount - 1 do
    let off = v.voffsets.(i) and stw = v.vwidths.(i) in
    for k = 0 to v.vsizes.(i) - 1 do
      v.vvalues.(off + (stw * k)) <- -1.0 +. (2.0 *. Random.State.float st 1.0)
    done
  done;
  v
