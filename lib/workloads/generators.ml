open Vblu_sparse

let idx nx x y = x + (y * nx)

let laplacian_2d ?(nx = 32) ?(ny = 32) () =
  let n = nx * ny in
  let coo = Coo.create ~n_rows:n ~n_cols:n in
  for y = 0 to ny - 1 do
    for x = 0 to nx - 1 do
      let i = idx nx x y in
      Coo.add coo i i 4.0;
      if x > 0 then Coo.add coo i (idx nx (x - 1) y) (-1.0);
      if x < nx - 1 then Coo.add coo i (idx nx (x + 1) y) (-1.0);
      if y > 0 then Coo.add coo i (idx nx x (y - 1)) (-1.0);
      if y < ny - 1 then Coo.add coo i (idx nx x (y + 1)) (-1.0)
    done
  done;
  Coo.to_csr coo

let laplacian_3d ?(nx = 12) ?(ny = 12) ?(nz = 12) () =
  let n = nx * ny * nz in
  let id x y z = x + (y * nx) + (z * nx * ny) in
  let coo = Coo.create ~n_rows:n ~n_cols:n in
  for z = 0 to nz - 1 do
    for y = 0 to ny - 1 do
      for x = 0 to nx - 1 do
        let i = id x y z in
        Coo.add coo i i 6.0;
        if x > 0 then Coo.add coo i (id (x - 1) y z) (-1.0);
        if x < nx - 1 then Coo.add coo i (id (x + 1) y z) (-1.0);
        if y > 0 then Coo.add coo i (id x (y - 1) z) (-1.0);
        if y < ny - 1 then Coo.add coo i (id x (y + 1) z) (-1.0);
        if z > 0 then Coo.add coo i (id x y (z - 1)) (-1.0);
        if z < nz - 1 then Coo.add coo i (id x y (z + 1)) (-1.0)
      done
    done
  done;
  Coo.to_csr coo

let convection_diffusion_2d ?(nx = 32) ?(ny = 32) ?(peclet = 10.0) () =
  let n = nx * ny in
  let h = 1.0 /. float_of_int (nx + 1) in
  (* Upwind convection in x and y with velocity (peclet, peclet/2). *)
  let cx = peclet *. h and cy = peclet *. h /. 2.0 in
  let coo = Coo.create ~n_rows:n ~n_cols:n in
  for y = 0 to ny - 1 do
    for x = 0 to nx - 1 do
      let i = idx nx x y in
      Coo.add coo i i (4.0 +. cx +. cy);
      if x > 0 then Coo.add coo i (idx nx (x - 1) y) (-1.0 -. cx);
      if x < nx - 1 then Coo.add coo i (idx nx (x + 1) y) (-1.0);
      if y > 0 then Coo.add coo i (idx nx x (y - 1)) (-1.0 -. cy);
      if y < ny - 1 then Coo.add coo i (idx nx x (y + 1)) (-1.0)
    done
  done;
  Coo.to_csr coo

let anisotropic_2d ?(nx = 32) ?(ny = 32) ?(epsilon = 0.01) () =
  let n = nx * ny in
  let coo = Coo.create ~n_rows:n ~n_cols:n in
  for y = 0 to ny - 1 do
    for x = 0 to nx - 1 do
      let i = idx nx x y in
      Coo.add coo i i (2.0 +. (2.0 *. epsilon));
      if x > 0 then Coo.add coo i (idx nx (x - 1) y) (-1.0);
      if x < nx - 1 then Coo.add coo i (idx nx (x + 1) y) (-1.0);
      if y > 0 then Coo.add coo i (idx nx x (y - 1)) (-.epsilon);
      if y < ny - 1 then Coo.add coo i (idx nx x (y + 1)) (-.epsilon)
    done
  done;
  Coo.to_csr coo

(* A ring-plus-chords node graph: connected, planar-ish locality so that
   natural ordering keeps neighbours close (good supervariable input). *)
let node_graph st nodes =
  let neighbors = Array.make nodes [] in
  let add a b =
    if a <> b && not (List.mem b neighbors.(a)) then begin
      neighbors.(a) <- b :: neighbors.(a);
      neighbors.(b) <- a :: neighbors.(b)
    end
  in
  for v = 0 to nodes - 1 do
    add v ((v + 1) mod nodes)
  done;
  for v = 0 to nodes - 1 do
    (* Short-range chords keep the bandwidth small. *)
    let reach = 2 + Random.State.int st 4 in
    add v (min (nodes - 1) (v + reach))
  done;
  neighbors

let fem_blocks ~state:st ?(nodes = 200) ?(vars_per_node = 4) ?(coupling = 0.25)
    ?(margin = 0.05) () =
  let m = vars_per_node in
  let n = nodes * m in
  let graph = node_graph st nodes in
  let coo = Coo.create ~n_rows:n ~n_cols:n in
  let rowsum = Array.make n 0.0 in
  let add i j v =
    Coo.add coo i j v;
    rowsum.(i) <- rowsum.(i) +. Float.abs v
  in
  for v = 0 to nodes - 1 do
    (* Dense node block (diagonal filled afterwards).  Off-diagonal
       entries are negative, as in a stiffness matrix: random signs would
       cancel and make the system unrealistically easy for Krylov. *)
    for a = 0 to m - 1 do
      for bb = 0 to m - 1 do
        if a <> bb then
          add ((v * m) + a) ((v * m) + bb) (-0.2 -. Random.State.float st 0.8)
      done
    done;
    (* Neighbour coupling: same column pattern for all vars of a node, so
       each node is an exact supervariable. *)
    List.iter
      (fun w ->
        for a = 0 to m - 1 do
          for bb = 0 to m - 1 do
            let value = -.coupling *. (0.2 +. Random.State.float st 0.8) in
            add ((v * m) + a) ((w * m) + bb) value
          done
        done)
      graph.(v)
  done;
  (* Barely diagonally dominant: nonsingular blocks, but weak enough that
     the preconditioner quality is visible in the iteration counts. *)
  for i = 0 to n - 1 do
    Coo.add coo i i ((1.0 +. margin) *. rowsum.(i))
  done;
  Coo.to_csr coo

let block_tridiagonal ~state:st ?(blocks = 64) ?(block_size = 16)
    ?(margin = 0.05) ?(coupling = 0.4) () =
  let m = block_size in
  let n = blocks * m in
  let coo = Coo.create ~n_rows:n ~n_cols:n in
  let rowsum = Array.make n 0.0 in
  let add i j v =
    Coo.add coo i j v;
    rowsum.(i) <- rowsum.(i) +. Float.abs v
  in
  for b = 0 to blocks - 1 do
    for a = 0 to m - 1 do
      for c = 0 to m - 1 do
        if a <> c then
          add ((b * m) + a) ((b * m) + c) (-0.2 -. Random.State.float st 0.8)
      done;
      (* Scalar coupling to the neighbouring blocks. *)
      if b > 0 then add ((b * m) + a) (((b - 1) * m) + a) (-.coupling);
      if b < blocks - 1 then add ((b * m) + a) (((b + 1) * m) + a) (-.coupling)
    done
  done;
  for i = 0 to n - 1 do
    Coo.add coo i i ((1.0 +. margin) *. rowsum.(i))
  done;
  Coo.to_csr coo

let circuit_like ~state:st ?(n = 2000) ?(hubs = 8) ?(hub_degree = 400) () =
  let coo = Coo.create ~n_rows:n ~n_cols:n in
  let offdiag = Array.make n 0.0 in
  let couple i j v =
    if i <> j then begin
      Coo.add coo i j (-.v);
      Coo.add coo j i (-.v);
      offdiag.(i) <- offdiag.(i) +. v;
      offdiag.(j) <- offdiag.(j) +. v
    end
  in
  (* Sparse local mesh. *)
  for i = 0 to n - 2 do
    couple i (i + 1) (0.5 +. Random.State.float st 1.0)
  done;
  for _ = 1 to n / 2 do
    let i = Random.State.int st n in
    let j = min (n - 1) (i + 1 + Random.State.int st 20) in
    couple i j (0.2 +. Random.State.float st 0.5)
  done;
  (* Dense hubs (ground nets / supply rails). *)
  for h = 0 to hubs - 1 do
    let hub = Random.State.int st n in
    for _ = 1 to hub_degree do
      let j = Random.State.int st n in
      if j <> hub then couple hub j (0.05 +. Random.State.float st 0.2)
    done;
    ignore h
  done;
  for i = 0 to n - 1 do
    Coo.add coo i i (offdiag.(i) +. 1.0 +. Random.State.float st 0.5)
  done;
  Coo.to_csr coo
