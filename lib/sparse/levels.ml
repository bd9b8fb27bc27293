type triangle = Lower | Upper

type schedule = {
  triangle : triangle;
  starts : int array;
  sizes : int array;
  deps : int array array;
  level_of : int array;
  level_sets : int array array;
}

type stats = {
  blocks : int;
  edges : int;
  levels : int;
  max_width : int;
  avg_width : float;
  critical_path_rows : int;
}

let validate_partition ~n ~starts ~sizes =
  let k = Array.length starts in
  if Array.length sizes <> k then false
  else begin
    let ok = ref true and next = ref 0 in
    for i = 0 to k - 1 do
      if starts.(i) <> !next || sizes.(i) < 1 then ok := false;
      next := !next + sizes.(i)
    done;
    !ok && !next = n
  end

let schedule triangle ~starts ~sizes (a : Csr.t) =
  let n, cols = Csr.dims a in
  if n <> cols then invalid_arg "Levels.schedule: matrix not square";
  if not (validate_partition ~n ~starts ~sizes) then
    invalid_arg "Levels.schedule: partition does not tile the matrix";
  let k = Array.length starts in
  let row_block = Array.make n 0 in
  for i = 0 to k - 1 do
    for r = starts.(i) to starts.(i) + sizes.(i) - 1 do
      row_block.(r) <- i
    done
  done;
  (* Strict block pattern of each block row, deduplicated with a
     timestamped mark array (one pass over the nonzeros, no per-row
     allocation beyond the result). *)
  let mark = Array.make k (-1) in
  let deps =
    Array.init k (fun i ->
        let acc = ref [] in
        for r = starts.(i) to starts.(i) + sizes.(i) - 1 do
          for p = a.Csr.row_ptr.(r) to a.Csr.row_ptr.(r + 1) - 1 do
            let b = row_block.(a.Csr.col_idx.(p)) in
            let keep =
              match triangle with Lower -> b < i | Upper -> b > i
            in
            if keep && mark.(b) <> i then begin
              mark.(b) <- i;
              acc := b :: !acc
            end
          done
        done;
        let d = Array.of_list !acc in
        Array.sort compare d;
        d)
  in
  (* Longest-path levels.  Dependencies always point toward the sweep's
     earlier blocks (smaller indices for Lower, larger for Upper), so one
     pass in sweep order fixes every level. *)
  let level_of = Array.make k 0 in
  let assign i =
    let lv = ref 0 in
    Array.iter (fun d -> if level_of.(d) + 1 > !lv then lv := level_of.(d) + 1)
      deps.(i);
    level_of.(i) <- !lv
  in
  (match triangle with
  | Lower -> for i = 0 to k - 1 do assign i done
  | Upper -> for i = k - 1 downto 0 do assign i done);
  let nlevels =
    Array.fold_left (fun m l -> if l + 1 > m then l + 1 else m) 0 level_of
  in
  let widths = Array.make nlevels 0 in
  Array.iter (fun l -> widths.(l) <- widths.(l) + 1) level_of;
  let fill = Array.make nlevels 0 in
  let level_sets = Array.map (fun w -> Array.make w 0) widths in
  (* Ascending block order within each level. *)
  for i = 0 to k - 1 do
    let l = level_of.(i) in
    level_sets.(l).(fill.(l)) <- i;
    fill.(l) <- fill.(l) + 1
  done;
  { triangle; starts; sizes; deps; level_of; level_sets }

let scalar triangle (a : Csr.t) =
  let n, _ = Csr.dims a in
  schedule triangle ~starts:(Array.init n Fun.id) ~sizes:(Array.make n 1) a

let stats s =
  let k = Array.length s.starts in
  let edges = Array.fold_left (fun acc d -> acc + Array.length d) 0 s.deps in
  let levels = Array.length s.level_sets in
  let max_width =
    Array.fold_left (fun m ls -> max m (Array.length ls)) 0 s.level_sets
  in
  let avg_width =
    if levels = 0 then 0.0 else float_of_int k /. float_of_int levels
  in
  (* Heaviest chain by rows: cp(i) = sizes(i) + max cp(deps) — dependencies
     are already resolved in sweep order, so one sweep-order pass again. *)
  let cp = Array.make k 0 in
  let weigh i =
    let best = ref 0 in
    Array.iter (fun d -> if cp.(d) > !best then best := cp.(d)) s.deps.(i);
    cp.(i) <- s.sizes.(i) + !best
  in
  (match s.triangle with
  | Lower -> for i = 0 to k - 1 do weigh i done
  | Upper -> for i = k - 1 downto 0 do weigh i done);
  let critical_path_rows = Array.fold_left max 0 cp in
  { blocks = k; edges; levels; max_width; avg_width; critical_path_rows }

let pp_stats ppf st =
  Format.fprintf ppf
    "%d blocks, %d edges, %d levels (max width %d, avg %.1f), critical path \
     %d rows"
    st.blocks st.edges st.levels st.max_width st.avg_width
    st.critical_path_rows
