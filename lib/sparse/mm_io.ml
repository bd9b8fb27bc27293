type symmetry = General | Symmetric | Skew
type field = Real | Pattern

exception Parse_error of { line : int; msg : string }

let () =
  Printexc.register_printer (function
    | Parse_error { line; msg } ->
      Some (Printf.sprintf "Mm_io.Parse_error (line %d: %s)" line msg)
    | _ -> None)

let fail ~line msg = raise (Parse_error { line; msg })

let parse_header ~line l =
  match String.split_on_char ' ' (String.lowercase_ascii (String.trim l)) with
  | "%%matrixmarket" :: "matrix" :: fmt :: field :: sym :: _ ->
    if fmt <> "coordinate" then
      fail ~line ("only coordinate format is supported, got " ^ fmt);
    let field =
      match field with
      | "real" | "integer" -> Real
      | "pattern" -> Pattern
      | other -> fail ~line ("unsupported field " ^ other)
    in
    let sym =
      match sym with
      | "general" -> General
      | "symmetric" -> Symmetric
      | "skew-symmetric" -> Skew
      | other -> fail ~line ("unsupported symmetry " ^ other)
    in
    (field, sym)
  | _ -> fail ~line "missing %%MatrixMarket header"

let tokens line =
  String.split_on_char ' ' (String.trim line)
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let int_tok ~line ~what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail ~line (Printf.sprintf "%s is not an integer: %S" what s)

(* A non-finite value would only surface later as a NaN residual after
   the solver's full iteration budget; reject it here, with its line. *)
let float_tok ~line s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v -> v
  | Some _ -> fail ~line (Printf.sprintf "entry value is not finite: %S" s)
  | None -> fail ~line (Printf.sprintf "entry value is not a number: %S" s)

let read_lines next_line =
  (* [lineno] tracks the last line handed out, so every error carries the
     1-based source line it came from. *)
  let lineno = ref 0 in
  let next () =
    match next_line () with
    | None -> None
    | Some l ->
      incr lineno;
      Some l
  in
  let header =
    match next () with Some l -> l | None -> fail ~line:0 "empty input"
  in
  let field, sym = parse_header ~line:!lineno header in
  let rec skip_comments () =
    match next () with
    | None -> fail ~line:!lineno "missing size line"
    | Some l ->
      let l = String.trim l in
      if l = "" || l.[0] = '%' then skip_comments () else l
  in
  let size_line = skip_comments () in
  let n_rows, n_cols, count =
    let line = !lineno in
    match tokens size_line with
    | [ r; c; z ] ->
      ( int_tok ~line ~what:"row count" r,
        int_tok ~line ~what:"column count" c,
        int_tok ~line ~what:"entry count" z )
    | toks ->
      fail ~line
        (Printf.sprintf "size line needs 3 fields (rows cols nnz), got %d"
           (List.length toks))
  in
  if n_rows < 0 || n_cols < 0 || count < 0 then
    fail ~line:!lineno "size line fields must be non-negative";
  let coo = Coo.create ~n_rows ~n_cols in
  let check_bounds ~line i j =
    if i < 1 || i > n_rows then
      fail ~line (Printf.sprintf "row index %d outside 1..%d" i n_rows);
    if j < 1 || j > n_cols then
      fail ~line (Printf.sprintf "column index %d outside 1..%d" j n_cols)
  in
  let parse_entry ~line l =
    match (tokens l, field) with
    | [ i; j ], Pattern ->
      ( int_tok ~line ~what:"row index" i,
        int_tok ~line ~what:"column index" j,
        1.0 )
    | [ i; j; v ], (Real | Pattern) ->
      ( int_tok ~line ~what:"row index" i,
        int_tok ~line ~what:"column index" j,
        float_tok ~line v )
    | _ -> fail ~line ("malformed entry line: " ^ l)
  in
  let seen = ref 0 in
  let rec loop () =
    match next () with
    | None -> ()
    | Some l ->
      let line = !lineno in
      let l = String.trim l in
      if l <> "" && l.[0] <> '%' then begin
        let i, j, v = parse_entry ~line l in
        check_bounds ~line i j;
        let i = i - 1 and j = j - 1 in
        incr seen;
        if !seen > count then
          fail ~line
            (Printf.sprintf "more than the %d announced entries" count);
        (match sym with
        | General -> Coo.add coo i j v
        | Symmetric ->
          Coo.add coo i j v;
          if i <> j then Coo.add coo j i v
        | Skew ->
          Coo.add coo i j v;
          if i <> j then Coo.add coo j i (-.v))
      end;
      loop ()
  in
  loop ();
  if !seen <> count then
    fail ~line:!lineno
      (Printf.sprintf "header announced %d entries, found %d" count !seen);
  Coo.to_csr coo

let read path =
  let ic = open_in path in
  let next_line () = In_channel.input_line ic in
  match read_lines next_line with
  | csr ->
    close_in ic;
    csr
  | exception e ->
    close_in ic;
    raise e

let read_string s =
  let lines = ref (String.split_on_char '\n' s) in
  let next_line () =
    match !lines with
    | [] -> None
    | l :: rest ->
      lines := rest;
      Some l
  in
  read_lines next_line

let write_channel oc (m : Csr.t) =
  output_string oc "%%MatrixMarket matrix coordinate real general\n";
  Printf.fprintf oc "%d %d %d\n" m.n_rows m.n_cols (Csr.nnz m);
  for i = 0 to m.n_rows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      Printf.fprintf oc "%d %d %.17g\n" (i + 1) (m.col_idx.(k) + 1) m.values.(k)
    done
  done

let write path m =
  let oc = open_out path in
  (try write_channel oc m
   with e ->
     close_out oc;
     raise e);
  close_out oc
