(* In-memory span recorder for the traced run.

   A span is one call across a layer boundary, recorded by the benchmark
   around a public library call: its name (the layer metric it feeds),
   wall start and end, the span that was open when it started, and the
   operation it belongs to.  Recording is off unless [enable] was called;
   [with_span] then costs one branch.  All spans are opened from the
   benchmark's own (main) domain. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  op : int;
  start_ns : int64;
  mutable end_ns : int64;
}

let enabled = ref false
let recorded : span list ref = ref []
let count = ref 0
let stack : int list ref = ref []
let current_op = ref 0

let reset () =
  recorded := [];
  count := 0;
  stack := [];
  current_op := 0

(* Turning recording on starts a fresh record. *)
let enable on =
  if on then reset ();
  enabled := on

let set_op i = current_op := i

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !count in
    incr count;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s =
      { id; name; parent; op = !current_op; start_ns = Wall.now_ns (); end_ns = 0L }
    in
    stack := id :: !stack;
    let finish () =
      s.end_ns <- Wall.now_ns ();
      stack := (match !stack with _ :: rest -> rest | [] -> []);
      recorded := s :: !recorded
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* Spans in start order. *)
let spans () =
  let a = Array.of_list !recorded in
  Array.sort (fun a b -> compare a.id b.id) a;
  a

let duration_ns s = Int64.sub s.end_ns s.start_ns

(* Self time of every span: its duration minus the part of its interval
   covered by the union of its direct children's intervals (clipped to
   the parent).  Returns nanoseconds indexed like [spans]. *)
let self_times (spans : span array) =
  let n = Array.length spans in
  let index = Hashtbl.create n in
  Array.iteri (fun i s -> Hashtbl.replace index s.id i) spans;
  let children = Array.make n [] in
  Array.iter
    (fun s ->
      match Hashtbl.find_opt index s.parent with
      | Some p -> children.(p) <- s :: children.(p)
      | None -> ())
    spans;
  Array.mapi
    (fun i s ->
      let kids =
        List.map
          (fun c -> (max c.start_ns s.start_ns, min c.end_ns s.end_ns))
          children.(i)
        |> List.filter (fun (a, b) -> Int64.compare a b < 0)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = if Int64.compare a reach < 0 then reach else a in
            if Int64.compare a b < 0 then (Int64.add acc (Int64.sub b a), b)
            else (acc, reach))
          (0L, Int64.min_int) kids
      in
      Int64.sub (duration_ns s) covered)
    spans

(* Per-name self times in nanoseconds, in start order. *)
let self_by_name spans =
  let self = self_times spans in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let l = try Hashtbl.find tbl s.name with Not_found -> [] in
      Hashtbl.replace tbl s.name (Int64.to_float self.(i) :: l))
    spans;
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some l -> Array.of_list (List.rev l)
    | None -> [||]

(* One JSON object per span, one span per line. *)
let write path spans =
  let oc = open_out path in
  Array.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.name s.parent s.op s.start_ns s.end_ns)
    spans;
  close_out oc
