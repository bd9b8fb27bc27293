(* Three FIFO lanes (one per priority class) plus a global submission
   sequence number so [oldest] and [reject_if] can reason about overall
   arrival order.  Entries are (seq, payload). *)

type 'a t = {
  capacity : int;
  lanes : (int * 'a) Stdlib.Queue.t array;  (* index = priority rank *)
  mutable seq : int;
  mutable length : int;
}

let ranks = 3

let create ~capacity =
  if capacity < 1 then invalid_arg "Serve.Queue.create: capacity must be >= 1";
  {
    capacity;
    lanes = Array.init ranks (fun _ -> Stdlib.Queue.create ());
    seq = 0;
    length = 0;
  }

let length t = t.length
let submit t ~priority x =
  if t.length >= t.capacity then false
  else begin
    Stdlib.Queue.push (t.seq, x) t.lanes.(Policy.priority_rank priority);
    t.seq <- t.seq + 1;
    t.length <- t.length + 1;
    true
  end

let oldest t =
  let best = ref None in
  Array.iter
    (fun lane ->
      match Stdlib.Queue.peek_opt lane with
      | None -> ()
      | Some (seq, x) -> (
        match !best with
        | Some (bseq, _) when bseq <= seq -> ()
        | _ -> best := Some (seq, x)))
    t.lanes;
  Option.map snd !best

let drain t ~max =
  let out = ref [] in
  let taken = ref 0 in
  Array.iter
    (fun lane ->
      while !taken < max && not (Stdlib.Queue.is_empty lane) do
        let _, x = Stdlib.Queue.pop lane in
        out := x :: !out;
        incr taken;
        t.length <- t.length - 1
      done)
    t.lanes;
  List.rev !out

let reject_if t pred =
  let rejected = ref [] in
  Array.iter
    (fun lane ->
      let keep = Stdlib.Queue.create () in
      Stdlib.Queue.iter
        (fun (seq, x) ->
          if pred x then begin
            rejected := (seq, x) :: !rejected;
            t.length <- t.length - 1
          end
          else Stdlib.Queue.push (seq, x) keep)
        lane;
      Stdlib.Queue.clear lane;
      Stdlib.Queue.transfer keep lane)
    t.lanes;
  List.sort (fun (a, _) (b, _) -> compare a b) !rejected |> List.map snd
