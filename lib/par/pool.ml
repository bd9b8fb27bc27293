type t = { domains : int }

let create ?num_domains () =
  let n =
    match num_domains with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  { domains = max 1 n }

let max_domains = 128

let sequential = { domains = 1 }

let num_domains t = t.domains

(* Split [lo, hi) into exactly [min t.domains (hi - lo)] contiguous chunks.
   [n mod chunks] leading chunks get one extra element, so chunk sizes differ
   by at most one and no chunk is ever empty — every spawned domain receives
   work.  (The former ceil-division split could produce empty trailing chunks,
   e.g. n=5 over 4 domains gave sizes 2,2,1,0.) *)
let chunk_bounds t ~lo ~hi =
  let n = hi - lo in
  if n <= 0 then [||]
  else begin
    let chunks = min t.domains n in
    let base = n / chunks and rem = n mod chunks in
    Array.init chunks (fun c ->
        let clo = lo + (c * base) + min c rem in
        let chi = clo + base + (if c < rem then 1 else 0) in
        (clo, chi))
  end

(* Run every chunk but the first in a fresh domain, and run the first chunk
   in the caller.  The first exception observed (caller's chunk first, then
   spawned chunks in order) is re-raised after all domains joined, so no work
   is leaked. *)
let parallel_for t ~lo ~hi body =
  let n = hi - lo in
  if n <= 0 then ()
  else if t.domains = 1 || n = 1 then
    for i = lo to hi - 1 do
      body i
    done
  else begin
    let bounds = chunk_bounds t ~lo ~hi in
    let chunks = Array.length bounds in
    let run_chunk c () =
      let clo, chi = bounds.(c) in
      for i = clo to chi - 1 do
        body i
      done
    in
    let spawned =
      Array.init (chunks - 1) (fun c -> Domain.spawn (run_chunk (c + 1)))
    in
    let caller_result =
      match run_chunk 0 () with
      | () -> None
      | exception e -> Some e
    in
    let spawned_result = ref None in
    Array.iter
      (fun d ->
        match Domain.join d with
        | () -> ()
        | exception e ->
          if !spawned_result = None then spawned_result := Some e)
      spawned;
    match caller_result, !spawned_result with
    | Some e, _ | None, Some e -> raise e
    | None, None -> ()
  end

let parallel_map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n (f xs.(0)) in
    parallel_for t ~lo:1 ~hi:n (fun i -> out.(i) <- f xs.(i));
    out
  end

let parallel_init t n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    parallel_for t ~lo:1 ~hi:n (fun i -> out.(i) <- f i);
    out
  end
