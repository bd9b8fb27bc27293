type target = Register | Shared | Global

type kind = Bit_flip of int | Scale of float | Set_value of float

type site = {
  problem : int;
  step : int;
  lane : int;
  target : target;
  kind : kind;
}

type verdict = Unchecked | Passed | Failed

let target_name = function
  | Register -> "reg"
  | Shared -> "smem"
  | Global -> "gmem"

let kind_name = function
  | Bit_flip b -> Printf.sprintf "flip:%d" b
  | Scale f -> Printf.sprintf "scale:%g" f
  | Set_value v -> Printf.sprintf "set:%g" v

let corrupt kind v =
  match kind with
  | Bit_flip b ->
    Int64.float_of_bits
      (Int64.logxor (Int64.bits_of_float v) (Int64.shift_left 1L (b land 63)))
  | Scale f -> v *. f
  | Set_value x -> x

module Plan = struct
  type t = {
    seed : int;
    every : int;
    phase : int;
    target : target;
    kind : kind;
    at : site list;
    mutex : Mutex.t;
    fired : (int * int, unit) Hashtbl.t;
    injected : int ref;
    problem_of : int -> int;
  }

  let make ?(seed = 1) ?(every = 1) ?(phase = 0) ?(target = Register)
      ?(kind = Bit_flip 55) ?(at = []) () =
    if every < 0 then invalid_arg "Fault.Plan.make: every < 0";
    if phase < 0 || (every > 0 && phase >= every) then
      invalid_arg "Fault.Plan.make: phase out of range";
    {
      seed;
      every;
      phase;
      target;
      kind;
      at;
      mutex = Mutex.create ();
      fired = Hashtbl.create 16;
      injected = ref 0;
      problem_of = Fun.id;
    }

  (* A view shares the claims and the count; only the numbering moves. *)
  let view t ~problems =
    { t with problem_of = (fun i -> t.problem_of problems.(i)) }

  (* Site placement is a pure function of (seed, problem): the generated
     step/lane come from a problem-keyed PRNG stream, so two runs of the
     same plan — at any domain count — fault the same places. *)
  let sites_for t ~problem ~size =
    if size <= 0 then []
    else begin
      let problem = t.problem_of problem in
      let clamp s =
        {
          s with
          problem;
          step = ((s.step mod size) + size) mod size;
          lane = ((s.lane mod size) + size) mod size;
        }
      in
      let explicit =
        List.filter_map
          (fun s -> if s.problem = problem then Some (clamp s) else None)
          t.at
      in
      let generated =
        if t.every > 0 && problem mod t.every = t.phase then begin
          let st = Random.State.make [| 0x5eed; t.seed; problem |] in
          [
            {
              problem;
              step = Random.State.int st size;
              lane = Random.State.int st size;
              target = t.target;
              kind = t.kind;
            };
          ]
        end
        else []
      in
      explicit @ generated
    end

  let targeted t ~problems ~sizes =
    List.filter
      (fun i -> sites_for t ~problem:i ~size:sizes.(i) <> [])
      (List.init problems (fun i -> i))

  let claim t ~problem ~step =
    Mutex.lock t.mutex;
    let key = (problem, step) in
    let fresh = not (Hashtbl.mem t.fired key) in
    if fresh then Hashtbl.replace t.fired key ();
    Mutex.unlock t.mutex;
    fresh

  let injected t = !(t.injected)

  let note_injected t =
    Mutex.lock t.mutex;
    incr t.injected;
    Mutex.unlock t.mutex

  let to_spec t =
    let base =
      Printf.sprintf "seed=%d,every=%d,phase=%d,target=%s,kind=%s" t.seed
        t.every t.phase (target_name t.target) (kind_name t.kind)
    in
    List.fold_left
      (fun acc s ->
        acc ^ Printf.sprintf ",at=%d.%d.%d" s.problem s.step s.lane)
      base t.at

  let of_spec spec =
    let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
    let parse_int k v =
      match int_of_string_opt v with
      | Some n when n >= 0 -> Ok n
      | _ -> err "invalid %s=%s: expected a non-negative integer" k v
    in
    let parse_target = function
      | "reg" | "register" -> Ok Register
      | "smem" | "shared" -> Ok Shared
      | "gmem" | "global" -> Ok Global
      | v -> err "invalid target=%s: expected reg, smem or gmem" v
    in
    let parse_kind v =
      match String.index_opt v ':' with
      | Some i -> (
        let name = String.sub v 0 i
        and arg = String.sub v (i + 1) (String.length v - i - 1) in
        match name with
        | "flip" -> (
          match int_of_string_opt arg with
          | Some b when b >= 0 && b <= 63 -> Ok (Bit_flip b)
          | _ -> err "invalid kind=%s: flip bit must be 0..63" v)
        | "scale" -> (
          match float_of_string_opt arg with
          | Some f -> Ok (Scale f)
          | None -> err "invalid kind=%s" v)
        | "set" -> (
          match float_of_string_opt arg with
          | Some f -> Ok (Set_value f)
          | None -> err "invalid kind=%s" v)
        | _ -> err "invalid kind=%s: expected flip:BIT, scale:F or set:F" v)
      | None -> err "invalid kind=%s: expected flip:BIT, scale:F or set:F" v
    in
    let parse_at v =
      match String.split_on_char '.' v with
      | [ p; s; l ] -> (
        match
          (int_of_string_opt p, int_of_string_opt s, int_of_string_opt l)
        with
        | Some p, Some s, Some l when p >= 0 && s >= 0 && l >= 0 ->
          Ok (p, s, l)
        | _ -> err "invalid at=%s: expected PROBLEM.STEP.LANE" v)
      | _ -> err "invalid at=%s: expected PROBLEM.STEP.LANE" v
    in
    let ( let* ) = Result.bind in
    let rec fold fields acc =
      match fields with
      | [] -> Ok acc
      | f :: rest -> (
        match String.index_opt f '=' with
        | None -> err "invalid fault spec field %S: expected key=value" f
        | Some i ->
          let k = String.sub f 0 i
          and v = String.sub f (i + 1) (String.length f - i - 1) in
          let seed, every, phase, target, kind, at = acc in
          let* acc =
            match k with
            | "seed" ->
              let* n = parse_int k v in
              Ok (n, every, phase, target, kind, at)
            | "every" ->
              let* n = parse_int k v in
              Ok (seed, n, phase, target, kind, at)
            | "phase" ->
              let* n = parse_int k v in
              Ok (seed, every, n, target, kind, at)
            | "target" ->
              let* t = parse_target v in
              Ok (seed, every, phase, t, kind, at)
            | "kind" ->
              let* kd = parse_kind v in
              Ok (seed, every, phase, target, kd, at)
            | "at" ->
              let* p, s, l = parse_at v in
              Ok (seed, every, phase, target, kind, (p, s, l) :: at)
            | _ ->
              err "unknown fault spec key %S (seed, every, phase, target, \
                   kind, at)" k
          in
          fold rest acc)
    in
    let fields =
      String.split_on_char ',' (String.trim spec)
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    let* seed, every, phase, target, kind, at =
      fold fields (1, 1, 0, Register, Bit_flip 55, [])
    in
    if every > 0 && phase >= every then
      err "invalid fault spec: phase=%d must be < every=%d" phase every
    else
      let at =
        List.rev_map
          (fun (problem, step, lane) -> { problem; step; lane; target; kind })
          at
      in
      Ok (make ~seed ~every ~phase ~target ~kind ~at ())
end

module Injector = struct
  type t = {
    plan : Plan.t;
    sites : site list;
    mutable pending : site list;
  }

  let create plan ~problem ~size =
    match Plan.sites_for plan ~problem ~size with
    | [] -> None
    | sites -> Some { plan; sites; pending = [] }

  let step t k =
    List.iter
      (fun s ->
        if s.step = k && Plan.claim t.plan ~problem:s.problem ~step:s.step
        then t.pending <- s :: t.pending)
      t.sites

  let take t target =
    let rec split acc = function
      | [] -> None
      | s :: rest when s.target = target ->
        t.pending <- List.rev_append acc rest;
        Plan.note_injected t.plan;
        Some (s.lane, s.kind)
      | s :: rest -> split (s :: acc) rest
    in
    match t.pending with [] -> None | pending -> split [] pending
end
