type priority = Interactive | Standard | Best_effort

let priority_rank = function
  | Interactive -> 0
  | Standard -> 1
  | Best_effort -> 2

type breakdown = Identity_block | Fail_request

type retry = {
  budget : int;
  base_delay : float;
  factor : float;
  jitter : float;
}

let default_retry =
  { budget = 2; base_delay = 1e-3; factor = 2.0; jitter = 0.5 }

(* splitmix64 finalizer: a high-quality pure int mixer, so the jitter is a
   reproducible function of (seed, request, attempt) with no hidden
   Random state. *)
let mix64 x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let unit_hash ~seed ~request ~attempt =
  let h =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L)
         (mix64
            (Int64.add
               (Int64.mul (Int64.of_int request) 0xd6e8feb86659fd93L)
               (Int64.of_int attempt))))
  in
  (* 53 high bits -> [0, 1). *)
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

let backoff r ~seed ~request ~attempt =
  if attempt < 1 then invalid_arg "Policy.backoff: attempt must be >= 1";
  let u = unit_hash ~seed ~request ~attempt in
  r.base_delay
  *. (r.factor ** float_of_int (attempt - 1))
  *. (1.0 +. (r.jitter *. u))

type breaker_config = {
  high_watermark : float;
  trip_after : int;
  cool_down : int;
}

let default_breaker = { high_watermark = 0.75; trip_after = 3; cool_down = 5 }

type breaker_state = Closed | Half_open | Open

let state_name = function
  | Closed -> "closed"
  | Half_open -> "half-open"
  | Open -> "open"

type breaker = {
  cfg : breaker_config;
  mutable state : breaker_state;
  mutable streak : int;  (* consecutive windows of the relevant kind *)
}

let breaker cfg =
  if cfg.trip_after < 1 || cfg.cool_down < 1 then
    invalid_arg "Policy.breaker: trip_after and cool_down must be >= 1";
  if not (cfg.high_watermark > 0.0) then
    invalid_arg "Policy.breaker: high_watermark must be positive";
  { cfg; state = Closed; streak = 0 }

let breaker_state b = b.state

let breaker_note b ~pressure =
  let hot = pressure >= b.cfg.high_watermark in
  (match b.state with
  | Closed ->
    if hot then begin
      b.streak <- b.streak + 1;
      if b.streak >= b.cfg.trip_after then begin
        b.state <- Open;
        b.streak <- 0
      end
    end
    else b.streak <- 0
  | Open ->
    if hot then b.streak <- 0
    else begin
      b.streak <- b.streak + 1;
      if b.streak >= b.cfg.cool_down then begin
        b.state <- Half_open;
        b.streak <- 0
      end
    end
  | Half_open ->
    b.streak <- 0;
    b.state <- (if hot then Open else Closed));
  b.state
