type t = { mutable now : float }

let manual ?(start = 0.0) () = { now = start }

let now t = t.now

let advance t dt =
  if (not (Float.is_finite dt)) || dt < 0.0 then
    invalid_arg "Clock.advance: negative or non-finite delta";
  t.now <- t.now +. dt
