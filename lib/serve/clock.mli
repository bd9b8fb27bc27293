(** Virtual service clock.

    Everything time-dependent in the service layer — coalesce waits,
    deadlines, retry backoff, breaker windows — reads time through this
    handle, so every run and every domain count replays the exact same
    schedule.  The clock is advanced explicitly (the service advances it by each dispatch
    window plus the modelled execution time of the launch it just made,
    turning the performance model into the service's notion of load). *)

type t

val manual : ?start:float -> unit -> t
(** A virtual clock starting at [start] (default 0) that only moves via
    {!advance}. *)

val now : t -> float
(** Current time in seconds. *)

val advance : t -> float -> unit
(** [advance t dt] moves the clock forward by [dt] seconds.
    @raise Invalid_argument when [dt < 0] or not finite. *)
