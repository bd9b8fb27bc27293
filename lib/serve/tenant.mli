(** Per-tenant accounting.

    Every request carries a tenant name; every lifecycle event is tallied
    both here (exact integer counts, the source of truth for the
    conservation invariant {e submitted = completed + rejected + shed +
    failed + pending}) and — when an observability context is attached —
    as labelled registry counters [serve.<event>{tenant=...}] via
    {!Vblu_obs.Metrics.labelled}, so one registry snapshot carries the
    whole multi-tenant breakdown. *)

type event =
  | Submitted  (** seen at admission, accepted or not. *)
  | Completed  (** terminal: result delivered (demoted ones included). *)
  | Rejected  (** terminal: refused at admission. *)
  | Shed  (** terminal: deadline expired before launch. *)
  | Failed  (** terminal: breakdown under [Fail_request], or retries
                exhausted. *)
  | Retried  (** non-terminal: one more launch attempt scheduled. *)
  | Demoted  (** non-terminal marker: completed via the identity fallback
                 while the breaker was open (also counted [Completed]). *)

type counts = {
  submitted : int;
  completed : int;
  rejected : int;
  shed : int;
  failed : int;
  retried : int;
  demoted : int;
}

type t

val create : unit -> t

val note : t -> obs:Vblu_obs.Ctx.t option -> tenant:string -> event -> unit
(** Bump the tenant's tally and, when [obs] carries a registry, the
    labelled counter [serve.<event>{tenant=<tenant>}]. *)

val counts : t -> string -> counts
(** A tenant's tally ({!zero} if never seen). *)

val totals : t -> counts
(** Sum over all tenants. *)

val snapshot : t -> (string * counts) list
(** All tenants, sorted by name. *)

