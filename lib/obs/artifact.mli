(** Machine-readable benchmark artifacts and the regression gate.

    An artifact is a schema-versioned JSON document ([vblu-bench/1])
    holding one entry per (kernel, precision, size, batch) point with the
    modelled GFLOPS, bandwidth and time, plus run metadata (git revision,
    config preset, domain count, quick flag).  Because the performance
    model is fully deterministic, two runs of the same code produce equal
    numbers and CI can diff artifacts exactly; the tolerance only has to
    absorb intentional model changes.

    [compare] gates on the relative GFLOPS delta per entry: the gate fails
    if any entry regresses by more than [tolerance_pct] percent, or if an
    entry present in the base is missing from the current artifact.
    Improvements and new entries never fail. *)

type entry = {
  kernel : string;  (** e.g. ["getrf"], ["trsv"], ["gemm"]. *)
  prec : string;  (** ["fp64"] / ["fp32"] / ["fp16"]. *)
  size : int;  (** matrix order of the size class. *)
  batch : int;  (** number of problems in the batch. *)
  gflops : float;
  bandwidth_gbs : float;
  time_us : float;
}

type meta = {
  schema : string;  (** always ["vblu-bench/1"] for writers. *)
  target : string;  (** bench target that produced it, e.g. ["kernels"]. *)
  git_rev : string;  (** from [VBLU_GIT_REV] / [GITHUB_SHA], else ["unknown"]. *)
  config : string;  (** GPU config preset, e.g. ["p100"]. *)
  domains : int;
  quick : bool;
}

type t = { meta : meta; entries : entry list }

val entry_key : entry -> string
(** ["kernel/prec/nSIZE/bBATCH"] — the key entries are compared under. *)

val make :
  ?git_rev:string -> target:string -> config:string -> domains:int ->
  quick:bool -> entry list -> t
(** Build an artifact; entries are sorted into canonical (kernel, prec,
    size, batch) order.  [git_rev] defaults to the [VBLU_GIT_REV] or
    [GITHUB_SHA] environment variable, else ["unknown"]. *)

val to_json : t -> Jsonx.t
val of_json : Jsonx.t -> (t, string) result
(** Rejects missing/mistyped fields and unknown schema versions. *)

val write : string -> t -> unit
val read : string -> (t, string) result

type delta = {
  key : string;  (** ["kernel/prec/nXX/bYY"]. *)
  base_gflops : float;
  cur_gflops : float;
  pct : float;  (** relative change in percent; negative = regression. *)
}

type comparison = {
  passed : bool;
  tolerance_pct : float;
  deltas : delta list;  (** entries present in both, sorted by key. *)
  missing : string list;  (** keys in base but not in current — a failure. *)
  added : string list;  (** keys in current only — informational. *)
}

val compare : tolerance_pct:float -> base:t -> cur:t -> comparison

val pp_comparison : Format.formatter -> comparison -> unit
(** Human-readable report: worst regressions first, then missing/added. *)
