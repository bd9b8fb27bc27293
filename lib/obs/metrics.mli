(** Typed metrics registry.

    Three instrument kinds, all keyed by name in a single registry:

    - {b counters} — monotone sums of floats ([incr]);
    - {b gauges} — last-set-wins values ([set_gauge]);
    - {b histograms} — fixed log2-scale buckets ([observe]): bucket [k]
      (for [k] in -10..30) counts observations [<= 2^k], plus one overflow
      bucket.  The bucket layout is static so histograms from different
      runs or domains merge bucketwise with no re-binning.

    A name is bound to one kind for the registry's lifetime; using it as a
    different kind raises [Invalid_argument] — catching instrument-kind
    clashes at the call site rather than producing silently-wrong output.

    {b Labels.}  Dimensioned instruments (per-tenant counters, per-kernel
    launch tallies) use the [_l] variants, which take a [(key, value)]
    label list and derive the canonical registry name [base{k1=v1,k2=v2}]
    — labels sorted by key, validated once — instead of every caller
    string-concatenating its own ad-hoc encoding.  Two label lists that
    differ only in order address the same instrument.

    Determinism: output ([to_json], [to_csv]) sorts instruments by name,
    and [merge_into] combines registries commutatively enough for the
    sequential-join discipline (counters sum, gauges last-set-wins,
    histograms add bucketwise) — so merging per-item registries in item
    order yields bit-identical totals for every domain count. *)

type t

val create : unit -> t

val incr : t -> string -> float -> unit
(** Add to a counter (creating it at 0). *)

val set_gauge : t -> string -> float -> unit

val observe : t -> string -> float -> unit
(** Record one observation into a histogram. *)

(** {2 Labelled instruments} *)

val labelled : string -> (string * string) list -> string
(** [labelled base labels] is the canonical registry name
    [base{k1=v1,k2=v2}] with labels sorted by key.  An empty label list
    returns [base] unchanged.
    @raise Invalid_argument when [base] is empty or contains ['{'], ['}']
    or [',']; when a key or value is empty or contains ['{'], ['}'],
    [','] or ['=']; or on a duplicate key. *)

val incr_l : t -> string -> (string * string) list -> float -> unit
(** [incr_l t base labels v] is [incr t (labelled base labels) v]. *)

val set_gauge_l : t -> string -> (string * string) list -> float -> unit
val observe_l : t -> string -> (string * string) list -> float -> unit

type snapshot =
  | Counter of float
  | Gauge of float
  | Histogram of { counts : int array; sum : float; count : int }

val snapshot : t -> (string * snapshot) list
(** All instruments, sorted by name. *)

val counter_value : t -> string -> float
(** Current value of a counter, 0 if absent. *)

val merge_into : into:t -> t -> unit
(** Fold a child registry into [into]: counters sum, gauges last-set-wins
    (the child's value overwrites if the child set it), histograms add
    bucketwise.  Raises [Invalid_argument] on a kind clash. *)

val to_json : t -> Jsonx.t
(** [{"schema": "vblu-metrics/1", "metrics": {...}}] with instruments
    sorted by name. *)

val to_csv : t -> string
(** Flat RFC-4180 CSV: [name,kind,field,value] rows, sorted by name;
    histogram rows carry [le_<bound>] fields plus [sum] and [count]. *)

val write : string -> t -> unit
(** Write {!to_json} (pretty-printed) to a file. *)
