(** Batch execution over the simulator: exact and sampled modes.

    A batched kernel is one warp per problem.  Running all 40,000 warps of
    a paper-sized benchmark through the functional simulator would be
    pointlessly slow, and — because the small-block kernels are
    warp-synchronous with data-independent control flow — unnecessary: two
    problems of the same size execute the same instruction stream.

    [Exact] runs every warp (and thus computes every result); [Sampled]
    runs one representative warp per distinct problem size and scales its
    counters by the class population.  The test suite checks that the two
    modes agree on the modelled counters.  Only the kernels the figure
    sweeps run sampled take a [?mode]; every other launch is [Exact].

    Both modes optionally fan the independent warps (resp. size-class
    representatives) out over the domains of a {!Vblu_par.Pool.t}.  Each
    warp owns a private {!Counter.t} stored at its problem index; the
    counters are merged by a single sequential fold in problem-index order
    after all domains join, so totals, max-warp selection and the modelled
    time are bit-identical to the sequential run for every domain count. *)

open Vblu_smallblas
open Vblu_par

type mode =
  | Exact
  | Sampled

val record_launch :
  Vblu_obs.Ctx.t option -> name:string -> prec:Precision.t -> Launch.stats -> unit
(** [record_launch obs ~name ~prec stats] is what {!run} records for one
    launch under an enabled [?obs]: a ["kernel"] span of [stats.time_us]
    named [name], and the [launch.*] registry totals.  Exposed so a caller
    that memoised a launch's stats can replay its record without
    launching again; a no-op when [obs] is disabled. *)

val run :
  ?cfg:Config.t ->
  ?pool:Pool.t ->
  ?faults:Vblu_fault.Fault.Plan.t ->
  ?obs:Vblu_obs.Ctx.t ->
  ?name:string ->
  ?cache:(int -> int) ->
  ?direct:(int -> int) ->
  prec:Precision.t ->
  mode:mode ->
  sizes:int array ->
  kernel:(Warp.t -> int -> unit) ->
  unit ->
  Launch.stats
(** [run ~prec ~mode ~sizes ~kernel ()] executes [kernel warp i] for every
    problem [i] (or one representative per size class in [Sampled] mode;
    representatives are the first index of each class) on a fresh warp, and
    feeds the counters to {!Launch.time}.

    [?pool] (default {!Pool.sequential}) distributes the independent warps
    over domains; results are deterministic and bit-identical to the
    sequential path.  Kernels must confine their writes to per-problem
    state (all kernels in [lib/core] do).

    [?faults] attaches a fault plan: each warp whose problem index holds
    plan sites gets an injector ({!Warp.create}'s [?inject]); the number
    of faults fired by {e this} launch is reported in
    [stats.faults_injected].  Plan claims are one-shot and keyed by
    problem index, so injection is deterministic across domain counts.
    [Sampled] with an armed plan degrades to [Exact]: sampling executes
    only class representatives, so any other problem's faults would
    silently never fire — per-problem execution keeps the plan's
    addressing meaningful.

    [?obs] records the launch into an observability context: a trace span
    named [?name] (default ["launch"]) whose duration is the modelled
    [time_us] — advancing the simulated clock — plus registry counters and
    histograms.  Recording happens in the sequential caller after the
    counter fold, never in worker domains, so traces and metrics are
    bit-identical for every domain count; when [?obs] is absent nothing is
    evaluated and the launch is bit-identical to pre-instrumentation
    behaviour.

    [?cache] opts the launch into the cross-launch counter cache
    ({!Launch.Cache}): [cache i] is problem [i]'s key salt, and must
    injectively encode everything besides (kernel name, precision, size,
    config) that the problem's counters depend on — option flags that
    change the charge stream (ABFT on/off, rhs count, …) {e and} the
    alignment classes ([offset mod] elements-per-transaction) of every
    device buffer the kernel addresses, since coalescing charges see raw
    addresses.  Only kernels whose counters are a pure function of the
    resulting key may opt in — per-warp counters for cached problems are
    copied from the first charging execution of the key class while the
    kernel replays charge-free (numerics unchanged).  Every replay's op-event signature is checked against the
    cached one; a divergent stream (e.g. a breakdown early-exit) falls
    back to a charging rerun of that problem, so even value-dependent
    corner paths stay exact.  Launches with [?faults] armed bypass the
    cache entirely, as do configs that never went through
    {!Config.validate} (fingerprint 0).  Warps are recycled per domain
    across problems and launches; kernels must not retain lane arrays
    borrowed from the warp arena beyond their own invocation.

    [?direct] (requires [?cache]) is the kernel's direct-execution
    closure: [direct i] performs problem [i]'s {e complete} observable
    effect — output values, pivots, [info] — through plain host loops,
    bit-identically to interpreting [kernel], and returns the problem's
    [info].  Kernels only pass it when every rounding step of the
    interpreted stream is reproduced exactly (and never under options,
    such as ABFT, whose side effects live in the interpreter).  The
    engine uses it two ways: on every charging store the closure runs
    first as a certification probe (the interpreted kernel then
    overwrites its writes, so the simulator's result stays
    authoritative), and entries it completed cleanly ([info = 0]) are
    marked [direct_ok]; on a later hit of such an entry the problem
    executes through [direct] {e alone} — no warp, no op interpretation —
    and receives a copy of the cached counters.  A breakdown surfacing in
    a direct run ([info <> 0]) demotes the hit and reruns the problem
    through the charging interpreter, so values, [info] and counters
    remain exactly those of the simulated path in every case.  An
    enabled [?obs] context does not change the path: the launch's span
    and registry totals are folded from the same counters whether the
    interpreter or [direct] ran.  [Launch.Cache.set_enabled false]
    disables direct execution with the rest of the cache.  Direct-served
    hits are counted by {!Launch.Cache.direct_hits}.

    An empty batch is a defined no-op returning {!Launch.empty_stats}
    and records nothing. *)

val charge :
  ?cfg:Config.t ->
  ?obs:Vblu_obs.Ctx.t ->
  name:string ->
  prec:Precision.t ->
  sizes:int array ->
  salt:(int -> int) ->
  unit ->
  Launch.stats option
(** [charge ~name ~prec ~sizes ~salt ()] is the charge of an [Exact]
    cached launch of kernel [name] over problems of [sizes], taken from
    {!Launch.Cache} alone, with no kernel run and no data.  Problem [i]'s
    key is built exactly as {!run} builds it from [~cache:salt], so the
    caller must pass the very salt function its launch would.

    Returns [None], having counted nothing, when the cache is disabled,
    [cfg] is unvalidated, or any key is missing or not certified for
    direct execution; the caller then runs the launch itself.  Otherwise
    every problem counts one hit and one direct hit, the cached
    counters fold in problem order into {!Launch.time}, [?obs] records
    the launch as {!run} would, and the stats are returned: bitwise the
    stats of the launch whose every problem the direct path serves.  The
    caller owns the numerics, which must equal the kernel's.  An empty
    batch returns {!Launch.empty_stats} and records nothing. *)
