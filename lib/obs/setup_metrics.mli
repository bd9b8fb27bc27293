(** Labelled [precond.setup.*] instruments for amortized preconditioner
    setup (dirty-block refresh).

    Every refresh event — a fresh construction, a partial [update], or a
    serve-side cache hit — records the same four counters, labelled by
    preconditioner family, so amortization is observable per time step
    and per serve wave from one place.  The code that decides to refresh
    records, once per event: [Serve.Batcher.run] once per family and
    wave, [Timestep.run] for its build, each update and each guard
    refresh.  The preconditioner families themselves never record, so no
    event is counted twice.

    - [precond.setup.fresh{family=..}]        blocks factored from scratch
      (full setups and [~force_all] refreshes included);
    - [precond.setup.reused{family=..}]       blocks whose factors, pivots
      and info were reused bitwise;
    - [precond.setup.partial{family=..}]      refresh events that
      refactored a strict subset of the blocks;
    - [precond.setup.dirty_blocks{family=..}] blocks flagged dirty
      (max |Δa| above tolerance) and re-batched.

    All helpers are no-ops on [None], preserving the [Ctx] fast path. *)

val record :
  Ctx.t option ->
  family:string ->
  fresh:int ->
  reused:int ->
  dirty:int ->
  unit
(** Record one refresh event.  [fresh] is the number of blocks factored
    from scratch, [reused] the number reused bitwise, [dirty] the number
    flagged dirty by the tolerance test.  The event counts as partial
    when it reused at least one block while refactoring at least one. *)
