(** Simulated global (device) memory.

    A flat array of scalars addressed by element index.  All traffic goes
    through {!Warp.load_into} / {!Warp.store}, which count memory transactions
    with the coalescing rule of the hardware model: the distinct
    [transaction_bytes]-sized segments touched by the active lanes of one
    access, each charged in full — so a warp reading 32 consecutive
    doubles costs 4 transactions of 64 B, while the same 32 doubles strided
    by a matrix row cost 32 transactions (the paper's coalesced vs
    non-coalesced distinction). *)

open Vblu_smallblas

type t

val create : Precision.t -> int -> t
(** [create prec n] allocates [n] scalars of zero. *)

val of_array : Precision.t -> float array -> t
(** Stages host data as a launch input.  In [Double] the buffer {e is}
    the host array — no copy; in [Single] it is a copy rounded to [prec],
    as a host-to-device copy of a narrower type would be.  Contract: a
    launch stores only into {!create} buffers, never through one staged
    here, so its inputs leave the launch bitwise unchanged (fault
    injection corrupts store targets and loaded registers only). *)

val prec : t -> Precision.t

val corrupt : t -> int -> (float -> float) -> unit
(** [corrupt t i f] replaces cell [i] with [f] of its current value,
    {e bypassing} the precision rounding of staging — the hook fault
    injection uses to model a raw DRAM bit flip. *)

val raw : t -> float array
(** The live backing store — no copy, no traffic counted: the host array
    itself for a Double {!of_array} buffer.  The direct-execution fast
    path reads inputs and writes {!create} outputs in place through it,
    and a finished launch adopts its output buffer as the result batch's
    values.  Writers must store only values already representable at
    {!prec}: the batch-view kernels do, since every value they produce
    went through a rounding [Precision] op (and {!of_array} pre-rounds
    Single inputs). *)
