(** Floating-point precision selection.

    The paper evaluates every kernel in IEEE single and double precision.
    OCaml's native [float] is IEEE binary64; single precision is emulated by
    rounding the result of every arithmetic operation through binary32
    (via [Int32.bits_of_float], which performs correct round-to-nearest-even
    conversion).  This gives bit-accurate single-precision *results* for the
    straight-line kernels used here, at the cost of one extra conversion per
    operation.

    These functions are the specification of the rounded ops.  Per-element
    kernels in other units do not call them in their loops: under the dev
    build's [-opaque] such a call boxes every float it passes or returns,
    so each kernel inlines a bitwise-equal copy of the ops it uses
    (DESIGN §5i). *)

type t =
  | Single  (** IEEE binary32, emulated by rounding after every operation. *)
  | Double  (** IEEE binary64, OCaml's native [float]. *)

val round : t -> float -> float
(** [round p x] is [x] rounded to precision [p].  [round Double] is the
    identity; [round Single] round-trips through binary32. *)

val eps : t -> float
(** Unit roundoff: [2^-24] for {!Single}, [2^-53] for {!Double}. *)

val bytes : t -> int
(** Storage size of one scalar: 4 or 8. *)

val to_string : t -> string
(** ["single"] or ["double"]. *)

val add : t -> float -> float -> float
val sub : t -> float -> float -> float
val mul : t -> float -> float -> float
val div : t -> float -> float -> float

val fma : t -> float -> float -> float -> float
(** [fma p a b c] is [round p (a *. b +. c)]: an unfused multiply-add.  The
    product and the sum are each rounded to binary64, then the result to
    [p].  In {!Double} that is two roundings, not the single rounding of a
    hardware FFMA/DFMA, and the golden values pin this. *)
