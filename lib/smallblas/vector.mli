(** Dense vectors backed by [float array].

    These are the host-side vectors used by the Krylov solvers and the
    right-hand sides of the small block systems.  All operations allocate
    nothing unless they return a fresh vector, and every arithmetic
    operation takes the working {!Precision.t} so single-precision runs
    round identically to the simulated kernels. *)

type t = float array

val create : int -> t
(** [create n] is a zero vector of length [n]. *)

val copy : t -> t

val fill : t -> float -> unit

val blit : src:t -> dst:t -> unit
(** Copies [src] into [dst].  @raise Invalid_argument on dimension
    mismatch. *)

val random : state:Random.State.t -> ?lo:float -> ?hi:float -> int -> t
(** [random ~state n] draws every entry uniformly from [\[lo, hi)]
    (default [\[-1, 1)]) from [state] alone: there is no shared default
    stream, so the result depends on nothing that ran before. *)

val dot : ?prec:Precision.t -> t -> t -> float
(** Inner product with sequential accumulation in the working precision. *)

val dots_into :
  ?prec:Precision.t -> y_left:bool -> t -> ws:t array -> woff:int ->
  nd:int -> out:float array -> ooff:int -> unit
(** [dots_into ~y_left y ~ws ~woff ~nd ~out ~ooff] sets
    [out.(ooff + j)] to [dot ws.(woff + j) y] for [j < nd], or to
    [dot y ws.(woff + j)] with [y_left] (the order decides which NaN
    payload a product of two NaNs keeps), bit for bit, in one pass over
    [y] per four dots.
    @raise Invalid_argument on a range or dimension mismatch. *)

val check_dots :
  string -> t -> ws:t array -> woff:int -> nd:int -> out:float array ->
  ooff:int -> gap:int -> unit
(** The argument check of a pass carrying [nd] dots of [y] against
    [ws.(woff ..)] into [out.(ooff + gap ..)], raising
    [Invalid_argument] prefixed by the function name. *)

val nrm2 : ?prec:Precision.t -> t -> float
(** Euclidean norm. *)

val norm_inf : t -> float

val scal : ?prec:Precision.t -> float -> t -> unit
(** [scal alpha x] overwrites [x := alpha * x]. *)

val axpy : ?prec:Precision.t -> float -> t -> t -> unit
(** [axpy alpha x y] overwrites [y := alpha * x + y]. *)

val add : ?prec:Precision.t -> t -> t -> t
val sub : ?prec:Precision.t -> t -> t -> t

val max_abs_diff : t -> t -> float
(** Componentwise infinity-norm distance; handy in tests. *)
