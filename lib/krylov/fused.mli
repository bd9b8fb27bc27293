(** The vector passes of the IDR(s) cycle, fused.

    Each function is one pass over its vectors (one more per further four
    terms or dots) and gives, bit for bit in both precisions, the
    sequential [Vector] composition it names: every element sees the same
    once-rounded operations in the same order, and every dot still
    accumulates in index order with [Vector.dot]'s operand order.
    Coefficients are read from float arrays, so no call boxes a float.
    Nothing allocates.  A vector a pass writes must not be another
    vector argument it reads ([src] may be [dst]); each entry point checks
    every length and range before its unchecked loop.
    @raise Invalid_argument on a length or range mismatch. *)

open Vblu_smallblas

val sub_terms :
  ?prec:Precision.t -> c:float array -> coff:int -> xs:Vector.t array ->
  xoff:int -> m:int -> Vector.t -> Vector.t -> unit
(** [sub_terms ~c ~coff ~xs ~xoff ~m src dst] is
    [Vector.blit ~src ~dst] then, for [j = 0 .. m-1],
    [Vector.axpy (-. c.(coff + j)) xs.(xoff + j) dst]. *)

val scale_terms :
  ?prec:Precision.t -> c:float array -> coff:int -> xs:Vector.t array ->
  xoff:int -> m:int -> Vector.t -> Vector.t -> unit
(** [scale_terms ~c ~coff ~xs ~xoff ~m src dst] is
    [Vector.blit ~src ~dst], [Vector.scal c.(coff) dst], then, for
    [j = 0 .. m-1], [Vector.axpy c.(coff + 1 + j) xs.(xoff + j) dst]. *)

val biortho :
  ?prec:Precision.t -> c:float array -> ci:int -> g:Vector.t -> u:Vector.t ->
  Vector.t -> Vector.t -> ws:Vector.t array -> woff:int -> nd:int ->
  out:float array -> ooff:int -> unit
(** [biortho ~c ~ci ~g ~u gk uk ~ws ~woff ~nd ~out ~ooff] is
    [Vector.axpy (-. c.(ci)) g gk], [Vector.axpy (-. c.(ci)) u uk], then
    [Vector.dots_into ~y_left:false gk ~ws ~woff ~nd ~out ~ooff]. *)

val update :
  ?prec:Precision.t -> c:float array -> ci:int -> y:Vector.t -> z:Vector.t ->
  Vector.t -> Vector.t -> ws:Vector.t array -> woff:int -> nd:int ->
  out:float array -> ooff:int -> unit
(** [update ~c ~ci ~y ~z r x ~ws ~woff ~nd ~out ~ooff] is
    [Vector.axpy (-. c.(ci)) y r], [Vector.axpy c.(ci) z x],
    [out.(ooff) <- Vector.dot r r], then
    [Vector.dots_into ~y_left:false r ~ws ~woff ~nd ~out ~ooff:(ooff + 1)]. *)
