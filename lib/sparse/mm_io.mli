(** Matrix Market (coordinate) I/O.

    The paper's Table I suite comes from the SuiteSparse collection, whose
    interchange format is Matrix Market.  We cannot ship those matrices in
    a sealed container, but supporting the format means a user with the
    collection on disk can run the full Table I / Figures 8–9 pipeline on
    the real inputs. *)

exception Parse_error of { line : int; msg : string }
(** Raised by {!read} / {!read_string} on malformed input.  [line] is the
    1-based source line the problem was found on (0 for empty input), and
    [msg] says what was wrong — unsupported header, non-numeric token,
    non-finite entry value ([nan], [inf]), 1-based index outside the
    announced dimensions, or an entry count that does not match the size
    line.  A printer is registered, so uncaught it
    renders as [Mm_io.Parse_error (line N: ...)]. *)

val read : string -> Csr.t
(** Reads a [coordinate real/integer/pattern] Matrix Market file, expanding
    [symmetric] and [skew-symmetric] storage to the full matrix (pattern
    entries get value 1.0).  @raise Parse_error on a malformed file or an
    unsupported header ([complex], [array]). *)

val write : string -> Csr.t -> unit
(** Writes [coordinate real general] with 1-based indices. *)

val read_string : string -> Csr.t
(** {!read} from an in-memory buffer; used by the tests.
    @raise Parse_error as {!read}. *)
