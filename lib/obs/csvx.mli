(** RFC-4180 CSV field quoting.

    Series titles and curve names contain commas ("LU, partial pivoting"),
    which the plain [String.concat ","] emitters turned into misaligned
    columns.  These helpers quote exactly when needed. *)

val row : string list -> string
(** Join quoted fields with commas (no trailing newline). *)
