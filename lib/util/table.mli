(** Plain-text table rendering for experiment reports.

    The harness prints every reproduced paper table/figure as one of these;
    [to_csv] gives a machine-readable copy. *)

type align = Left | Right

type t

val create : title:string -> columns:(string * align) list -> t

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val add_rows : t -> string list list -> unit

val row_count : t -> int

val render : t -> string
(** Boxed, column-aligned text. *)

val to_csv : t -> string

val print : t -> unit
(** [render] to stdout followed by a blank line. *)

(** Cell formatting helpers. *)

val fmt_pct : float -> string
(** [3.14159 -> "3.14%"]. *)

val fmt_ratio : float -> string
(** Fixed 3 decimals, e.g. speedups. *)

val fmt_float : ?decimals:int -> float -> string

val fmt_int : int -> string
(** Thousands-separated. *)
