(** Small statistics helpers used by the experiment harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0 for the empty list.
    @raise Invalid_argument on non-positive input. *)

val stddev : float list -> float
(** Population standard deviation. *)

val minimum : float list -> float

val maximum : float list -> float

val median : float list -> float

val percent_change : base:float -> v:float -> float
(** [(v - base) / base * 100]; 0 when [base = 0]. *)

val speedup : base:float -> opt:float -> float
(** [base /. opt] for time-like quantities: >1 means the optimized run is
    faster. 1 when [opt = 0]. *)

val pearson : float list -> float list -> float
(** Pearson correlation coefficient; 0 when degenerate (constant input or
    mismatched/short lists). *)

val spearman : float list -> float list -> float
(** Spearman rank correlation (Pearson on average-tied ranks); 0 when
    degenerate. Used to compare model predictions against simulation. *)
