(** Next-line instruction prefetcher.

    The paper observes (§III-C) that hardware-counter miss reductions are
    systematically smaller than simulated ones, naming prefetching as a
    cause. Enabling this prefetcher turns the pure simulator into the
    "hardware-like" configuration used for Table II's hw-counter columns. *)

type t

val create : ?degree:int -> unit -> t
(** [degree] next lines fetched on each demand miss (default 1). *)

val degree : t -> int

val on_miss : t -> Set_assoc.t -> Cache_stats.t -> int -> unit
(** [on_miss t cache stats line] fills each of [line+1 .. line+degree] not
    already resident ({!Set_assoc.prefetch_line}), recording each fill as a
    prefetch, not an access. *)

val none : t option
(** Convenience for the pure-simulation configuration. *)
