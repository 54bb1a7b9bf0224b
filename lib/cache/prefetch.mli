(** Next-line instruction prefetcher.

    The paper observes (§III-C) that hardware-counter miss reductions are
    systematically smaller than simulated ones, naming prefetching as a
    cause. Enabling this prefetcher turns the pure simulator into the
    "hardware-like" configuration used for Table II's hw-counter columns:
    after each demand miss on [line], each of [line+1 .. line+degree] not
    already resident is filled ({!Set_assoc.prefetch_line}), counted as a
    prefetch, not an access. The replays do the fills inline
    ({!Set_assoc.replay}, {!Set_assoc.corun}); the SMT model does them
    between lines. *)

type t

val create : ?degree:int -> unit -> t
(** [degree] next lines fetched on each demand miss (default 1).
    @raise Invalid_argument if [degree <= 0]. *)

val degree : t -> int
