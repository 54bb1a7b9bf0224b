(** Mutable access/miss counters, optionally broken down per thread. *)

type t

val create : ?threads:int -> unit -> t
(** [threads] defaults to 1. *)

val record : t -> thread:int -> hit:bool -> unit

val record_span : t -> thread:int -> accesses:int -> misses:int -> unit
(** [accesses] demand accesses at once, [misses] of them misses. *)

val record_prefetches : t -> int -> unit
(** [n] prefetch fills: counted apart from demand accesses. *)

val set_evictions : t -> int -> unit
(** Sync the {e absolute} cumulative eviction count of this object's own
    simulator (taken from the cache model, which observes replacements; see
    {!Set_assoc.evictions}). Idempotent: re-syncing with the same simulator
    refreshes the value. Each stats object should be synced from at most
    one simulator; eviction totals of {e other} stats objects are combined
    with {!merge_into}, which accumulates separately — a [set_evictions]
    after a merge never clobbers merged contributions. *)

val evictions : t -> int
(** Own-simulator synced count plus all merged-in totals. *)

val accesses : t -> int

val misses : t -> int

val hits : t -> int

val prefetches : t -> int

val miss_ratio : t -> float
(** 0 when no accesses. *)

val thread_accesses : t -> int -> int

val thread_misses : t -> int -> int

val thread_miss_ratio : t -> int -> float

val merge_into : dst:t -> t -> unit
(** Add per-thread and total counters of the source into [dst]. The
    source's {!evictions} total is folded into [dst]'s merged bucket, so
    merging commutes with {!set_evictions} on either side. *)

val to_string : t -> string
