(** The seed set-associative LRU (array of ways per set) and the seed
    [Icache.solo] line expansion, verbatim — the independent oracle for
    {!Colayout_cache.Set_assoc} and the seed layout evaluator's simulator.
    Test-only. *)

type t

val create : Colayout_cache.Params.t -> t

val access_line : t -> int -> bool
(** Touch a line; [true] on hit. Misses evict the set's LRU way. *)

val lru_way : t -> int -> int
(** The line in the LRU way of [line]'s set, or [-1] when that way is
    invalid: the victim a miss on [line] would evict. *)

val probe_line : t -> int -> bool

val fill_line : t -> int -> unit
(** Insert without being an access; promotes a resident line. *)

val evictions : t -> int

val invalidate_all : t -> unit

val resident_lines : t -> int list
(** Sorted resident line numbers. *)

val occupancy : t -> int

val solo :
  ?prefetch_degree:int ->
  params:Colayout_cache.Params.t ->
  layout:Colayout_cache.Icache.layout ->
  Colayout_util.Int_vec.t ->
  Colayout_cache.Cache_stats.t
(** Replay one block trace, as the seed [Icache.solo] did; with
    [prefetch_degree], each demand miss fills the next lines not already
    resident (the seed [Prefetch.on_miss]). *)
