(** Sparse integer histogram (reuse distances, reuse times, footprints).

    The special bin {!infinite} collects cold events (first accesses, whose
    reuse distance is unbounded). *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Count one event in bin [v]; [v >= 0]. *)

val add_many : t -> int -> int -> unit

val add_infinite : t -> unit

val count : t -> int -> int

val infinite : t -> int

val total : t -> int
(** All events including the infinite bin. *)

val finite_total : t -> int

val max_bin : t -> int
(** Largest non-empty finite bin; -1 if none. *)

val cumulative_at : t -> int -> int
(** Number of finite events with bin value [<= v]. *)

val mean : t -> float
(** Mean over finite events. *)

val quantile : t -> q:float -> int
(** Smallest bin at which the cumulative fraction of finite events reaches
    [q] in [[0,1]]; -1 for an empty histogram. *)

val to_sorted_list : t -> (int * int) list
