(** Fully-associative LRU cache over line numbers.

    The reference model behind the capacity-miss equations of §II-A: a
    fully-associative cache of capacity [c] lines misses exactly when the
    reuse distance reaches [c]. Used as a test oracle for {!Set_assoc} (with
    [num_sets = 1] they must agree), by the miss-probability model, and as
    the shadow cache of {!Profile_sink}'s miss classifier (a reference that
    misses in the set-associative cache but hits here is a conflict miss). *)

type t

val create : capacity:int -> t
(** Capacity in lines. *)

val access_line : t -> int -> bool

val occupancy : t -> int

val resident_lines : t -> int list
