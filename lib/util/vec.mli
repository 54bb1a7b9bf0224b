(** Growable polymorphic vector.

    OCaml 5.1 has no [Dynarray] in the standard library; this is the subset
    the rest of the code base needs. Amortized O(1) [push], O(1) random
    access. Not thread-safe. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element. @raise Invalid_argument if out of
    bounds. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the last element. *)

val last : 'a t -> 'a option

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val map : ('a -> 'b) -> 'a t -> 'b t

val exists : ('a -> bool) -> 'a t -> bool

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val to_array : 'a t -> 'a array

val append : 'a t -> 'a t -> unit
(** [append dst src] pushes all of [src] onto [dst]. *)

val sub : 'a t -> pos:int -> len:int -> 'a t
