(** Doubly-linked list with externally held nodes.

    This is the "link list" of the paper's §II-F stack processing: the LRU
    stack is a linked list so that move-to-front is O(1), and a hash table
    maps a code block to its node for O(1) search (mirroring the Linux-kernel
    page-list technique the authors cite). *)

type 'a t

type 'a node

val create : unit -> 'a t

val length : 'a t -> int

val value : 'a node -> 'a

val push_front : 'a t -> 'a -> 'a node

val push_back : 'a t -> 'a -> 'a node

val remove : 'a t -> 'a node -> unit
(** O(1). @raise Invalid_argument if the node was already removed or belongs
    to a different list. *)

val move_to_front : 'a t -> 'a node -> unit

val front : 'a t -> 'a node option

val back : 'a t -> 'a node option

val next : 'a node -> 'a node option
(** Toward the back. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_list : 'a t -> 'a list
