(** Growable vector of unboxed [int]s.

    Traces are tens of millions of events; this avoids the boxing and write
    barriers a polymorphic ['a Vec.t] would incur. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val is_empty : t -> bool

val get : t -> int -> int

val unsafe_get : t -> int -> int

val set : t -> int -> int -> unit

val push : t -> int -> unit

val iter : (int -> unit) -> t -> unit

val iteri : (int -> int -> unit) -> t -> unit

val to_list : t -> int list

val of_list : int list -> t

val to_array : t -> int array

val backing : t -> int array
(** The backing array itself, not a copy: entries [0 .. length v - 1] are
    the vector's, the rest is slack. It stays the vector's storage until
    a [push] grows it, and writing to it writes the vector. For read-only
    views of long vectors that must not pay a copy. *)

val of_array : int array -> t
(** A copy of the array. *)

val of_buffer : int array -> len:int -> t
(** The vector of [buf]'s first [len] entries. [buf] becomes its storage,
    not copied, when [len] is at least half of [buf]'s length: the caller
    gives [buf] up and must not write to it again. A buffer more than
    twice as long as [len] is copied down to [len], so a short vector
    does not keep a long buffer alive. For hand-offs of buffers filled
    in place, which would otherwise pay a copy per event.
    @raise Invalid_argument if [len] is outside [[0, Array.length buf]]. *)

val append : t -> t -> unit
(** [append dst src] adds [src]'s entries at the end of [dst]. *)

val sub : t -> pos:int -> len:int -> t

val max_element : t -> int option

val equal : t -> t -> bool
