(** Per-domain scratch, lent to one holder at a time.

    The hot kernels keep their large scratch buffers between calls
    instead of allocating them per call: [Pair_grid]'s grid and marks,
    [Set_assoc]'s co-run streams and [Trg_reduce]'s symmetric rows. Each
    domain has its own value, made on its first use there and kept for
    the domain's life, so domains never share one. A busy flag refuses a
    second holder on the same domain: a kernel nested inside another
    that held the same buffers would overwrite them. The int buffers
    are off-heap ({!ints}): a retained [int array] of a
    million words would be scanned by every major GC cycle. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Exposed so that element accesses compile inline. *)

val ints : int -> ints
(** [ints n]: a fresh off-heap buffer of [n] ints, contents unspecified. *)

val grow : ints -> int -> ints
(** [grow b n] is [b] when it holds at least [n] entries, otherwise a
    fresh buffer of exactly [n] (contents unspecified). *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** A lender; [make ()] builds a domain's value on its first use there. *)

val hold : 'a t -> refused:string -> ('a -> 'b) -> 'b
(** [hold l ~refused f] runs [f v] on the calling domain's value [v],
    marked busy until [f] returns or raises.
    @raise Invalid_argument [refused] when the calling domain already
    holds it ([f] does not run and the holder's value is untouched). *)

val peek : 'a t -> 'a
(** The calling domain's value, held or not: for reading its sizes. *)
