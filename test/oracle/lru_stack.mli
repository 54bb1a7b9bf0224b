(** LRU stack processing with a hash table + linked list (§II-F "Stack
    Processing").

    The stack orders code blocks by recency: position 0 is the most recently
    accessed block. [access] returns the number of *distinct* blocks accessed
    since the previous access to the same block, inclusive of that block —
    i.e. the footprint of the reuse window in block units, which is what both
    the affinity analysis (fp<a,b>) and TRG construction consume.

    A test oracle: it is the substrate of the seed kernels in
    {!Kernel_baseline}, and the bounded {!Colayout_trace.Window_stack} of
    the library kernels is checked against it. *)

type t

val create : unit -> t

val depth : t -> int
(** Number of distinct blocks currently on the stack. *)

val access : t -> int -> int option
(** [access t sym] pushes/moves [sym] to the top and returns [Some d] where
    [d] was its 1-based stack depth before the access (d = footprint of the
    window between the two occurrences, counting both endpoints as one
    block), or [None] on first access. *)

val top_k : t -> k:int -> int list
(** The [k] most recent distinct blocks, most recent first (includes the
    block just accessed at position 0). *)

val iter_until : t -> (int -> bool) -> unit
(** Visit blocks from most recent; stop when the callback returns false. *)

val position : t -> int -> int option
(** Current 0-based depth of a symbol, O(stack depth). *)

val contents : t -> int list
(** Most recent first. *)
