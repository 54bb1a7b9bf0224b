(** A bounded LRU stack: the [k] most recent distinct symbols, most recent
    first, in one flat [int array].

    The windowed analysis kernels ([Trg.build]'s table path,
    [Affinity.thresholds], [Ingest]) never look deeper than their
    window, so the top [k] entries of the full, unbounded LRU stack are
    all they need. Keeping only those makes every per-event step a
    contiguous array scan and shift:
    no allocation, no pointer chasing, no closure call per entry.

    The array is exposed read-only so a kernel runs its own loop over
    [stk.(0 .. depth - 1)] between {!find} and {!move_to_front}: two calls
    per event, never one per entry (cross-module calls are not inlined
    under the dev profile's [-opaque]).

    Invariant: after any sequence of accesses (each a {!find} followed by
    {!move_to_front} with the position it returned), [stk.(0 .. depth-1)]
    equals the first [min k n] entries of a full LRU stack fed the same
    accesses, where [n] is the number of distinct symbols seen. *)

type t = private {
  stk : int array;  (** Length [k]; entries at [depth] and beyond are garbage. *)
  mutable depth : int;  (** Live entries, [<= k]. *)
}

val create : k:int -> t
(** An empty stack keeping the [k] most recent symbols.
    @raise Invalid_argument when [k < 1]. *)

val capacity : t -> int
(** [k]. *)

val clear : t -> unit
(** Drop every entry (O(1)). *)

val find : t -> int -> int
(** [find t x] is [x]'s 0-based position (its LRU depth minus one) when
    [x] is among the live entries, else [-1]: [x] was never accessed, or
    its depth exceeds [k]. One contiguous scan. *)

val move_to_front : t -> pos:int -> int -> unit
(** [move_to_front t ~pos x] records an access to [x], where [pos] is
    [find t x]. Entries above [pos] shift down one slot; when [pos = -1]
    every entry shifts and, at depth [k], the deepest one drops out. *)

val contents : t -> int list
(** The live entries, most recent first. *)
