(** A bounded LRU stack with an on-stack flag per symbol: the [k] most
    recent distinct symbols, most recent first, in one flat [int array],
    and one byte per symbol of the universe that is set exactly while the
    symbol is among them.

    The windowed analysis kernels ([Trg.build], [Affinity.thresholds],
    [Ingest]'s walkers) never look deeper than their window, so the top
    [k] entries of the full, unbounded LRU stack are all they need. The
    flag tells them, without a scan, whether an event's symbol is on the
    stack:

    - {b present} ([on.[x]] set): one pass from the top shifts each entry
      above [x] down a slot, does the kernel's per-entry work (TRG bumps,
      witness updates) on the way, and stops at [x], whose old slot
      receives the last entry carried. The kernel open-codes this pass.
    - {b absent}: {!push} shifts the whole stack once, clearing the flag
      of the deepest entry if it drops out, and puts [x] on top.

    No event scans the stack to look for its symbol. The record is
    exposed read-only so a kernel runs its own loop over
    [stk.(0 .. depth - 1)], writing only the present pass's shift: at
    most one call into this module per event, never one per entry
    (cross-module calls are not inlined under the dev profile's
    [-opaque]). The present pass moves no flag and no depth.

    Invariant: after any sequence of accesses, [stk.(0 .. depth-1)] equals
    the first [min k d] entries of a full LRU stack fed the same
    accesses, where [d] is the number of distinct symbols seen, and
    [on.[s] <> '\000'] iff [s] is one of them. *)

type t = private {
  stk : int array;  (** Length [k]; entries at [depth] and beyond are garbage. *)
  on : Bytes.t;  (** One byte per symbol: ['\001'] while it is a live entry, else ['\000']. *)
  mutable depth : int;  (** Live entries, [<= k]. *)
}

val create : k:int -> num_symbols:int -> t
(** An empty stack keeping the [k] most recent of the symbols
    [0 .. num_symbols - 1].
    @raise Invalid_argument when [k < 1] or [num_symbols < 0]. *)

val capacity : t -> int
(** [k]. *)

val clear : t -> unit
(** Drop every entry and clear its flag (O(depth)). *)

val push : t -> int -> unit
(** [push t x] records an access to [x], whose flag must be clear: every
    entry shifts down a slot and, at depth [k], the deepest one drops out
    with its flag cleared; [x] goes on top with its flag set.
    @raise Invalid_argument when [x] is outside the universe. *)

val contents : t -> int list
(** The live entries, most recent first. *)
