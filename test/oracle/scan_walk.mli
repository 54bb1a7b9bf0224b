(** The scanning window walk: the bounded LRU stack the library kernels
    walked before the flagged {!Colayout_trace.Window_stack}, which finds
    each event's symbol by scanning the stack, and [Ingest]'s exact-mode
    walk on it. A test oracle: the flagged stack and the online ingest
    are checked against it, and the bench times the ingest walk beside
    it. *)

type t
(** The [k] most recent distinct symbols, most recent first. *)

val create : k:int -> t
(** An empty stack keeping the [k] most recent symbols.
    @raise Invalid_argument when [k < 1]. *)

val clear : t -> unit
(** Drop every entry. *)

val find : t -> int -> int
(** [x]'s 0-based position when it is among the live entries, else [-1].
    One contiguous scan. *)

val move_to_front : t -> pos:int -> int -> unit
(** Records an access to [x], where [pos] is [find t x]: entries above
    [pos] shift down one slot; when [pos = -1] every entry shifts and, at
    depth [k], the deepest one drops out. *)

val contents : t -> int list
(** The live entries, most recent first. *)

val ingest_digests :
  trg_window:int -> affinity_w:int -> Colayout_trace.Trace.t list -> string * string
(** The consensus digests ({!Colayout.Ingest.consensus_digests}) of an
    exact-mode ingest of the traces, each an independent stream trimmed
    on the fly, walked on the scanning stack over dense [n × n] arrays:
    per event one [find], the TRG loop, the two witness loops, then
    [move_to_front].
    @raise Invalid_argument on an empty list. *)
