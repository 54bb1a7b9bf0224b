(** A dynamic reference trace of code blocks (or functions).

    Events are dense integer symbol ids — the paper's "mapping file" that
    assigns each basic block or function an index (§II-F). The same container
    serves basic-block traces and function traces. *)

type t

val create : ?name:string -> num_symbols:int -> unit -> t
(** [num_symbols] is the id universe size; events must lie in
    [[0, num_symbols)]. *)

val name : t -> string

val num_symbols : t -> int

val length : t -> int

val push : t -> int -> unit
(** @raise Invalid_argument if the symbol is out of range. *)

val get : t -> int -> int

val iter : (int -> unit) -> t -> unit

val iteri : (int -> int -> unit) -> t -> unit

val of_list : ?name:string -> num_symbols:int -> int list -> t

val of_array : ?name:string -> num_symbols:int -> int array -> t
(** One range check over the array, then one copy of it.
    @raise Invalid_argument as {!push} does, for the first symbol out of
    range. *)

val of_buffer : ?name:string -> num_symbols:int -> int array -> len:int -> t
(** The trace of [buf]'s first [len] events, range-checked as {!of_array}
    does (same error). [buf] becomes the trace's storage as
    {!Colayout_util.Int_vec.of_buffer} says: the caller gives it up. For
    producers that fill a buffer in place (the interpreter, trimming,
    pruning), which would otherwise pay a copy on top of the fill. *)

val to_list : t -> int list

val events : t -> Colayout_util.Int_vec.t
(** The underlying storage (shared, not copied). *)

val distinct_count : t -> int
(** Number of distinct symbols that actually occur. O(1) after the first
    query on a given trace: the count is cached and kept current
    incrementally by {!push} (the seed recomputed a full occurrence pass
    per call). *)

val occurrences : t -> int array
(** Occurrence count per symbol id; a fresh array the caller may mutate.
    Backed by the same lazily-materialized cache as {!distinct_count}. *)

val first_occurrence : t -> int array
(** First position per symbol, or [-1] if absent. *)

val equal : t -> t -> bool
(** Same length and event sequence (names and symbol universe ignored). *)
