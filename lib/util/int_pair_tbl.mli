(** Flat open-addressing hash table from non-negative [int] keys to [int]
    values, specialised for the analysis kernels' pair-indexed counters.

    The generic [Hashtbl] keyed by [(int * int)] tuples pays a boxed tuple
    allocation per probe plus the polymorphic hash on every access, and one
    bucket-cell allocation per insert. This table stores keys and values in
    two parallel [int array]s — no allocation on any operation except a
    capacity doubling — and hashes with a splitmix64-style integer mixer.

    Pair keys are packed as [(x lsl 31) lor y], so each coordinate must lie
    in [[0, 2^31)] ({!max_coord}); the packed key then fits a 63-bit native
    int with the sign bit clear. Callers guard their symbol universe once
    (e.g. [Trg.build] raises [Invalid_argument] when
    [num_symbols > max_coord]) and pack/unpack for free afterwards.

    Negative keys are reserved for the implementation's empty/tombstone
    sentinels and are rejected. *)

type t

val max_coord : int
(** [2^31 - 1]: the largest value either pair coordinate may take. *)

val max_grid_universe : int
(** [2048]: the largest symbol universe [n] for which the pair kernels
    ([Trg.build], [Trg_reduce.reduce], [Affinity.thresholds]) skip this
    table and count into the calling domain's flat [n × n] [Pair_grid]:
    at most [2048² × 8] bytes = 32 MiB, kept by the domain and reused
    from call to call. Every program in the repo
    has at most 1,293 blocks, so the paper path always takes the grid;
    larger universes keep the table. Both paths make the same decisions. *)

val pack : int -> int -> int
(** [pack x y = (x lsl 31) lor y]. Unchecked: both must be in
    [[0, max_coord]]. *)

val fst_of : int -> int
(** First coordinate of a packed key. *)

val snd_of : int -> int
(** Second coordinate of a packed key. *)

val create : ?capacity:int -> unit -> t
(** [capacity] is a hint for the number of expected entries. *)

val length : t -> int
(** Number of live bindings. O(1). *)

val mem : t -> int -> bool

val find : t -> int -> default:int -> int
(** The bound value, or [default] when absent. Never allocates. *)

val replace : t -> int -> int -> unit
(** Insert or overwrite. @raise Invalid_argument on a negative key. *)

val add_to : t -> int -> int -> int
(** [add_to t key delta] adds [delta] to the binding of [key] (treating an
    absent key as bound to [0]), stores the sum and returns it. One probe
    sequence for the read-modify-write. *)

val slot : t -> int -> int
(** [slot t key] is the index of [key]'s slot, after inserting [key] bound
    to [0] when it was absent (into the first tombstone on its probe path,
    if any). One probe sequence; read and write the value with
    {!slot_get} and {!slot_set}. The index stays valid until the next
    insertion of another key (which may resize the table), {!remove} of
    this key or {!clear}.
    @raise Invalid_argument on a negative key. *)

val slot_get : t -> int -> int
(** The value in a slot returned by {!slot}.
    @raise Invalid_argument when the index holds no live binding. *)

val slot_set : t -> int -> int -> unit
(** Overwrite the value in a slot returned by {!slot}.
    @raise Invalid_argument when the index holds no live binding. *)

val remove : t -> int -> unit
(** No-op when absent. Leaves a tombstone; slots are reclaimed on the next
    resize. *)

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] applies [f key value] to every live binding, in unspecified
    order. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
