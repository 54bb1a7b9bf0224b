(** Deterministic splitmix64 pseudo-random number generator.

    Every stochastic choice in the repository (workload generation,
    data-dependent branches, sampling) goes through an explicitly seeded
    [Prng.t] so that traces, experiments and tests are bit-reproducible.
    The global [Random] state is never used.

    The 64-bit state lives unboxed in a private 8-byte buffer, so {!int}
    allocates nothing: the interpreter draws once per [Rand] expression,
    and a boxed [int64] per draw was most of its allocation. The drawn
    sequence is the one a boxed state gives. *)

type t

val create : seed:int -> t

val copy : t -> t

val split : t -> t
(** Derive an independent stream; the parent advances. *)

val next_int64 : t -> int64

val int : t -> int -> int
(** [int t bound] is uniform in [[0, bound)]; allocates no heap words.
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range [[lo, hi]]. *)

val float : t -> float
(** Uniform in [[0, 1)]. *)

val bool : t -> p:float -> bool
(** True with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val geometric : t -> p:float -> int
(** Number of failures before the first success, [p] in (0,1]. *)

val zipf : t -> n:int -> s:float -> int
(** Zipf-distributed rank in [[0, n)] with exponent [s]; used to give
    synthetic workloads the skewed hot/cold block popularity that real
    programs show. The per-[(n, s)] CDF memo lives inside [t] — no state
    is shared between instances. *)
