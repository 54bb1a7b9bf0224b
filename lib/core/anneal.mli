(** Simulated-annealing layout search.

    Between the paper's O(N)–O(N³) heuristics and the impossible exhaustive
    search (§III-D) sits local search: start from a heuristic's function
    order and hill-climb with occasional uphill moves over the simulated
    miss ratio. Too slow to be a compiler pass (each step is a full cache
    simulation) but useful to estimate how much headroom the heuristics
    leave — the experiment harness uses it in the Petrank-Rawitz wall
    study. Deterministic for a fixed seed.

    {!search} scores each proposal through a {!Layout_eval.Delta}
    session: the engine keeps a per-cache-set ledger alive across moves
    and recounts only the sets a move perturbs. Its ratios are {e
    bit-equal} to a full evaluation of the same order, so the result is
    the one a full-evaluation loop drawing the same PRNG stream returns
    (the test oracle [Kernel_baseline.anneal_full]).
    {!search_batch} scores a whole neighbourhood per step through
    {!Layout_eval.eval_batch}. *)

type result = {
  order : int array;
  miss_ratio : float;
  steps : int;  (** Simulations performed. *)
  improved_from : float;  (** Miss ratio of the initial order. *)
}

val apply_swap : int array -> int -> int -> unit
(** Exchange positions [a] and [b] in place. Its own inverse. Exposed for
    the delta benchmark and tests that replay identical move sequences
    down both evaluation paths. *)

val apply_relocate : int array -> int -> int -> unit
(** Move position [a] to position [b] in place, shifting the gap over.
    [apply_relocate o a b] is undone by [apply_relocate o b a]. *)

val search :
  ?seed:int ->
  ?steps:int ->
  ?initial:int array ->
  ?max_span:int ->
  params:Colayout_cache.Params.t ->
  Colayout_ir.Program.t ->
  Colayout_trace.Trace.t ->
  result
(** [steps] defaults to 300; [initial] to the identity (original) order;
    temperature decays geometrically to ~0 over the budget. Neighbourhood:
    swap two random functions, or relocate one (50/50). With [max_span]
    the second position is drawn within [max_span] positions of the first
    — the local-refinement regime where delta evaluation shines (a local
    move dirties few cache sets); without it the draw is uniform, the
    exact PR-5 stream.

    Degenerate inputs ([num_funcs <= 1]) return the trivial order
    immediately — there is no neighbourhood to draw from, and the
    redraw-until-distinct loop must never spin on one.

    Every step performs a real move: when two drawn positions collide
    ([a = b]) the second draw is repeated rather than burning the step.
    Deterministic for a fixed [seed] and [max_span]. *)

val search_batch :
  ?seed:int ->
  ?steps:int ->
  ?width:int ->
  ?initial:int array ->
  ?max_span:int ->
  Layout_eval.t ->
  result
(** Batched variant: each of the [steps] (default 60) temperature steps
    draws [width] (default 8) independent moves from the current order,
    scores the whole neighborhood, and Metropolis-accepts the best
    candidate. The neighborhood is materialized and scored by
    {!Layout_eval.eval_batch}: sequentially on an engine created without
    a pool, fanned out with one. Its results are index-ordered and
    bit-equal at any jobs count, so the search is deterministic at any
    jobs count. [result.steps] reports simulations performed
    ([steps * width + 1]). *)
