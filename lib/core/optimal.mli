(** Exhaustive layout search — the Petrank-Rawitz wall made concrete
    (§III-D).

    Petrank and Rawitz proved that optimal cache-conscious placement is not
    only NP-hard but inapproximable within a constant factor unless P = NP.
    For a program with [F] functions there are [F!] layouts; this module
    searches them exhaustively (feasible only for small [F]), giving the true
    optimum that the paper's heuristics can be measured against. The gap to
    optimum — and how quickly [F!] explodes — is the wall.

    Candidates are scored through one {!Layout_eval} engine built up front
    (bit-equal to the seed evaluator kept as a test oracle), so the
    permutation walk allocates nothing per layout. *)

type result = {
  best_order : int array;  (** Function order with the fewest misses. *)
  best_miss_ratio : float;
  worst_miss_ratio : float;
  evaluated : int;  (** Number of layouts simulated. *)
}

val search :
  ?max_layouts:int ->
  params:Colayout_cache.Params.t ->
  Colayout_ir.Program.t ->
  Colayout_trace.Trace.t ->
  result
(** [search ~params program ref_trace] simulates every function permutation
    (or the first [max_layouts] in lexicographic order, default unbounded)
    against the reference block trace. @raise Invalid_argument if the
    program has more than 9 functions and no [max_layouts] cap. *)

val miss_ratio_of_function_order :
  params:Colayout_cache.Params.t ->
  Colayout_ir.Program.t ->
  Colayout_trace.Trace.t ->
  int array ->
  float
(** Simulate one function order (helper shared with the experiments). *)
