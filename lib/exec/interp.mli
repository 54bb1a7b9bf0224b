(** IR interpreter: the instrumentation run of §II-F.

    Executes a program deterministically (given a seed and input vector) and
    records the dynamic basic-block trace and function trace, plus the
    dynamic instruction count. The paper instruments with the small *test*
    input for analysis and evaluates with the *reference* input; callers
    express that by running twice with different {!input}s. *)

type input = {
  seed : int;  (** Seeds the PRNG behind [Rand] expressions. *)
  params : int array;  (** Initial values of the low-numbered globals. *)
  max_blocks : int;  (** Fuel: maximum number of block executions. *)
}

val test_input : ?seed:int -> ?max_blocks:int -> unit -> input
(** Small-fuel input (default 200k blocks) for analysis runs. *)

val ref_input : ?seed:int -> ?max_blocks:int -> unit -> input
(** Large-fuel input (default 2M blocks) for evaluation runs; different seed
    than {!test_input} so analysis never sees the evaluation randomness. *)

type result = {
  bb_trace : Colayout_trace.Trace.t;  (** One event per executed block. *)
  fn_trace : Colayout_trace.Trace.t;  (** One event per function entry. *)
  data_trace : Colayout_util.Int_vec.t;
      (** One byte-address per executed [Load]/[Store], in order — the data
          reference stream of the unified-cache model (Eq 1). Addresses are
          masked non-negative. *)
  call_trace : Colayout_util.Int_vec.t;
      (** One event per executed [Call], encoding
          [caller_fid * num_funcs + callee_fid] — the dynamic call-pair
          stream that call-graph-based placement (Pettis-Hansen) consumes. *)
  instr_count : int;
  block_execs : int;
  completed : bool;  (** [Halt] reached before the fuel ran out. *)
}

val run :
  ?metrics:Colayout_util.Metrics.t -> Colayout_ir.Program.t -> input -> result
(** @raise Invalid_argument on malformed programs (callers should have
    validated), with the message of the check that fails first in
    execution order. A [Return] with an empty call stack halts, like
    returning from [main].

    Each call resolves the program's blocks into a flat array (nothing is
    cached across calls), then records events without a call per event:
    bb and fn events go into local buffers that become the traces'
    storage (see {!Colayout_trace.Trace.of_buffer}), and [Rand] draws
    from an allocation-free {!Colayout_util.Prng}. A steady-state run
    allocates fewer minor words than it executes blocks.

    When [metrics] is given, the run adds to the registry's [interp.runs],
    [interp.blocks], [interp.instrs] and [interp.fn_events] counters. *)

val block_instr_counts : Colayout_ir.Program.t -> int array
(** Per-block static instruction counts, indexed by block id — the
    replay-time companion of the trace for the timing model. *)
