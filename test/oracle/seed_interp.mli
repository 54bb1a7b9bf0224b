(** The seed interpreter loop, kept as the differential oracle for
    {!Colayout_exec.Interp}. Test-only.

    One [Trace.push] per bb and fn event, a [Vec] call stack whose [pop]
    returns an option, and each block's instruction list walked with a
    closure. {!Colayout_exec.Interp.run} must return the same
    {!Colayout_exec.Interp.result}, field by field, for every program,
    input and fuel, and raise the same [Invalid_argument] where this one
    raises. *)

val run :
  ?metrics:Colayout_util.Metrics.t ->
  Colayout_ir.Program.t ->
  Colayout_exec.Interp.input ->
  Colayout_exec.Interp.result
