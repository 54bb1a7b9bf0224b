(** Static code-size model.

    The compiler in the paper works on LLVM IR and does not know final binary
    sizes (§II-C); we nevertheless need byte sizes to lay blocks out in the
    simulated address space. This module fixes a deterministic bytes-per-
    instruction encoding so that block sizes are stable across analyses and
    transformations. *)

val expr_ops : Types.expr -> int
(** Number of ALU operations an expression compiles to. *)

val instr_bytes : Types.instr -> int

val instr_count : Types.instr -> int

val terminator_bytes : Types.terminator -> int

val terminator_instr_count : Types.terminator -> int

val jump_bytes : int
(** Size of the unconditional jump inserted when a layout breaks a
    fall-through edge (BB reordering pre-processing, §II-E). *)
