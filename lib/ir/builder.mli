(** Imperative program construction.

    Usage: declare functions, declare blocks (block ids are handed out before
    bodies exist so terminators can point forward), then fill bodies, then
    [finish] — which validates the program. The first block declared in a
    function is its entry.

    {[
      let b = Builder.create ~name:"demo" () in
      let f = Builder.func b "main" in
      let entry = Builder.block b f "entry" in
      let loop = Builder.block b f "loop" in
      Builder.set_body b entry [] (Jump loop);
      Builder.set_body b loop [ Work 10 ] Halt;
      let prog = Builder.finish b
    ]} *)

type t

val create : name:string -> unit -> t

val func : t -> string -> Types.func_id
(** Declare a function. The first function declared is [main] unless
    {!set_main} overrides it. *)

val block : t -> Types.func_id -> string -> Types.block_id
(** Declare a block in a function; body defaults to empty with [Halt]. *)

val set_body : t -> Types.block_id -> Types.instr list -> Types.terminator -> unit

val set_main : t -> Types.func_id -> unit

val finish : t -> Program.t
(** @raise Validate.Invalid if the program is malformed. *)

val finish_unchecked : t -> Program.t
(** For tests that need to build malformed programs. *)
