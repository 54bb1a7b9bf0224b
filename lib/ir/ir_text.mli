(** Textual IR: a stable, human-writable serialization of programs.

    The format is line-oriented; [print] emits it and [parse] reads it back
    ([parse (print p)] is structurally identical to [p]). Block and function
    references are by name — block names must be unique within their
    function and function names within the program.

    {v
    program demo
    func main *        # '*' marks the entry function
      block entry:
        v0 := 0
        jump loop
      block loop:
        work 10
        v0 := (v0 + 1)
        load (v0 * 64)
        branch (v0 < 100) ? loop : done
      block done:
        halt
    func helper
      block top:
        switch v1 [a b] default a
      block a:
        return
      block b:
        call main -> a       # callee -> return block (same function)
    v}

    Expressions use the same syntax {!Types.expr_to_string} produces:
    integer literals, [vN] variables, [rand(N)], and parenthesized binary
    operations [(e OP e)]. [#] starts a comment. *)

exception Parse_error of int * string
(** Line number (1-based) and message. A message about an expression
    names the column (1-based, indentation included, a tab counting as
    one) on that source line. *)

val print : Program.t -> string

val parse : ?name:string -> string -> Program.t
(** @raise Parse_error on malformed input. [name] overrides the [program]
    header if given. The result is validated. *)

val equal_structure : Program.t -> Program.t -> bool
(** Structural equality: same functions (names, entries), blocks (names,
    instructions, terminators) and main — ignores nothing else, so it is
    exactly what the print/parse roundtrip must preserve. *)
