(** Leveled progress reporting for the harness, on [Logs].

    Replaces the seed's raw [Printf.eprintf] calls. All harness chatter
    goes through the ["colayout.harness"] source; CLI front-ends pick a
    {!verbosity} and call {!setup} once. Library code that never calls
    {!setup} inherits [Logs]' default no-op reporter, so embedding the
    harness stays silent by default. *)

type verbosity =
  | Quiet  (** No stderr chatter at all. *)
  | Normal  (** Progress notes ([Logs.Info]). *)
  | Debug  (** Everything ([Logs.Debug]). *)

val verbosity_of_string : string -> verbosity option
(** ["quiet" | "normal" | "debug"]. *)

val verbosity_to_string : verbosity -> string

val setup : verbosity -> unit
(** Install the stderr reporter and set the harness source's level. *)

val info : ('a, Format.formatter, unit, unit) format4 -> 'a
