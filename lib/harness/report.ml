type verbosity = Quiet | Normal | Debug

let src = Logs.Src.create "colayout.harness" ~doc:"Experiment-harness progress"

module Log = (val Logs.src_log src : Logs.LOG)

let verbosity_of_string = function
  | "quiet" -> Some Quiet
  | "normal" -> Some Normal
  | "debug" -> Some Debug
  | _ -> None

let verbosity_to_string = function Quiet -> "quiet" | Normal -> "normal" | Debug -> "debug"

let level_of_verbosity = function
  | Quiet -> None
  | Normal -> Some Logs.Info
  | Debug -> Some Logs.Debug

(* A minimal stderr reporter in the seed's "  [harness] ..." style; no
   colors, one line per message, flushed eagerly so progress interleaves
   correctly with table output on stdout. Pool tasks log from worker
   domains, and err_formatter's buffer is shared — a mutex keeps each
   line whole. *)
let reporter () =
  let lock = Mutex.create () in
  let report _src level ~over k msgf =
    let k _ =
      Mutex.unlock lock;
      over ();
      k ()
    in
    msgf (fun ?header:_ ?tags:_ fmt ->
        let prefix = match level with Logs.Debug -> "  [harness:debug] " | _ -> "  [harness] " in
        Mutex.lock lock;
        Format.kfprintf k Format.err_formatter ("%s" ^^ fmt ^^ "@.") prefix)
  in
  { Logs.report }

let setup verbosity =
  Logs.set_reporter (reporter ());
  Logs.Src.set_level src (level_of_verbosity verbosity)

let info fmt = Format.kasprintf (fun s -> Log.info (fun m -> m "%s" s)) fmt
