(** Structured decision tracing for the layout optimizers.

    The optimizers make thousands of tiny greedy choices — which TRG edge
    drives the next placement, which cluster a group joins, which chains
    Pettis-Hansen concatenates. A trace records each as a compact event so
    a profile artifact can say {e why} a layout looks the way it does, and
    so regressions in decision counts are visible.

    Tracing is pay-as-you-go: every producer takes [?decisions] and emits
    through {!emit}, which is a no-op when the option is [None]. Events
    export as JSONL (one JSON object per line, schema tag
    [colayout/decisions/v1] in the first line's ["schema"] field). *)

type event = {
  step : int;  (** Sequence number within the trace, from 0. *)
  stage : string;  (** Producer: ["trg-reduce"], ["affinity"], ... *)
  action : string;  (** e.g. ["place"], ["merge"], ["join"], ["chain-merge"]. *)
  x : int;  (** Primary node/block/function involved; -1 when n/a. *)
  y : int;  (** Partner node (merge target, chain head); -1 when n/a. *)
  weight : int;  (** Driving edge weight or window size; -1 when n/a. *)
  group : int;  (** Resulting slot/cluster/chain id; -1 when n/a. *)
  size : int;  (** Resulting group size; -1 when n/a. *)
}

type t

val create : unit -> t

val emit :
  t option ->
  stage:string ->
  action:string ->
  ?x:int ->
  ?y:int ->
  ?weight:int ->
  ?group:int ->
  ?size:int ->
  unit ->
  unit
(** Append one event; does nothing when the trace is [None], so producers
    thread their [?decisions] straight through. *)

val count : t -> int

val events : t -> event list
(** In emission order. *)

val counts_by_action : t -> (string * int) list
(** [("stage.action", count)] pairs, sorted by key — the summary the
    profile artifact embeds. *)

val to_jsonl : t -> string
(** One compact JSON object per line, in emission order. *)
