type report = {
  kept_symbols : int;
  total_symbols : int;
  kept_events : int;
  total_events : int;
  coverage : float;
}

let prune_default_top = 10_000

let hot_symbols t ~top =
  if top <= 0 then invalid_arg "Prune.hot_symbols: top must be positive";
  let occ = Trace.occurrences t in
  let present = ref [] in
  Array.iteri (fun sym c -> if c > 0 then present := (sym, c) :: !present) occ;
  let sorted =
    List.sort
      (fun (s1, c1) (s2, c2) -> if c1 <> c2 then compare c2 c1 else compare s1 s2)
      !present
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  Array.of_list (List.map fst (take top sorted))

(* One loop over the backing array into a buffer of the trace's length,
   handed to the output trace without a copy. *)
let prune t ~top =
  let hot = hot_symbols t ~top in
  let keep = Array.make (Trace.num_symbols t) false in
  Array.iter (fun s -> keep.(s) <- true) hot;
  let n = Trace.length t and ev = Colayout_util.Int_vec.backing (Trace.events t) in
  let buf = Array.make (max n 1) 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let s = Array.unsafe_get ev i in
    if Array.unsafe_get keep s then begin
      Array.unsafe_set buf !k s;
      incr k
    end
  done;
  let out =
    Trace.of_buffer ~name:(Trace.name t ^ ".pruned") ~num_symbols:(Trace.num_symbols t) buf ~len:!k
  in
  let total_symbols = Trace.distinct_count t in
  let total_events = Trace.length t in
  let kept_events = Trace.length out in
  let report =
    {
      kept_symbols = Array.length hot;
      total_symbols;
      kept_events;
      total_events;
      coverage = (if total_events = 0 then 1.0 else float_of_int kept_events /. float_of_int total_events);
    }
  in
  (out, report)
