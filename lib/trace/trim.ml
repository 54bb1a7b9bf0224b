open Colayout_util

(* One loop over the backing array into a buffer of the trace's length,
   handed to the output trace without a copy. *)
let trim t =
  let n = Trace.length t and ev = Int_vec.backing (Trace.events t) in
  let out = Array.make (max n 1) 0 in
  let k = ref 0 and prev = ref (-1) in
  for i = 0 to n - 1 do
    let s = Array.unsafe_get ev i in
    if s <> !prev then begin
      Array.unsafe_set out !k s;
      incr k;
      prev := s
    end
  done;
  Trace.of_buffer ~name:(Trace.name t ^ ".trimmed") ~num_symbols:(Trace.num_symbols t) out ~len:!k

let is_trimmed t =
  let n = Trace.length t and ev = Int_vec.backing (Trace.events t) in
  let i = ref 1 in
  while !i < n && Array.unsafe_get ev !i <> Array.unsafe_get ev (!i - 1) do
    incr i
  done;
  !i >= n
