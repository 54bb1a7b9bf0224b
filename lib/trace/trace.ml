open Colayout_util

type t = {
  name : string;
  num_symbols : int;
  events : Int_vec.t;
  (* Occurrence counts, materialized on the first [occurrences] or
     [distinct_count] query and kept current incrementally by [push]
     afterwards. Lazy rather than eager because [num_symbols] may vastly
     exceed the distinct symbols actually pushed (the 2^31-universe guard
     traces, line traces over sparse layouts): a trace that is never asked
     pays nothing. *)
  mutable occ : int array option;
  mutable distinct : int; (* meaningful only when [occ] is materialized *)
}

let create ?(name = "trace") ~num_symbols () =
  if num_symbols <= 0 then invalid_arg "Trace.create: num_symbols must be positive";
  { name; num_symbols; events = Int_vec.create (); occ = None; distinct = 0 }

let name t = t.name

let num_symbols t = t.num_symbols

let length t = Int_vec.length t.events

let out_of_range sym num_symbols =
  invalid_arg (Printf.sprintf "Trace.push: symbol %d out of [0,%d)" sym num_symbols)

let push t sym =
  if sym < 0 || sym >= t.num_symbols then out_of_range sym t.num_symbols;
  Int_vec.push t.events sym;
  match t.occ with
  | None -> ()
  | Some occ ->
    let c = occ.(sym) in
    if c = 0 then t.distinct <- t.distinct + 1;
    occ.(sym) <- c + 1

let get t i = Int_vec.get t.events i

let iter f t = Int_vec.iter f t.events

let iteri f t = Int_vec.iteri f t.events

(* The trace over [events], after one validation pass: the error pushing
   the events one by one raises, for the first symbol out of range. *)
let of_events ?name ~num_symbols events =
  let t = create ?name ~num_symbols () in
  let a = Int_vec.backing events in
  for i = 0 to Int_vec.length events - 1 do
    let s = Array.unsafe_get a i in
    if s < 0 || s >= num_symbols then out_of_range s num_symbols
  done;
  { t with events }

let of_list ?name ~num_symbols l = of_events ?name ~num_symbols (Int_vec.of_list l)

let of_array ?name ~num_symbols a = of_events ?name ~num_symbols (Int_vec.of_array a)

let of_buffer ?name ~num_symbols buf ~len =
  of_events ?name ~num_symbols (Int_vec.of_buffer buf ~len)

let to_list t = Int_vec.to_list t.events

let events t = t.events

let materialize_occ t =
  match t.occ with
  | Some occ -> occ
  | None ->
    let occ = Array.make t.num_symbols 0 in
    let distinct = ref 0 in
    iter
      (fun s ->
        if occ.(s) = 0 then incr distinct;
        occ.(s) <- occ.(s) + 1)
      t;
    t.occ <- Some occ;
    t.distinct <- !distinct;
    occ

let occurrences t = Array.copy (materialize_occ t)

let distinct_count t =
  ignore (materialize_occ t);
  t.distinct

let first_occurrence t =
  let first = Array.make t.num_symbols (-1) in
  iteri (fun i s -> if first.(s) < 0 then first.(s) <- i) t;
  first

let equal a b = Int_vec.equal a.events b.events
