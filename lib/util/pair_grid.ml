type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type marks = Bytes.t

type state = {
  mutable grid : t;
  mutable marks : marks;
  mutable busy : bool;
}

let create cells =
  let g = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cells in
  Bigarray.Array1.fill g 0;
  g

let state =
  Domain.DLS.new_key (fun () -> { grid = create 0; marks = Bytes.empty; busy = false })

let capacity () = Bigarray.Array1.dim (Domain.DLS.get state).grid

(* [pairs] is the number of marks the holder needs: 0 or [n * (n - 1) / 2]. *)
let hold who ~n ~pairs f =
  if n < 0 || n > Int_pair_tbl.max_grid_universe then
    invalid_arg (Printf.sprintf "%s: grid side %d outside [0, max_grid_universe]" who n);
  let s = Domain.DLS.get state in
  if s.busy then invalid_arg (who ^ ": the pair grid is already held on this domain");
  let cells = n * n in
  (* A grown grid replaces the old one outright: the old one holds only
     zeros, and no holder can be reading it. *)
  if Bigarray.Array1.dim s.grid < cells then s.grid <- create cells;
  (* Likewise the marks: the old bytes are all 0. *)
  if Bytes.length s.marks < pairs then s.marks <- Bytes.make pairs '\000';
  let view = Bigarray.Array1.sub s.grid 0 cells and marks = s.marks in
  s.busy <- true;
  match f view marks with
  | r ->
    s.busy <- false;
    r
  | exception e ->
    Bigarray.Array1.fill view 0;
    Bytes.fill marks 0 pairs '\000';
    s.busy <- false;
    raise e

let with_grid who ~n f = hold who ~n ~pairs:0 (fun g _ -> f g)

let with_grid_marks who ~n f = hold who ~n ~pairs:(n * (n - 1) / 2) f
