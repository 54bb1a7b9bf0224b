type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type state = {
  mutable grid : t;
  mutable busy : bool;
}

let create cells =
  let g = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cells in
  Bigarray.Array1.fill g 0;
  g

let state = Domain.DLS.new_key (fun () -> { grid = create 0; busy = false })

let capacity () = Bigarray.Array1.dim (Domain.DLS.get state).grid

let with_grid who ~n f =
  if n < 0 || n > Int_pair_tbl.max_grid_universe then
    invalid_arg (Printf.sprintf "%s: grid side %d outside [0, max_grid_universe]" who n);
  let s = Domain.DLS.get state in
  if s.busy then invalid_arg (who ^ ": the pair grid is already held on this domain");
  let cells = n * n in
  (* A grown grid replaces the old one outright: the old one holds only
     zeros, and no holder can be reading it. *)
  if Bigarray.Array1.dim s.grid < cells then s.grid <- create cells;
  let view = Bigarray.Array1.sub s.grid 0 cells in
  s.busy <- true;
  match f view with
  | r ->
    s.busy <- false;
    r
  | exception e ->
    Bigarray.Array1.fill view 0;
    s.busy <- false;
    raise e
