type t = Lent.ints

type marks = Bytes.t

type state = {
  mutable grid : t;
  mutable marks : marks;
}

let create cells =
  let g = Lent.ints cells in
  Bigarray.Array1.fill g 0;
  g

let state = Lent.create (fun () -> { grid = create 0; marks = Bytes.empty })

let capacity () = Bigarray.Array1.dim (Lent.peek state).grid

(* [pairs] is the number of marks the holder needs: 0 or [n * (n - 1) / 2]. *)
let hold who ~n ~pairs f =
  if n < 0 || n > Int_pair_tbl.max_grid_universe then
    invalid_arg (Printf.sprintf "%s: grid side %d outside [0, max_grid_universe]" who n);
  Lent.hold state ~refused:(who ^ ": the pair grid is already held on this domain") (fun s ->
      let cells = n * n in
      (* A grown grid replaces the old one outright: the old one holds only
         zeros, and no holder can be reading it. *)
      if Bigarray.Array1.dim s.grid < cells then s.grid <- create cells;
      (* Likewise the marks: the old bytes are all 0. *)
      if Bytes.length s.marks < pairs then s.marks <- Bytes.make pairs '\000';
      let view = Bigarray.Array1.sub s.grid 0 cells and marks = s.marks in
      match f view marks with
      | r -> r
      | exception e ->
        Bigarray.Array1.fill view 0;
        Bytes.fill marks 0 pairs '\000';
        raise e)

let with_grid who ~n f = hold who ~n ~pairs:0 (fun g _ -> f g)

let with_grid_marks who ~n f = hold who ~n ~pairs:(n * (n - 1) / 2) f
