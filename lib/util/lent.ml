type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let grow b n = if Bigarray.Array1.dim b >= n then b else ints n

type 'a slot = {
  value : 'a;
  mutable busy : bool;
}

type 'a t = 'a slot Domain.DLS.key

let create make = Domain.DLS.new_key (fun () -> { value = make (); busy = false })

let hold l ~refused f =
  let s = Domain.DLS.get l in
  if s.busy then invalid_arg refused;
  s.busy <- true;
  match f s.value with
  | r ->
    s.busy <- false;
    r
  | exception e ->
    s.busy <- false;
    raise e

let peek l = (Domain.DLS.get l).value
