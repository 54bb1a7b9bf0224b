type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

(* [capacity] is accepted for API symmetry with [Int_vec]; a polymorphic
   array cannot be pre-allocated without a dummy element, so growth starts
   at the first [push]. *)
let create ?(capacity = 8) () =
  if capacity < 0 then invalid_arg "Vec.create";
  { data = [||]; len = 0 }

let length v = v.len

let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds [0,%d)" i v.len)

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 8 else cap * 2 in
  let data' = Array.make cap' x in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then None
  else begin
    v.len <- v.len - 1;
    Some v.data.(v.len)
  end

let last v = if v.len = 0 then None else Some v.data.(v.len - 1)

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let map f v =
  let out = create () in
  iter (fun x -> push out (f x)) v;
  out

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let to_list v = List.rev (fold_left (fun acc x -> x :: acc) [] v)

let of_list l =
  let v = create () in
  List.iter (push v) l;
  v

let to_array v = Array.init v.len (fun i -> v.data.(i))

let append dst src = iter (push dst) src

let sub v ~pos ~len =
  if pos < 0 || len < 0 || pos + len > v.len then invalid_arg "Vec.sub";
  let out = create () in
  for i = pos to pos + len - 1 do
    push out v.data.(i)
  done;
  out
