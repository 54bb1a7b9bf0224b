type t = {
  mutable data : int array;
  mutable len : int;
}

let create ?(capacity = 16) () =
  if capacity < 0 then invalid_arg "Int_vec.create";
  { data = Array.make (max capacity 1) 0; len = 0 }

let length v = v.len

let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Int_vec: index %d out of bounds [0,%d)" i v.len)

let get v i =
  check v i;
  Array.unsafe_get v.data i

let unsafe_get v i = Array.unsafe_get v.data i

let set v i x =
  check v i;
  Array.unsafe_set v.data i x

(* [Array.blit] for int arrays. The stdlib's blit cannot know the
   elements are immediate: into an array in the major heap (anything over
   256 words) it stores each one through [caml_modify], which made a
   200k-word copy take twice as long as this loop. *)
let blit_ints (src : int array) spos (dst : int array) dpos len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst (dpos + i) (Array.unsafe_get src (spos + i))
  done

(* A fresh array of [max cap 1] words, [a.(pos) .. a.(pos + len - 1)]
   first. *)
let copy_out a ~pos ~len ~cap =
  let data = Array.make (max cap 1) 0 in
  blit_ints a pos data 0 len;
  data

let grow v = v.data <- copy_out v.data ~pos:0 ~len:v.len ~cap:(2 * Array.length v.data)

let push v x =
  if v.len = Array.length v.data then grow v;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let to_list v = List.rev (fold_left (fun acc x -> x :: acc) [] v)

let of_list l =
  let v = create () in
  List.iter (push v) l;
  v

let to_array v = if v.len = 0 then [||] else copy_out v.data ~pos:0 ~len:v.len ~cap:v.len

let backing v = v.data

let of_array a =
  let len = Array.length a in
  { data = copy_out a ~pos:0 ~len ~cap:len; len }

let of_buffer buf ~len =
  if len < 0 || len > Array.length buf then invalid_arg "Int_vec.of_buffer";
  if 2 * len >= Array.length buf then { data = buf; len }
  else { data = copy_out buf ~pos:0 ~len ~cap:len; len }

let append dst src =
  let need = dst.len + src.len in
  if need > Array.length dst.data then begin
    let cap = ref (Array.length dst.data) in
    while !cap < need do
      cap := 2 * !cap
    done;
    dst.data <- copy_out dst.data ~pos:0 ~len:dst.len ~cap:!cap
  end;
  blit_ints src.data 0 dst.data dst.len src.len;
  dst.len <- need

let sub v ~pos ~len =
  if pos < 0 || len < 0 || pos + len > v.len then invalid_arg "Int_vec.sub";
  { data = copy_out v.data ~pos ~len ~cap:len; len }

let max_element v =
  if v.len = 0 then None
  else Some (fold_left (fun m x -> if x > m then x else m) min_int v)

let equal a b =
  a.len = b.len
  &&
  let rec loop i = i >= a.len || (a.data.(i) = b.data.(i) && loop (i + 1)) in
  loop 0
