type t = {
  stk : int array;
  mutable depth : int;
}

let create ~k =
  if k < 1 then invalid_arg "Window_stack.create: k must be >= 1";
  { stk = Array.make k 0; depth = 0 }

let capacity t = Array.length t.stk

let clear t = t.depth <- 0

let find t x =
  let stk = t.stk and n = t.depth in
  let i = ref 0 in
  while !i < n && Array.unsafe_get stk !i <> x do
    incr i
  done;
  if !i < n then !i else -1

(* An open-coded shift rather than [Array.blit]: once the array is in the
   major heap, the runtime's blit of a non-float array writes each slot
   through [caml_modify], while this loop's stores into an [int array]
   need no write barrier. *)
let move_to_front t ~pos x =
  let stk = t.stk in
  let last =
    if pos >= 0 then pos
    else begin
      let n = t.depth in
      if n < Array.length stk then begin
        t.depth <- n + 1;
        n
      end
      else n - 1
    end
  in
  for i = last downto 1 do
    Array.unsafe_set stk i (Array.unsafe_get stk (i - 1))
  done;
  Array.unsafe_set stk 0 x

let contents t = Array.to_list (Array.sub t.stk 0 t.depth)
