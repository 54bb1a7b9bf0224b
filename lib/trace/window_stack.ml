type t = {
  stk : int array;
  on : Bytes.t;
  mutable depth : int;
}

let create ~k ~num_symbols =
  if k < 1 then invalid_arg "Window_stack.create: k must be >= 1";
  if num_symbols < 0 then invalid_arg "Window_stack.create: num_symbols must be >= 0";
  { stk = Array.make k 0; on = Bytes.make num_symbols '\000'; depth = 0 }

let capacity t = Array.length t.stk

let clear t =
  for i = 0 to t.depth - 1 do
    Bytes.unsafe_set t.on (Array.unsafe_get t.stk i) '\000'
  done;
  t.depth <- 0

(* An open-coded shift rather than [Array.blit]: once the array is in the
   major heap, the runtime's blit of a non-float array writes each slot
   through [caml_modify], while this loop's stores into an [int array]
   need no write barrier. *)
let push t x =
  if x < 0 || x >= Bytes.length t.on then invalid_arg "Window_stack.push: symbol out of range";
  let stk = t.stk in
  let n = t.depth in
  let last =
    if n < Array.length stk then begin
      t.depth <- n + 1;
      n
    end
    else begin
      Bytes.unsafe_set t.on (Array.unsafe_get stk (n - 1)) '\000';
      n - 1
    end
  in
  for i = last downto 1 do
    Array.unsafe_set stk i (Array.unsafe_get stk (i - 1))
  done;
  Array.unsafe_set stk 0 x;
  Bytes.unsafe_set t.on x '\001'

let contents t = Array.to_list (Array.sub t.stk 0 t.depth)
