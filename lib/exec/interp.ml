open Colayout_util
open Colayout_ir

type input = {
  seed : int;
  params : int array;
  max_blocks : int;
}

let test_input ?(seed = 12345) ?(max_blocks = 200_000) () =
  { seed; params = [||]; max_blocks }

let ref_input ?(seed = 987654321) ?(max_blocks = 2_000_000) () =
  { seed; params = [||]; max_blocks }

type result = {
  bb_trace : Colayout_trace.Trace.t;
  fn_trace : Colayout_trace.Trace.t;
  data_trace : Int_vec.t;
  call_trace : Int_vec.t;
  instr_count : int;
  block_execs : int;
  completed : bool;
}

let num_vars = 64

let eval_binop op a b =
  match op with
  | Types.Add -> a + b
  | Types.Sub -> a - b
  | Types.Mul -> a * b
  | Types.Div -> if b = 0 then 0 else a / b
  | Types.Mod -> if b = 0 then 0 else a mod b
  | Types.Xor -> a lxor b
  | Types.And -> a land b
  | Types.Or -> a lor b
  | Types.Lt -> if a < b then 1 else 0
  | Types.Le -> if a <= b then 1 else 0
  | Types.Eq -> if a = b then 1 else 0
  | Types.Ne -> if a <> b then 1 else 0
  | Types.Gt -> if a > b then 1 else 0
  | Types.Ge -> if a >= b then 1 else 0

let rec eval_expr vars rng = function
  | Types.Const n -> n
  | Types.Var v ->
    if v < 0 || v >= Array.length vars then invalid_arg "Interp: bad variable index";
    vars.(v)
  | Types.Bin (op, a, b) ->
    let va = eval_expr vars rng a in
    let vb = eval_expr vars rng b in
    eval_binop op va vb
  | Types.Rand n -> Prng.int rng n

let address_mask = (1 lsl 40) - 1

let exec_instr vars rng data = function
  | Types.Assign (v, e) ->
    if v < 0 || v >= Array.length vars then invalid_arg "Interp: bad variable index";
    vars.(v) <- eval_expr vars rng e
  | Types.Work _ -> ()
  | Types.Load e | Types.Store e ->
    Int_vec.push data (eval_expr vars rng e land address_mask)

(* One block resolved for the loop: its id, its function, its non-[Work]
   instructions as an array ([Work] does nothing at run time), its
   instruction count and its terminator. *)
type rblock = {
  id : int;
  fn : int;
  ops : Types.instr array;
  icount : int;
  term : Types.terminator;
}

let resolve (b : Program.block) =
  {
    id = b.id;
    fn = b.fn;
    ops = Array.of_list (List.filter (function Types.Work _ -> false | _ -> true) b.instrs);
    icount = b.instr_count;
    term = b.term;
  }

(* [buf] doubled, at most to [cap] entries, with its first [n] kept. A
   typed loop copies: [Array.blit] stores each word of a major-heap
   array through [caml_modify]. *)
let grow buf n ~cap =
  let b = Array.make (min cap (2 * Array.length buf)) 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set b i (Array.unsafe_get buf i)
  done;
  b

(* The loop writes bb events, fn events and return addresses into local
   int buffers, and hands the two event buffers to [Trace] once, at the
   end, without a copy. A [Call] to a function that does not exist
   writes the callee into the fn buffer and stops the loop: the
   hand-off's range check then raises the error [Trace.push] raised at
   that call. Errors the loop raises itself (bad block, bad variable,
   bad [Rand] bound) come in execution order. *)
let run ?metrics program input =
  let nb = Program.num_blocks program in
  let nf = Program.num_funcs program in
  (* An empty universe fails before the run, with [Trace.create]'s
     message for it. *)
  if nb <= 0 || nf <= 0 then invalid_arg "Trace.create: num_symbols must be positive";
  let blocks = Array.map resolve (Program.blocks program) in
  let entries = Array.map (fun (f : Program.func) -> f.entry) (Program.funcs program) in
  let data_trace = Int_vec.create () in
  let call_trace = Int_vec.create () in
  let vars = Array.make num_vars 0 in
  Array.iteri (fun i v -> if i < num_vars then vars.(i) <- v) input.params;
  let rng = Prng.create ~seed:input.seed in
  let max_blocks = input.max_blocks in
  (* Every block execution writes one bb event, so [max_blocks] bounds
     that buffer. Programs run to their fuel (every [Spec] program does),
     so the buffer starts at the fuel, up to 2^20 events, and is then the
     trace's storage as it stands. A run that stops far short of it is
     copied down by [Trace.of_buffer]. Function entries are about a fifth
     of the block executions in the [Spec] programs. *)
  let bb_cap = max 1 (min max_blocks (1 lsl 20)) in
  let bb = ref (Array.make bb_cap 0) in
  let fns = ref (Array.make (max 64 (bb_cap / 4)) 0) in
  let nfn = ref 0 in
  let stack = ref (Array.make 64 0) in
  let depth = ref 0 in
  let instr_count = ref 0 in
  let block_execs = ref 0 in
  let completed = ref false in
  let main = Program.main program in
  Array.unsafe_set !fns 0 main.fid;
  nfn := 1;
  let cur = ref main.entry in
  let running = ref true in
  while !running && !block_execs < max_blocks do
    let c = !cur in
    if c < 0 || c >= nb then ignore (Program.block program c);
    let b = Array.unsafe_get blocks c in
    let n = !block_execs in
    if n = Array.length !bb then bb := grow !bb n ~cap:max_blocks;
    Array.unsafe_set !bb n b.id;
    block_execs := n + 1;
    instr_count := !instr_count + b.icount;
    let ops = b.ops in
    for i = 0 to Array.length ops - 1 do
      exec_instr vars rng data_trace (Array.unsafe_get ops i)
    done;
    match b.term with
    | Types.Jump target -> cur := target
    | Types.Branch { cond; if_true; if_false } ->
      cur := if eval_expr vars rng cond <> 0 then if_true else if_false
    | Types.Switch { sel; targets; default } ->
      let s = eval_expr vars rng sel in
      cur := if s >= 0 && s < Array.length targets then targets.(s) else default
    | Types.Call { callee; return_to } ->
      let k = !nfn in
      if k = Array.length !fns then fns := grow !fns k ~cap:max_int;
      Array.unsafe_set !fns k callee;
      nfn := k + 1;
      if callee < 0 || callee >= nf then running := false
      else begin
        let d = !depth in
        if d = Array.length !stack then stack := grow !stack d ~cap:max_int;
        Array.unsafe_set !stack d return_to;
        depth := d + 1;
        Int_vec.push call_trace ((b.fn * nf) + callee);
        cur := Array.unsafe_get entries callee
      end
    | Types.Return ->
      let d = !depth in
      if d > 0 then begin
        depth := d - 1;
        cur := Array.unsafe_get !stack (d - 1)
      end
      else begin
        completed := true;
        running := false
      end
    | Types.Halt ->
      completed := true;
      running := false
  done;
  (* Read the loop's counters out before the closure below: a ref a
     closure captures is boxed, and the loop would pay for it. *)
  let block_execs = !block_execs and nfn = !nfn and instr_count = !instr_count in
  let name = Program.name program in
  let bb_trace =
    Colayout_trace.Trace.of_buffer ~name:(name ^ ".bb") ~num_symbols:nb !bb ~len:block_execs
  in
  let fn_trace = Colayout_trace.Trace.of_buffer ~name:(name ^ ".fn") ~num_symbols:nf !fns ~len:nfn in
  Option.iter
    (fun m ->
      Metrics.add m "interp.runs" 1;
      Metrics.add m "interp.blocks" block_execs;
      Metrics.add m "interp.instrs" instr_count;
      Metrics.add m "interp.fn_events" nfn)
    metrics;
  { bb_trace; fn_trace; data_trace; call_trace; instr_count; block_execs; completed = !completed }

let block_instr_counts program =
  Array.map (fun (b : Program.block) -> b.instr_count) (Program.blocks program)
