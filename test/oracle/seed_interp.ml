(* The interpreter loop as it stood before [Interp.run] resolved blocks
   into flat arrays: a [Trace.push] per event, a [Vec] call stack and an
   instruction list walked per block. Kept as the differential oracle for
   [Colayout_exec.Interp]. *)

open Colayout_util
open Colayout_ir
module Interp = Colayout_exec.Interp

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

let run ?metrics program (input : Interp.input) : Interp.result =
  let nb = Program.num_blocks program in
  let nf = Program.num_funcs program in
  let bb_trace =
    Colayout_trace.Trace.create ~name:(Program.name program ^ ".bb") ~num_symbols:nb ()
  in
  let fn_trace =
    Colayout_trace.Trace.create ~name:(Program.name program ^ ".fn") ~num_symbols:nf ()
  in
  let data_trace = Int_vec.create () in
  let call_trace = Int_vec.create () in
  let vars = Array.make num_vars 0 in
  Array.iteri (fun i v -> if i < num_vars then vars.(i) <- v) input.params;
  let rng = Prng.create ~seed:input.seed in
  let call_stack = Vec.create () in
  let instr_count = ref 0 in
  let block_execs = ref 0 in
  let completed = ref false in
  let entry = (Program.main program).entry in
  Colayout_trace.Trace.push fn_trace (Program.main program).fid;
  let cur = ref entry in
  let running = ref true in
  while !running do
    if !block_execs >= input.max_blocks then running := false
    else begin
      let b = Program.block program !cur in
      Colayout_trace.Trace.push bb_trace b.id;
      incr block_execs;
      instr_count := !instr_count + b.instr_count;
      List.iter (exec_instr vars rng data_trace) b.instrs;
      match b.term with
      | Types.Jump target -> cur := target
      | Types.Branch { cond; if_true; if_false } ->
        cur := if eval_expr vars rng cond <> 0 then if_true else if_false
      | Types.Switch { sel; targets; default } ->
        let s = eval_expr vars rng sel in
        cur := if s >= 0 && s < Array.length targets then targets.(s) else default
      | Types.Call { callee; return_to } ->
        Vec.push call_stack return_to;
        Colayout_trace.Trace.push fn_trace callee;
        Int_vec.push call_trace ((b.fn * nf) + callee);
        cur := (Program.func program callee).entry
      | Types.Return -> (
        match Vec.pop call_stack with
        | Some ret -> cur := ret
        | None ->
          completed := true;
          running := false)
      | Types.Halt ->
        completed := true;
        running := false
    end
  done;
  Option.iter
    (fun m ->
      Metrics.add m "interp.runs" 1;
      Metrics.add m "interp.blocks" !block_execs;
      Metrics.add m "interp.instrs" !instr_count;
      Metrics.add m "interp.fn_events" (Colayout_trace.Trace.length fn_trace))
    metrics;
  {
    Interp.bb_trace;
    fn_trace;
    data_trace;
    call_trace;
    instr_count = !instr_count;
    block_execs = !block_execs;
    completed = !completed;
  }
