open Colayout_util

type pending_block = {
  bid : Types.block_id;
  pfn : Types.func_id;
  bname : string;
  mutable instrs : Types.instr list;
  mutable term : Types.terminator;
}

type pending_func = {
  pfid : Types.func_id;
  pfname : string;
  mutable pblocks : Types.block_id list; (* reversed declaration order *)
}

type t = {
  name : string;
  funcs : pending_func Vec.t;
  blocks : pending_block Vec.t;
  mutable main : Types.func_id;
}

let create ~name () = { name; funcs = Vec.create (); blocks = Vec.create (); main = 0 }

let func t fname =
  let pfid = Vec.length t.funcs in
  Vec.push t.funcs { pfid; pfname = fname; pblocks = [] };
  pfid

let block t pfn bname =
  if pfn < 0 || pfn >= Vec.length t.funcs then invalid_arg "Builder.block: bad func id";
  let bid = Vec.length t.blocks in
  Vec.push t.blocks { bid; pfn; bname; instrs = []; term = Types.Halt };
  let f = Vec.get t.funcs pfn in
  f.pblocks <- bid :: f.pblocks;
  bid

let set_body t bid instrs term =
  if bid < 0 || bid >= Vec.length t.blocks then invalid_arg "Builder.set_body: bad block id";
  let b = Vec.get t.blocks bid in
  b.instrs <- instrs;
  b.term <- term

let set_main t fid =
  if fid < 0 || fid >= Vec.length t.funcs then invalid_arg "Builder.set_main: bad func id";
  t.main <- fid

let block_of_pending (pb : pending_block) : Program.block =
  let body_bytes = List.fold_left (fun acc i -> acc + Size_model.instr_bytes i) 0 pb.instrs in
  let body_count = List.fold_left (fun acc i -> acc + Size_model.instr_count i) 0 pb.instrs in
  {
    id = pb.bid;
    fn = pb.pfn;
    name = pb.bname;
    instrs = pb.instrs;
    term = pb.term;
    size_bytes = body_bytes + Size_model.terminator_bytes pb.term;
    instr_count = body_count + Size_model.terminator_instr_count pb.term;
  }

let func_of_pending (pf : pending_func) : Program.func =
  let blocks = Array.of_list (List.rev pf.pblocks) in
  let entry =
    match Array.length blocks with
    | 0 -> invalid_arg (Printf.sprintf "Builder: function %s has no blocks" pf.pfname)
    | _ -> blocks.(0)
  in
  { fid = pf.pfid; fname = pf.pfname; entry; blocks }

let finish_unchecked t =
  let funcs = Array.map func_of_pending (Vec.to_array t.funcs) in
  let blocks = Array.map block_of_pending (Vec.to_array t.blocks) in
  Program.unsafe_make ~name:t.name ~funcs ~blocks ~main:t.main

let finish t =
  let p = finish_unchecked t in
  Validate.check p;
  p
