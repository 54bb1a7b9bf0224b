type t = {
  l1i : Set_assoc.t;
  l1d : Set_assoc.t;
  l2 : Set_assoc.t;
  l1i_stats : Cache_stats.t;
  l1d_stats : Cache_stats.t;
  l2_stats : Cache_stats.t;
  mutable l2_instr_misses : int;
  mutable l2_data_misses : int;
}

let default_l1d = Params.make ~size_bytes:(32 * 1024) ~assoc:8 ~line_bytes:64

let default_l2 = Params.make ~size_bytes:(256 * 1024) ~assoc:8 ~line_bytes:64

let create ?(l1i = Params.default_l1i) ?(l1d = default_l1d) ?(l2 = default_l2)
    ?l1i_sink ?(threads = 1) () =
  {
    l1i = Set_assoc.create ?sink:l1i_sink l1i;
    l1d = Set_assoc.create l1d;
    l2 = Set_assoc.create l2;
    l1i_stats = Cache_stats.create ~threads ();
    l1d_stats = Cache_stats.create ~threads ();
    l2_stats = Cache_stats.create ~threads ();
    l2_instr_misses = 0;
    l2_data_misses = 0;
  }

(* L2 is unified: keep instruction and data lines apart with a space bit. *)
let l2_line ~is_instr line = (line lsl 1) lor if is_instr then 1 else 0

let access_l2 t ~thread ~is_instr line =
  let hit = Set_assoc.access_line t.l2 ~thread ~block:(-1) (l2_line ~is_instr line) in
  Cache_stats.record t.l2_stats ~thread ~hit;
  if not hit then
    if is_instr then t.l2_instr_misses <- t.l2_instr_misses + 1
    else t.l2_data_misses <- t.l2_data_misses + 1

let access_instr ?(block = -1) t ~thread ~line =
  let hit = Set_assoc.access_line t.l1i ~thread ~block line in
  Cache_stats.record t.l1i_stats ~thread ~hit;
  if not hit then access_l2 t ~thread ~is_instr:true line

let access_data t ~thread ~addr =
  if addr < 0 then invalid_arg "Hierarchy.access_data: negative address";
  let line = addr / (Set_assoc.params t.l1d).Params.line_bytes in
  let hit = Set_assoc.access_line t.l1d ~thread ~block:(-1) line in
  Cache_stats.record t.l1d_stats ~thread ~hit;
  if not hit then access_l2 t ~thread ~is_instr:false line

(* Stats accessors sync the eviction totals from the cache models, so a
   snapshot taken at any point carries all four counters. *)
let l1i_stats t =
  Cache_stats.set_evictions t.l1i_stats (Set_assoc.evictions t.l1i);
  t.l1i_stats

let l1d_stats t =
  Cache_stats.set_evictions t.l1d_stats (Set_assoc.evictions t.l1d);
  t.l1d_stats

let l2_stats t =
  Cache_stats.set_evictions t.l2_stats (Set_assoc.evictions t.l2);
  t.l2_stats

let l2_instr_misses t = t.l2_instr_misses

let l2_data_misses t = t.l2_data_misses
