(* The per-line [Icache] replay the library used before its trace loops
   moved into [Set_assoc.replay]/[Set_assoc.corun], kept as the
   differential oracle for them: one [Set_assoc.access_line] call per line,
   a cursor record per co-run thread, and the next-line prefetcher's fills
   after each miss. Beyond the code moving, [Prefetch.on_miss] is inlined
   (as [on_miss]), the solo replay always takes the per-line loop (the
   library's old solo path took it only with a prefetcher), and the rate
   check is dropped: the library checks rates before either path runs.
   Two parameters serve the boundary tests of the indexed replays: [cache]
   replays into a given (possibly warm) cache instead of a fresh one, and
   [peer_offset] moves thread 1's lines (default 2^40, as [Icache]). *)

open Colayout_util
open Colayout_cache

type layout = Icache.layout

let lines_of_block ~params ~(layout : layout) bid =
  Params.lines_spanned params ~addr:layout.Icache.addr.(bid) ~bytes:layout.Icache.bytes.(bid)

let on_miss p cache stats line =
  for l = line + 1 to line + Prefetch.degree p do
    if Set_assoc.prefetch_line cache l then Cache_stats.record_prefetches stats 1
  done

let access prefetch cache stats ~thread ~block line =
  let hit = Set_assoc.access_line cache ~thread ~block line in
  Cache_stats.record stats ~thread ~hit;
  match prefetch with
  | Some p when not hit -> on_miss p cache stats line
  | _ -> ()

let solo ?prefetch ?sink ?cache ~params ~layout trace =
  let cache = match cache with Some c -> c | None -> Set_assoc.create ?sink params in
  let stats = Cache_stats.create ~threads:1 () in
  Int_vec.iter
    (fun bid ->
      let first, last = lines_of_block ~params ~layout bid in
      for line = first to last do
        access prefetch cache stats ~thread:0 ~block:bid line
      done)
    trace;
  Cache_stats.set_evictions stats (Set_assoc.evictions cache);
  stats

(* One SMT hardware thread's walk over its block trace, exposed one cache
   line at a time; [cursor_next] returns -1 only for an empty trace. *)
type cursor = {
  trace : Int_vec.t;
  layout : layout;
  line_offset : int;
  mutable pos : int; (* index into trace *)
  mutable cur_block : int; (* block the next line belongs to *)
  mutable cur_line : int; (* next line to fetch *)
  mutable last_line : int; (* last line of current block *)
  mutable in_block : bool;
  mutable passes : int;
}

let cursor_make trace layout ~line_offset =
  {
    trace;
    layout;
    line_offset;
    pos = 0;
    cur_block = -1;
    cur_line = 0;
    last_line = -1;
    in_block = false;
    passes = 0;
  }

let rec cursor_next ~params c =
  if c.in_block && c.cur_line <= c.last_line then begin
    let l = c.cur_line in
    c.cur_line <- l + 1;
    l + c.line_offset
  end
  else if c.pos < Int_vec.length c.trace then begin
    let bid = Int_vec.get c.trace c.pos in
    c.pos <- c.pos + 1;
    let first, last = lines_of_block ~params ~layout:c.layout bid in
    c.cur_block <- bid;
    c.cur_line <- first;
    c.last_line <- last;
    c.in_block <- true;
    cursor_next ~params c
  end
  else begin
    (* Completed a pass; restart so the peer keeps creating contention. *)
    c.passes <- c.passes + 1;
    if Int_vec.length c.trace = 0 then -1
    else begin
      c.pos <- 0;
      c.in_block <- false;
      cursor_next ~params c
    end
  end

let shared ?prefetch ?sink ?cache ?(peer_offset = 1 lsl 40) ?(rates = (1.0, 1.0)) ~params ~layouts
    (t0, t1) =
  let r0, r1 = rates in
  let l0, l1 = layouts in
  let cache = match cache with Some c -> c | None -> Set_assoc.create ?sink params in
  let stats = Cache_stats.create ~threads:2 () in
  let offset_lines = peer_offset in
  let c0 = cursor_make t0 l0 ~line_offset:0 in
  let c1 = cursor_make t1 l1 ~line_offset:offset_lines in
  let finished c = c.passes >= 1 in
  let step cursor ~thread =
    let line = cursor_next ~params cursor in
    if line >= 0 then access prefetch cache stats ~thread ~block:cursor.cur_block line
  in
  let credit0 = ref 0.0 and credit1 = ref 0.0 in
  while not (finished c0 && finished c1) do
    credit0 := !credit0 +. r0;
    credit1 := !credit1 +. r1;
    while !credit0 >= 1.0 do
      credit0 := !credit0 -. 1.0;
      step c0 ~thread:0
    done;
    while !credit1 >= 1.0 do
      credit1 := !credit1 -. 1.0;
      step c1 ~thread:1
    done
  done;
  Cache_stats.set_evictions stats (Set_assoc.evictions cache);
  stats
