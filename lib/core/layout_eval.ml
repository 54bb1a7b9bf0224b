open Colayout_ir
module Pool = Colayout_util.Pool
module Set_assoc = Colayout_cache.Set_assoc

(* The engine splits into an immutable precompiled part (shared by clones)
   and per-instance scratch. All candidate evaluation state lives in the
   scratch: [order_buf] holds the lowered block order, [baddr] and
   [bbytes] the streaming layout geometry, and [cache] the LRU state — the
   library's one [Set_assoc] core, emptied (O(num_sets)) before each
   replay rather than reallocated. Nothing is allocated per candidate.

   A candidate whose cache sets each receive at most [assoc] distinct
   executed lines is counted without a replay (see [fit_misses]); only a
   candidate with an overfull set is replayed through the core.

   Both replay loops ([replay_candidate], and [Delta.replay] below) hand
   the core line runs rather than single lines: a block's span that abuts
   the open run, or starts on the line it ended in, extends it. A line
   fetched again right after itself is an MRU hit that changes no state,
   so dropping the repeat leaves every miss exactly [Icache.solo]'s;
   accesses are counted per block, outside the core. *)

type t = {
  (* Immutable precompiled state (shared between clones). *)
  nf : int;
  nb : int;
  line_shift : int; (* log2 line_bytes *)
  set_mask : int; (* num_sets - 1 *)
  assoc : int;
  ev : int array; (* trace events, validated block ids, in [0, ev_len) *)
  ev_len : int;
  occ : int array; (* nb: occurrences of each block in [ev] *)
  exec_blk : int array; (* the blocks with [occ > 0], ascending *)
  blk_size : int array; (* base body+terminator bytes per block *)
  blk_ft : int array; (* fallthrough target per block, or -1 *)
  blk_entry : bool array; (* is the block its function's entry? *)
  fn_off : int array; (* nf + 1: CSR offsets into fn_blocks *)
  fn_blocks : int array; (* blocks grouped by function, declaration order *)
  pool : Pool.t option;
  (* Per-instance scratch. *)
  order_buf : int array; (* nb: lowered block order of a function order *)
  baddr : int array; (* nb: per-block start address of the candidate *)
  bbytes : int array; (* nb: per-block size incl. added jumps *)
  cache : Set_assoc.t;
  seen : int array; (* max nf nb: epoch-stamped permutation check *)
  mutable seen_epoch : int;
  (* Footprint count scratch: [line_mark.(l) = mark_epoch] when line [l]
     was counted in the current pass, [set_lines.(s)] the distinct lines
     set [s] received (valid when [set_mark.(s) = mark_epoch]). *)
  line_mark : int array; (* every line a layout of the program can reach *)
  set_mark : int array; (* num_sets *)
  set_lines : int array; (* num_sets *)
  mutable mark_epoch : int;
  mutable fit_acc : int; (* line accesses of the last fitting candidate *)
  (* Per-worker engine clones for eval_batch, keyed by the pool worker
     index executing the task. A slot is filled lazily, by that worker,
     on the first candidate it actually evaluates — so a worker that
     never receives a task (n < jobs, or everything stolen away) builds
     no clone. Distinct workers touch distinct slots and the consumer
     only reads the array between batches (synchronized through the
     pool's batch completion), so the array needs no lock. *)
  mutable clones : t option array;
  (* Per-block trace touch-lists (CSR over event indices), built by the
     first delta replay of part of the trace: [touch_ev.(touch_off.(b) ..
     touch_off.(b+1)-1)] are the ascending positions of block [b] in [ev].
     Offsets from [occ], indexed by event position so a move can replay
     exactly the events that matter. *)
  mutable touch_off : int array;
  mutable touch_ev : int array;
}

let log2_exact n =
  let rec go k = if 1 lsl k = n then k else go (k + 1) in
  go 0

let create ?pool ~params program trace =
  let nf = Program.num_funcs program in
  let nb = Program.num_blocks program in
  (* A view of the trace's storage, not a copy: a trace only grows by
     [push], which never rewrites its first [ev_len] events. *)
  let events = Colayout_trace.Trace.events trace in
  let ev = Colayout_util.Int_vec.backing events in
  let ev_len = Colayout_util.Int_vec.length events in
  let occ = Array.make (max 1 nb) 0 in
  for e = 0 to ev_len - 1 do
    let bid = Array.unsafe_get ev e in
    if bid < 0 || bid >= nb then
      invalid_arg
        (Printf.sprintf "Layout_eval.create: trace event %d is not a block id of %s" bid
           (Program.name program));
    Array.unsafe_set occ bid (Array.unsafe_get occ bid + 1)
  done;
  let blk_size = Array.make (max 1 nb) 0 in
  let blk_ft = Array.make (max 1 nb) (-1) in
  let blk_entry = Array.make (max 1 nb) false in
  for bid = 0 to nb - 1 do
    let b = Program.block program bid in
    blk_size.(bid) <- b.Program.size_bytes;
    (match Program.fallthrough_target program bid with
    | Some target -> blk_ft.(bid) <- target
    | None -> ());
    blk_entry.(bid) <- (Program.func program b.Program.fn).Program.entry = bid
  done;
  let fn_off = Array.make (nf + 1) 0 in
  for fid = 0 to nf - 1 do
    fn_off.(fid + 1) <- fn_off.(fid) + Array.length (Program.func program fid).Program.blocks
  done;
  let fn_blocks = Array.make (max 1 nb) 0 in
  for fid = 0 to nf - 1 do
    Array.iteri
      (fun i bid -> fn_blocks.(fn_off.(fid) + i) <- bid)
      (Program.func program fid).Program.blocks
  done;
  let exec_blk = Array.of_seq (Seq.filter (fun bid -> occ.(bid) > 0) (Seq.init nb Fun.id)) in
  (* Every layout is at most the block bytes plus a fall-through jump and
     an entry stub per block, so no line id reaches this bound. *)
  let line_shift = log2_exact params.Colayout_cache.Params.line_bytes in
  let max_bytes = Array.fold_left ( + ) 0 blk_size + (2 * Size_model.jump_bytes * nb) in
  let num_sets = params.Colayout_cache.Params.num_sets in
  {
    nf;
    nb;
    line_shift;
    set_mask = num_sets - 1;
    assoc = params.Colayout_cache.Params.assoc;
    ev;
    ev_len;
    occ;
    exec_blk;
    blk_size;
    blk_ft;
    blk_entry;
    fn_off;
    fn_blocks;
    pool;
    order_buf = Array.make (max 1 nb) 0;
    baddr = Array.make (max 1 nb) 0;
    bbytes = Array.make (max 1 nb) 0;
    cache = Set_assoc.create params;
    seen = Array.make (max 1 (max nf nb)) 0;
    seen_epoch = 0;
    line_mark = Array.make ((max_bytes asr line_shift) + 1) 0;
    set_mark = Array.make num_sets 0;
    set_lines = Array.make num_sets 0;
    mark_epoch = 0;
    fit_acc = 0;
    clones = [||];
    touch_off = [||];
    touch_ev = [||];
  }

(* A clone shares every immutable array and gets fresh scratch; it never
   carries the pool (clones are the pool's workers, not its consumers). *)
let clone t =
  {
    t with
    pool = None;
    order_buf = Array.make (Array.length t.order_buf) 0;
    baddr = Array.make (Array.length t.baddr) 0;
    bbytes = Array.make (Array.length t.bbytes) 0;
    cache = Set_assoc.create (Set_assoc.params t.cache);
    seen = Array.make (Array.length t.seen) 0;
    seen_epoch = 0;
    line_mark = Array.make (Array.length t.line_mark) 0;
    set_mark = Array.make (Array.length t.set_mark) 0;
    set_lines = Array.make (Array.length t.set_lines) 0;
    mark_epoch = 0;
    clones = [||];
    touch_off = [||];
    touch_ev = [||];
  }

let num_funcs t = t.nf

let trace_length t = t.ev_len

(* Allocation-free permutation check: [seen] doubles as a visited-set via
   epoch stamps, so no [bool array] is created per candidate (the cost the
   seed [Layout.check_permutation] pays on every evaluation). *)
let check_perm t what n order =
  if Array.length order <> n then
    invalid_arg
      (Printf.sprintf "Layout_eval: %s order has %d entries, expected %d" what
         (Array.length order) n);
  t.seen_epoch <- t.seen_epoch + 1;
  let ep = t.seen_epoch in
  let seen = t.seen in
  for i = 0 to n - 1 do
    let v = order.(i) in
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Layout_eval: bad %s id %d" what v);
    if seen.(v) = ep then
      invalid_arg (Printf.sprintf "Layout_eval: duplicate %s id %d" what v);
    seen.(v) <- ep
  done

(* Streaming equivalent of [Layout.of_block_order]: walk the order once,
   writing each block's address and jump-adjusted size into the scratch
   geometry. Identical byte accounting — a broken fall-through edge adds
   [Size_model.jump_bytes], and [function_stubs] adds the entry stub. *)
let layout_pass_into t order ~function_stubs ~baddr ~bbytes =
  let nb = t.nb in
  let jb = Size_model.jump_bytes in
  let blk_size = t.blk_size and blk_ft = t.blk_ft and blk_entry = t.blk_entry in
  let cursor = ref 0 in
  for pos = 0 to nb - 1 do
    let bid = order.(pos) in
    let ft = Array.unsafe_get blk_ft bid in
    let needs_jump = ft >= 0 && (pos + 1 >= nb || order.(pos + 1) <> ft) in
    let stub = function_stubs && Array.unsafe_get blk_entry bid in
    let bytes =
      Array.unsafe_get blk_size bid
      + (if needs_jump then jb else 0)
      + if stub then jb else 0
    in
    Array.unsafe_set baddr bid !cursor;
    Array.unsafe_set bbytes bid bytes;
    cursor := !cursor + bytes
  done

let layout_pass t order ~function_stubs =
  layout_pass_into t order ~function_stubs ~baddr:t.baddr ~bbytes:t.bbytes

(* Sets that fit. A cold LRU set that is mapped at most [assoc] distinct
   lines over the whole trace never evicts: each of its lines misses on
   its first access and hits on every later one. So when no set of the
   candidate is mapped more distinct executed lines than it has ways, its
   misses are its distinct executed lines and its accesses are
   sum over executed blocks of occ(b) * lines(b), both without a replay.
   Returns those misses (the accesses go to [fit_acc]), or -1 at the first
   set that overflows. Adjacent blocks that share a line count it once
   through the per-line epoch mark. *)
let fit_misses t =
  t.mark_epoch <- t.mark_epoch + 1;
  let ep = t.mark_epoch in
  let mark = t.line_mark and set_mark = t.set_mark and set_lines = t.set_lines in
  let baddr = t.baddr and bbytes = t.bbytes and occ = t.occ and exec = t.exec_blk in
  let shift = t.line_shift and mask = t.set_mask and assoc = t.assoc in
  let n = Array.length exec in
  let acc = ref 0 and miss = ref 0 and i = ref 0 and over = ref false in
  while (not !over) && !i < n do
    let bid = Array.unsafe_get exec !i in
    let addr = Array.unsafe_get baddr bid in
    let first = addr asr shift in
    let last = (addr + Array.unsafe_get bbytes bid - 1) asr shift in
    acc := !acc + (Array.unsafe_get occ bid * (last - first + 1));
    for line = first to last do
      if mark.(line) <> ep then begin
        mark.(line) <- ep;
        let s = line land mask in
        let c =
          if Array.unsafe_get set_mark s = ep then Array.unsafe_get set_lines s + 1
          else begin
            Array.unsafe_set set_mark s ep;
            1
          end
        in
        Array.unsafe_set set_lines s c;
        if c > assoc then over := true;
        incr miss
      end
    done;
    incr i
  done;
  t.fit_acc <- !acc;
  if !over then -1 else !miss

let ratio ~miss ~acc = if acc = 0 then 0.0 else float_of_int miss /. float_of_int acc

(* Line expansion fused with the walk over the precompiled event array;
   accesses and misses are counted in locals. *)
let replay_candidate t =
  let cache = t.cache in
  Set_assoc.invalidate_all cache;
  let ev = t.ev and baddr = t.baddr and bbytes = t.bbytes in
  let shift = t.line_shift in
  let acc = ref 0 and miss = ref 0 in
  let run_first = ref 0 and run_last = ref (-2) in
  for e = 0 to t.ev_len - 1 do
    let bid = Array.unsafe_get ev e in
    let addr = Array.unsafe_get baddr bid in
    let first = addr asr shift in
    let last = (addr + Array.unsafe_get bbytes bid - 1) asr shift in
    acc := !acc + (last - first + 1);
    if first <> !run_last && first <> !run_last + 1 then begin
      if !run_last >= 0 then
        miss :=
          !miss + Set_assoc.access_span cache ~thread:0 ~block:0 ~first:!run_first ~last:!run_last;
      run_first := first
    end;
    run_last := last
  done;
  if !run_last >= 0 then
    miss := !miss + Set_assoc.access_span cache ~thread:0 ~block:0 ~first:!run_first ~last:!run_last;
  ratio ~miss:!miss ~acc:!acc

let simulate t =
  let fit = fit_misses t in
  if fit >= 0 then ratio ~miss:fit ~acc:t.fit_acc else replay_candidate t

let miss_ratio_of_block_order ?(function_stubs = false) t order =
  check_perm t "block" t.nb order;
  layout_pass t order ~function_stubs;
  simulate t

(* Lower a function order into [t.order_buf] (blocks of each function in
   declaration order). The result is a block permutation by construction —
   callers skip the permutation re-check. *)
let lower_into t forder =
  let order_buf = t.order_buf and fn_off = t.fn_off and fn_blocks = t.fn_blocks in
  let pos = ref 0 in
  for idx = 0 to t.nf - 1 do
    let fid = forder.(idx) in
    for j = fn_off.(fid) to fn_off.(fid + 1) - 1 do
      order_buf.(!pos) <- Array.unsafe_get fn_blocks j;
      incr pos
    done
  done

let miss_ratio_of_order t forder =
  check_perm t "function" t.nf forder;
  lower_into t forder;
  layout_pass t t.order_buf ~function_stubs:false;
  simulate t

let clones_built t =
  Array.fold_left (fun acc c -> if c = None then acc else acc + 1) 0 t.clones

(* Per-worker clone, built by the executing worker on its first task.
   Never called for a worker that evaluates nothing — the invariant
   [clones_built t <= min jobs n] that test_layout_eval asserts. *)
let clone_for t worker =
  match t.clones.(worker) with
  | Some eng -> eng
  | None ->
    let eng = clone t in
    t.clones.(worker) <- Some eng;
    eng

let eval_batch t orders =
  let n = Array.length orders in
  match t.pool with
  | Some pool when Pool.jobs pool > 1 && n > 1 ->
    (* One pool task per candidate: the work-stealing scheduler balances
       however the per-candidate costs fall, instead of committing each
       worker to a fixed contiguous chunk up front. Results are
       index-ordered by the pool and each candidate is a pure function
       of the engine's immutable precompiled state, so they are
       bit-identical to a sequential evaluation at any jobs count. *)
    let jobs = Pool.jobs pool in
    if Array.length t.clones <> jobs then t.clones <- Array.make jobs None;
    Pool.map_array_w pool
      (fun ~worker order -> miss_ratio_of_order (clone_for t worker) order)
      orders
  | _ -> Array.map (fun o -> miss_ratio_of_order t o) orders

(* ------------------------------------------------------ delta sessions *)

(* Exactness argument the whole module rests on: with set index
   [line land set_mask], the hit/miss outcome of every line access depends
   only on the subsequence of accesses that map to the same cache set,
   simulated from a cold set (each candidate starts from an emptied
   cache). Total misses therefore decompose as a sum of independent
   per-set counts. A swap/relocate changes the address mapping of some
   blocks; a set's subsequence changes only if an executed block's
   coverage of that set changed, and coverage changes only for blocks
   whose (address, size) changed. So recounting exactly the {e dirty}
   sets and splicing the new per-set counts into the running totals
   reproduces the full recompute {b bit for bit}: the same integer totals,
   hence the same float division. A set's accesses and distinct lines
   move with each changed block (its occurrences per line it leaves or
   enters); its misses are its distinct lines while those fit its ways
   (the lemma above [fit_misses]), and otherwise come from replaying the
   events of every executed block that covers it. There is no error
   bound to document because there is no error. Resync is an invariant
   audit, not error control. *)

module Delta = struct
  type stats = {
    moves : int;
    accepted : int;
    undone : int;
    resyncs : int;
    replayed_events : int;
    full_walks : int;
    dirty_blocks : int;
    dirty_sets : int;
    fit_sets : int;
  }

  type move = Swap of int * int | Relocate of int * int

  type session = {
    eng : t;
    resync_interval : int;
    forder : int array; (* nf: current function order *)
    s_baddr : int array; (* nb: current candidate geometry (pending move included) *)
    s_bbytes : int array;
    (* The current candidate's footprint, kept up to date block by block:
       [line_ref.(l)] executed blocks cover line [l], set [s] receives
       [set_lines.(s)] distinct executed lines and [set_acc.(s)] accesses
       (each covering block's occurrences, once per line of it in [s]). *)
    line_ref : int array;
    set_lines : int array; (* num_sets *)
    set_acc : int array; (* num_sets *)
    set_miss : int array; (* num_sets: per-set miss counts, from cold *)
    mutable tot_acc : int;
    mutable tot_miss : int;
    (* Dirty tracking for the (single) pending move, or for a recount. *)
    dirty_stamp : int array; (* num_sets *)
    over_stamp : int array; (* num_sets: sets with more lines than ways *)
    all_sets : int array; (* 0 .. num_sets - 1: the sets of a recount *)
    mutable stamp : int;
    (* Replay machinery, allocated when a set first overflows: a session
       whose sets all fit never needs it. [inc.(s)]'s first [inc_len.(s)]
       entries are the executed blocks covering set [s] under the
       COMMITTED geometry — a move walks its overfull sets' lists instead
       of scanning every block; maintained on {!commit} once built (an
       undone move never touches it). [relev] holds gathered event
       indices, [sort_buf] is its radix-sort ping-pong buffer. *)
    mutable inc : int array array;
    mutable inc_len : int array;
    mutable relev_stamp : int array; (* nb *)
    mutable relev_blk : int array; (* nb: blocks whose events a replay needs *)
    mutable relev : int array; (* trace_len *)
    mutable sort_buf : int array; (* trace_len *)
    sort_count : int array; (* 257: radix digit histogram / offsets *)
    sort_bits : int; (* event indices fit in this many bits (multiple of 8) *)
    (* Resync recount scratch, allocated by the first resync. *)
    mutable rs_acc : int array;
    mutable rs_lines : int array;
    mutable rs_miss : int array;
    (* Undo log: geometry and per-set counters saved before the move. *)
    mutable pending : move option;
    u_blk : int array;
    u_addr : int array;
    u_bytes : int array;
    mutable u_nblk : int;
    u_set : int array;
    u_acc : int array;
    u_miss : int array;
    mutable u_nset : int;
    (* Counters for honest benchmarking. *)
    mutable since_resync : int;
    mutable st_moves : int;
    mutable st_accepted : int;
    mutable st_undone : int;
    mutable st_resyncs : int;
    mutable st_replayed : int;
    mutable st_full_walks : int;
    mutable st_dirty_blocks : int;
    mutable st_dirty_sets : int;
    mutable st_fit_sets : int;
  }

  let build_touch_lists t =
    if Array.length t.touch_off = 0 then begin
      let nb = t.nb and ev = t.ev and len = t.ev_len in
      let off = Array.make (nb + 1) 0 in
      for b = 0 to nb - 1 do
        off.(b + 1) <- off.(b) + t.occ.(b)
      done;
      let fill = Array.make (max 1 nb) 0 in
      Array.blit off 0 fill 0 nb;
      let tev = Array.make (max 1 len) 0 in
      for e = 0 to len - 1 do
        let b = Array.unsafe_get ev e in
        tev.(fill.(b)) <- e;
        fill.(b) <- fill.(b) + 1
      done;
      t.touch_off <- off;
      t.touch_ev <- tev
    end

  (* Replay the whole trace ([all]) or the first [n] gathered relevant
     positions (ascending) under the session geometry from an emptied
     core, which counts the misses per set. Lines of sets the caller does
     not read are replayed too: under LRU a set's outcome depends only on
     its own access subsequence, so they leave every other set's count
     exact, and whole spans coalesce into long runs. *)
  let replay sess ~all ~n =
    let eng = sess.eng in
    let cache = eng.cache in
    Set_assoc.invalidate_all cache;
    let ev = eng.ev and baddr = sess.s_baddr and bbytes = sess.s_bbytes in
    let shift = eng.line_shift in
    let relev = sess.relev in
    let run_first = ref 0 and run_last = ref (-2) in
    for i = 0 to n - 1 do
      let bid = Array.unsafe_get ev (if all then i else Array.unsafe_get relev i) in
      let addr = Array.unsafe_get baddr bid in
      let first = addr asr shift in
      let last = (addr + Array.unsafe_get bbytes bid - 1) asr shift in
      if first <> !run_last && first <> !run_last + 1 then begin
        if !run_last >= 0 then
          ignore (Set_assoc.access_span cache ~thread:0 ~block:0 ~first:!run_first ~last:!run_last);
        run_first := first
      end;
      run_last := last
    done;
    if !run_last >= 0 then
      ignore (Set_assoc.access_span cache ~thread:0 ~block:0 ~first:!run_first ~last:!run_last)

  (* Sort the gathered event indices [a.(0 .. n-1)] back into trace order:
     LSD radix over byte digits (indices fit in [sort_bits] bits, so two
     passes for traces up to 64k events). Chosen over a comparison sort
     because every loop here is sequential and branch-free on the data —
     a comparison sort's data-dependent branches measured ~30x slower on
     the gathered lists, dwarfing the replay itself. Allocation-free: the
     ping-pong buffer and histogram live in the session. *)
  let radix_sort sess a n =
    if n > 1 then begin
      let count = sess.sort_count in
      let src = ref a and dst = ref sess.sort_buf in
      let shift = ref 0 in
      while !shift < sess.sort_bits do
        Array.fill count 0 257 0;
        let s = !src and sh = !shift in
        for i = 0 to n - 1 do
          let d = (Array.unsafe_get s i lsr sh) land 255 in
          Array.unsafe_set count (d + 1) (Array.unsafe_get count (d + 1) + 1)
        done;
        for d = 1 to 256 do
          count.(d) <- count.(d) + count.(d - 1)
        done;
        let t = !dst in
        for i = 0 to n - 1 do
          let v = Array.unsafe_get s i in
          let d = (v lsr sh) land 255 in
          let p = Array.unsafe_get count d in
          Array.unsafe_set t p v;
          Array.unsafe_set count d (p + 1)
        done;
        let tmp = !src in
        src := !dst;
        dst := tmp;
        shift := sh + 8
      done;
      if !src != a then Array.blit !src 0 a 0 n
    end

  (* Give each set [sets.(0 .. nsets-1)] that fits its ways ([lines.(s) <=
     assoc]) its line count as its misses, stamp the others overfull with
     the current stamp, and return how many are overfull. *)
  let classify sess ~sets ~nsets ~lines ~set_miss =
    let assoc = sess.eng.assoc and stamp = sess.stamp in
    let nover = ref 0 in
    for i = 0 to nsets - 1 do
      let s = sets.(i) in
      let l = lines.(s) in
      if l <= assoc then set_miss.(s) <- l
      else begin
        sess.over_stamp.(s) <- stamp;
        incr nover
      end
    done;
    !nover

  let ensure_relev sess =
    if Array.length sess.relev_blk = 0 then begin
      let nb = max 1 sess.eng.nb in
      sess.relev_stamp <- Array.make nb 0;
      sess.relev_blk <- Array.make nb 0
    end

  (* Does block [bid]'s current span reach a set stamped overfull? *)
  let covers_overfull sess bid =
    let eng = sess.eng in
    let addr = sess.s_baddr.(bid) in
    let line = ref (addr asr eng.line_shift) in
    let last = (addr + sess.s_bbytes.(bid) - 1) asr eng.line_shift in
    while !line <= last && sess.over_stamp.(!line land eng.set_mask) <> sess.stamp do
      incr line
    done;
    !line <= last

  (* Misses of the overfull sets among [sets.(0 .. nsets-1)]: a replay of
     the events of those blocks of [cands.(0 .. ncands-1)] that cover an
     overfull set — or of the whole trace, when those events are at least
     half of it. [cands] must list every executed block covering an
     overfull set. Work is counted in the stats for a move ([tally]), not
     for a recount. *)
  let replay_overfull sess ~cands ~ncands ~sets ~nsets ~set_miss ~tally =
    let eng = sess.eng in
    ensure_relev sess;
    (* Compacted into [relev_blk]; [cands] may be [relev_blk] itself, as
       the write index never passes the read index. *)
    let k = ref 0 and r = ref 0 in
    for i = 0 to ncands - 1 do
      let bid = cands.(i) in
      if covers_overfull sess bid then begin
        sess.relev_blk.(!k) <- bid;
        incr k;
        r := !r + eng.occ.(bid)
      end
    done;
    let len = eng.ev_len in
    let replayed =
      if 2 * !r >= len then begin
        if tally then sess.st_full_walks <- sess.st_full_walks + 1;
        replay sess ~all:true ~n:len;
        len
      end
      else begin
        build_touch_lists eng;
        if Array.length sess.relev = 0 then begin
          sess.relev <- Array.make len 0;
          sess.sort_buf <- Array.make len 0
        end;
        let pos = ref 0 in
        for i = 0 to !k - 1 do
          let bid = sess.relev_blk.(i) in
          let lo = eng.touch_off.(bid) and hi = eng.touch_off.(bid + 1) in
          Array.blit eng.touch_ev lo sess.relev !pos (hi - lo);
          pos := !pos + (hi - lo)
        done;
        radix_sort sess sess.relev !pos;
        replay sess ~all:false ~n:!pos;
        !pos
      end
    in
    if tally then sess.st_replayed <- sess.st_replayed + replayed;
    for i = 0 to nsets - 1 do
      let s = sets.(i) in
      if sess.over_stamp.(s) = sess.stamp then set_miss.(s) <- Set_assoc.set_misses eng.cache s
    done

  (* Misses of every set of the current candidate from its per-set line
     counts [lines], replaying only if a set overflows. *)
  let settle_all sess ~lines ~set_miss =
    sess.stamp <- sess.stamp + 1;
    let nsets = Array.length sess.all_sets in
    if classify sess ~sets:sess.all_sets ~nsets ~lines ~set_miss > 0 then
      replay_overfull sess ~cands:sess.eng.exec_blk ~ncands:(Array.length sess.eng.exec_blk)
        ~sets:sess.all_sets ~nsets ~set_miss ~tally:false

  let sum a =
    let acc = ref 0 in
    Array.iter (fun v -> acc := !acc + v) a;
    !acc

  (* Snapshot set [s]'s counters into the undo log the first time the
     pending move touches it, and drain them from the running totals (the
     move re-adds the fresh counts). *)
  let mark_dirty sess s =
    if sess.dirty_stamp.(s) <> sess.stamp then begin
      sess.dirty_stamp.(s) <- sess.stamp;
      let i = sess.u_nset in
      sess.u_set.(i) <- s;
      sess.u_acc.(i) <- sess.set_acc.(s);
      sess.u_miss.(i) <- sess.set_miss.(s);
      sess.u_nset <- i + 1;
      sess.tot_acc <- sess.tot_acc - sess.set_acc.(s);
      sess.tot_miss <- sess.tot_miss - sess.set_miss.(s)
    end

  (* Add ([d] = 1) or remove ([d] = -1) executed block [bid] at
     [addr, addr+bytes) from the footprint: line references, distinct
     lines and accesses per set, each line's set marked dirty first when
     [mark]. *)
  let shift_cover sess bid ~addr ~bytes ~d ~mark =
    let eng = sess.eng in
    let o = d * eng.occ.(bid) in
    let mask = eng.set_mask in
    let line_ref = sess.line_ref and set_lines = sess.set_lines and set_acc = sess.set_acc in
    for line = addr asr eng.line_shift to (addr + bytes - 1) asr eng.line_shift do
      let s = line land mask in
      if mark then mark_dirty sess s;
      set_acc.(s) <- set_acc.(s) + o;
      let r = line_ref.(line) in
      line_ref.(line) <- r + d;
      if r + d = 0 then set_lines.(s) <- set_lines.(s) - 1
      else if r = 0 then set_lines.(s) <- set_lines.(s) + 1
    done

  let inc_push sess s bid =
    let arr = sess.inc.(s) in
    let len = sess.inc_len.(s) in
    let arr =
      if len = Array.length arr then begin
        let grown = Array.make (max 4 (2 * len)) 0 in
        Array.blit arr 0 grown 0 len;
        sess.inc.(s) <- grown;
        grown
      end
      else arr
    in
    arr.(len) <- bid;
    sess.inc_len.(s) <- len + 1

  let inc_remove sess s bid =
    let arr = sess.inc.(s) and len = sess.inc_len.(s) in
    let i = ref 0 in
    while !i < len && arr.(!i) <> bid do
      incr i
    done;
    if !i >= len then
      failwith
        (Printf.sprintf
           "Layout_eval.Delta: incidence invariant broken (block %d not listed for set %d)"
           bid s);
    arr.(!i) <- arr.(len - 1);
    sess.inc_len.(s) <- len - 1

  (* Add or remove one executed block's coverage [addr, addr+bytes) from
     the per-set incidence. The two directions share the iteration so
     every (block, set) pair added is removed by the same walk: within the
     non-saturated branch consecutive lines hit distinct sets (a repeat
     needs a span of [num_sets + 1] lines, which the saturated branch
     catches), so the lists never hold duplicates. *)
  let inc_cover sess bid ~addr ~bytes ~add =
    let eng = sess.eng in
    let num_sets = eng.set_mask + 1 in
    let first = addr asr eng.line_shift in
    let last = (addr + bytes - 1) asr eng.line_shift in
    if last - first + 1 >= num_sets then
      for s = 0 to num_sets - 1 do
        if add then inc_push sess s bid else inc_remove sess s bid
      done
    else
      for line = first to last do
        let s = line land eng.set_mask in
        if add then inc_push sess s bid else inc_remove sess s bid
      done

  (* Build the incidence on first use, during a pending move: from the
     current geometry, then with the move's changed blocks put back at
     their committed coverage. *)
  let ensure_inc sess =
    if Array.length sess.inc = 0 then begin
      let eng = sess.eng in
      let num_sets = eng.set_mask + 1 in
      sess.inc <- Array.make num_sets [||];
      sess.inc_len <- Array.make num_sets 0;
      Array.iter
        (fun bid ->
          inc_cover sess bid ~addr:sess.s_baddr.(bid) ~bytes:sess.s_bbytes.(bid) ~add:true)
        eng.exec_blk;
      for i = 0 to sess.u_nblk - 1 do
        let bid = sess.u_blk.(i) in
        if eng.occ.(bid) > 0 then begin
          inc_cover sess bid ~addr:sess.s_baddr.(bid) ~bytes:sess.s_bbytes.(bid) ~add:false;
          inc_cover sess bid ~addr:sess.u_addr.(i) ~bytes:sess.u_bytes.(i) ~add:true
        end
      done
    end

  let start ?(resync_interval = 64) eng forder =
    if resync_interval <= 0 then
      invalid_arg "Layout_eval.Delta.start: resync_interval must be positive";
    check_perm eng "function" eng.nf forder;
    let nb = max 1 eng.nb in
    let num_sets = eng.set_mask + 1 in
    let sess =
      {
        eng;
        resync_interval;
        forder = Array.copy forder;
        s_baddr = Array.make nb 0;
        s_bbytes = Array.make nb 0;
        line_ref = Array.make (Array.length eng.line_mark) 0;
        set_lines = Array.make num_sets 0;
        set_acc = Array.make num_sets 0;
        set_miss = Array.make num_sets 0;
        tot_acc = 0;
        tot_miss = 0;
        dirty_stamp = Array.make num_sets 0;
        over_stamp = Array.make num_sets 0;
        all_sets = Array.init num_sets Fun.id;
        stamp = 0;
        inc = [||];
        inc_len = [||];
        relev_stamp = [||];
        relev_blk = [||];
        relev = [||];
        sort_buf = [||];
        sort_count = Array.make 257 0;
        sort_bits =
          (let bits = ref 8 in
           while (eng.ev_len - 1) asr !bits > 0 do
             bits := !bits + 8
           done;
           !bits);
        rs_acc = [||];
        rs_lines = [||];
        rs_miss = [||];
        pending = None;
        u_blk = Array.make nb 0;
        u_addr = Array.make nb 0;
        u_bytes = Array.make nb 0;
        u_nblk = 0;
        u_set = Array.make num_sets 0;
        u_acc = Array.make num_sets 0;
        u_miss = Array.make num_sets 0;
        u_nset = 0;
        since_resync = 0;
        st_moves = 0;
        st_accepted = 0;
        st_undone = 0;
        st_resyncs = 0;
        st_replayed = 0;
        st_full_walks = 0;
        st_dirty_blocks = 0;
        st_dirty_sets = 0;
        st_fit_sets = 0;
      }
    in
    lower_into eng sess.forder;
    layout_pass_into eng eng.order_buf ~function_stubs:false ~baddr:sess.s_baddr
      ~bbytes:sess.s_bbytes;
    Array.iter
      (fun bid ->
        shift_cover sess bid ~addr:sess.s_baddr.(bid) ~bytes:sess.s_bbytes.(bid) ~d:1
          ~mark:false)
      eng.exec_blk;
    settle_all sess ~lines:sess.set_lines ~set_miss:sess.set_miss;
    sess.tot_acc <- sum sess.set_acc;
    sess.tot_miss <- sum sess.set_miss;
    sess

  let miss_ratio sess = ratio ~miss:sess.tot_miss ~acc:sess.tot_acc

  let order sess = Array.copy sess.forder

  let blit_order sess dst =
    if Array.length dst <> sess.eng.nf then
      invalid_arg "Layout_eval.Delta.blit_order: destination length mismatch";
    Array.blit sess.forder 0 dst 0 sess.eng.nf

  let check_pos sess what p =
    if p < 0 || p >= sess.eng.nf then
      invalid_arg (Printf.sprintf "Layout_eval.Delta.%s: position %d out of [0,%d)" what p
           sess.eng.nf)

  let do_move sess mv =
    if sess.pending <> None then
      invalid_arg "Layout_eval.Delta: a move is already pending — commit or undo it first";
    let eng = sess.eng in
    (match mv with
    | Swap (a, b) | Relocate (a, b) ->
      let what = match mv with Swap _ -> "apply_swap" | _ -> "apply_relocate" in
      check_pos sess what a;
      check_pos sess what b;
      if a = b then
        invalid_arg (Printf.sprintf "Layout_eval.Delta.%s: positions are equal (%d)" what a));
    (match mv with
    | Swap (a, b) ->
      let v = sess.forder.(a) in
      sess.forder.(a) <- sess.forder.(b);
      sess.forder.(b) <- v
    | Relocate (a, b) ->
      let v = sess.forder.(a) in
      if a < b then Array.blit sess.forder (a + 1) sess.forder a (b - a)
      else Array.blit sess.forder b sess.forder (b + 1) (a - b);
      sess.forder.(b) <- v);
    sess.pending <- Some mv;
    sess.stamp <- sess.stamp + 1;
    sess.u_nblk <- 0;
    sess.u_nset <- 0;
    (* Segment-local geometry pass. Both moves permute only the positions
       in [p_lo, p_hi], and layout is a left-to-right fold of (cursor,
       order suffix): positions before [p_lo] are untouched except the
       last block of the function at [p_lo - 1] (its jump-byte need
       depends on the segment's new first block, though its address does
       not move), and once a function boundary past [p_hi] lands on its
       committed start address every block beyond is bit-identical — so
       the walk recomputes from [p_lo] and stops at the first such
       reconvergence. The diff is fused in: a changed block is undo-logged
       and, if the trace executes it (a block it never executes adds
       nothing to any set), moved in the footprint from its old span to
       its new one, marking both spans' sets dirty; the new geometry is
       written in place. *)
    let p_lo, p_hi =
      match mv with Swap (a, b) | Relocate (a, b) -> (min a b, max a b)
    in
    let jb = Size_model.jump_bytes in
    let fn_off = eng.fn_off and fn_blocks = eng.fn_blocks in
    let blk_size = eng.blk_size and blk_ft = eng.blk_ft in
    let diff_block bid ~addr ~bytes =
      let old_addr = sess.s_baddr.(bid) and old_bytes = sess.s_bbytes.(bid) in
      if old_addr <> addr || old_bytes <> bytes then begin
        let i = sess.u_nblk in
        sess.u_blk.(i) <- bid;
        sess.u_addr.(i) <- old_addr;
        sess.u_bytes.(i) <- old_bytes;
        sess.u_nblk <- i + 1;
        if eng.occ.(bid) > 0 then begin
          shift_cover sess bid ~addr:old_addr ~bytes:old_bytes ~d:(-1) ~mark:true;
          shift_cover sess bid ~addr ~bytes ~d:1 ~mark:true
        end;
        sess.s_baddr.(bid) <- addr;
        sess.s_bbytes.(bid) <- bytes
      end
    in
    let cursor = ref 0 in
    if p_lo > 0 then begin
      let prev_bid = fn_blocks.(fn_off.(sess.forder.(p_lo - 1) + 1) - 1) in
      let succ = fn_blocks.(fn_off.(sess.forder.(p_lo))) in
      let ft = blk_ft.(prev_bid) in
      let bytes = blk_size.(prev_bid) + if ft >= 0 && ft <> succ then jb else 0 in
      let addr = sess.s_baddr.(prev_bid) in
      diff_block prev_bid ~addr ~bytes;
      cursor := addr + bytes
    end;
    (let q = ref p_lo in
     let converged = ref false in
     while (not !converged) && !q < eng.nf do
       let f = sess.forder.(!q) in
       if !q > p_hi && !cursor = sess.s_baddr.(fn_blocks.(fn_off.(f))) then
         converged := true
       else begin
         let lo = fn_off.(f) and hi = fn_off.(f + 1) in
         for j = lo to hi - 1 do
           let bid = fn_blocks.(j) in
           let succ =
             if j + 1 < hi then fn_blocks.(j + 1)
             else if !q + 1 < eng.nf then fn_blocks.(fn_off.(sess.forder.(!q + 1)))
             else -1
           in
           let ft = blk_ft.(bid) in
           let bytes = blk_size.(bid) + if ft >= 0 && ft <> succ then jb else 0 in
           diff_block bid ~addr:!cursor ~bytes;
           cursor := !cursor + bytes
         done;
         incr q
       end
     done);
    sess.st_moves <- sess.st_moves + 1;
    sess.st_dirty_blocks <- sess.st_dirty_blocks + sess.u_nblk;
    sess.st_dirty_sets <- sess.st_dirty_sets + sess.u_nset;
    let nover =
      classify sess ~sets:sess.u_set ~nsets:sess.u_nset ~lines:sess.set_lines
        ~set_miss:sess.set_miss
    in
    sess.st_fit_sets <- sess.st_fit_sets + sess.u_nset - nover;
    if nover > 0 then begin
      (* The executed blocks covering an overfull set: the changed ones
         (all listed in the undo log) and the unchanged ones, which keep
         their committed coverage, so the incidence lists of the overfull
         sets find them — no O(num_blocks) scan. *)
      ensure_inc sess;
      ensure_relev sess;
      let nrel = ref 0 in
      let stamp = sess.stamp in
      let add_relevant bid =
        if sess.relev_stamp.(bid) <> stamp && eng.occ.(bid) > 0 then begin
          sess.relev_stamp.(bid) <- stamp;
          sess.relev_blk.(!nrel) <- bid;
          incr nrel
        end
      in
      for i = 0 to sess.u_nblk - 1 do
        add_relevant sess.u_blk.(i)
      done;
      for i = 0 to sess.u_nset - 1 do
        let s = sess.u_set.(i) in
        if sess.over_stamp.(s) = stamp then
          for j = 0 to sess.inc_len.(s) - 1 do
            add_relevant sess.inc.(s).(j)
          done
      done;
      replay_overfull sess ~cands:sess.relev_blk ~ncands:!nrel ~sets:sess.u_set
        ~nsets:sess.u_nset ~set_miss:sess.set_miss ~tally:true
    end;
    for i = 0 to sess.u_nset - 1 do
      let s = sess.u_set.(i) in
      sess.tot_acc <- sess.tot_acc + sess.set_acc.(s);
      sess.tot_miss <- sess.tot_miss + sess.set_miss.(s)
    done;
    miss_ratio sess

  let apply_swap sess a b = do_move sess (Swap (a, b))

  let apply_relocate sess a b = do_move sess (Relocate (a, b))

  let undo sess =
    match sess.pending with
    | None -> invalid_arg "Layout_eval.Delta.undo: no pending move"
    | Some mv ->
      (match mv with
      | Swap (a, b) ->
        let v = sess.forder.(a) in
        sess.forder.(a) <- sess.forder.(b);
        sess.forder.(b) <- v
      | Relocate (a, b) ->
        (* The inverse relocate: position [b] back to [a]. *)
        let v = sess.forder.(b) in
        if b < a then Array.blit sess.forder (b + 1) sess.forder b (a - b)
        else Array.blit sess.forder a sess.forder (a + 1) (b - a);
        sess.forder.(a) <- v);
      for i = 0 to sess.u_nset - 1 do
        let s = sess.u_set.(i) in
        sess.tot_acc <- sess.tot_acc - sess.set_acc.(s) + sess.u_acc.(i);
        sess.tot_miss <- sess.tot_miss - sess.set_miss.(s) + sess.u_miss.(i);
        sess.set_miss.(s) <- sess.u_miss.(i)
      done;
      (* Moving each changed block back restores the footprint exactly,
         [set_acc] included. *)
      for i = 0 to sess.u_nblk - 1 do
        let bid = sess.u_blk.(i) in
        if sess.eng.occ.(bid) > 0 then begin
          shift_cover sess bid ~addr:sess.s_baddr.(bid) ~bytes:sess.s_bbytes.(bid) ~d:(-1)
            ~mark:false;
          shift_cover sess bid ~addr:sess.u_addr.(i) ~bytes:sess.u_bytes.(i) ~d:1 ~mark:false
        end;
        sess.s_baddr.(bid) <- sess.u_addr.(i);
        sess.s_bbytes.(bid) <- sess.u_bytes.(i)
      done;
      sess.pending <- None;
      sess.st_undone <- sess.st_undone + 1

  (* Recount every set of the current candidate from its geometry alone —
     each executed block adds its occurrences to the accesses of the set
     of each of its lines, and each distinct line one to its set's line
     count; a set that fits takes that count as its misses and the
     overfull ones are replayed — then compare with the footprint and the
     ledger the moves maintain. The recount reads none of them. *)
  let resync sess =
    if sess.pending <> None then
      invalid_arg "Layout_eval.Delta.resync: commit or undo the pending move first";
    let eng = sess.eng in
    let num_sets = eng.set_mask + 1 in
    if Array.length sess.rs_acc = 0 then begin
      sess.rs_acc <- Array.make num_sets 0;
      sess.rs_lines <- Array.make num_sets 0;
      sess.rs_miss <- Array.make num_sets 0
    end;
    let rs_acc = sess.rs_acc and rs_lines = sess.rs_lines and rs_miss = sess.rs_miss in
    Array.fill rs_acc 0 num_sets 0;
    Array.fill rs_lines 0 num_sets 0;
    eng.mark_epoch <- eng.mark_epoch + 1;
    let ep = eng.mark_epoch and mark = eng.line_mark in
    Array.iter
      (fun bid ->
        let o = eng.occ.(bid) and addr = sess.s_baddr.(bid) in
        for line = addr asr eng.line_shift to (addr + sess.s_bbytes.(bid) - 1) asr eng.line_shift do
          let s = line land eng.set_mask in
          rs_acc.(s) <- rs_acc.(s) + o;
          if mark.(line) <> ep then begin
            mark.(line) <- ep;
            rs_lines.(s) <- rs_lines.(s) + 1
          end
        done)
      eng.exec_blk;
    settle_all sess ~lines:rs_lines ~set_miss:rs_miss;
    for s = 0 to num_sets - 1 do
      if
        rs_acc.(s) <> sess.set_acc.(s)
        || rs_lines.(s) <> sess.set_lines.(s)
        || rs_miss.(s) <> sess.set_miss.(s)
      then
        failwith
          (Printf.sprintf
             "Layout_eval.Delta.resync: set %d diverged (acc %d/%d, lines %d/%d, miss %d/%d) — \
              dirty-tracking invariant broken"
             s sess.set_acc.(s) rs_acc.(s) sess.set_lines.(s) rs_lines.(s) sess.set_miss.(s)
             rs_miss.(s))
    done;
    let acc = sum rs_acc and miss = sum rs_miss in
    if acc <> sess.tot_acc || miss <> sess.tot_miss then
      failwith "Layout_eval.Delta.resync: running totals diverged from the full recount";
    sess.st_resyncs <- sess.st_resyncs + 1;
    sess.since_resync <- 0;
    miss_ratio sess

  let commit sess =
    match sess.pending with
    | None -> invalid_arg "Layout_eval.Delta.commit: no pending move"
    | Some _ ->
      (* Once built, the incidence tracks the committed geometry, so fold
         the accepted move's changes in now: the undo log still holds each
         changed block's old coverage, the session geometry its new one.
         An undone move never reaches this point and leaves the lists
         untouched. *)
      if Array.length sess.inc > 0 then
        for i = 0 to sess.u_nblk - 1 do
          let bid = sess.u_blk.(i) in
          if sess.eng.occ.(bid) > 0 then begin
            inc_cover sess bid ~addr:sess.u_addr.(i) ~bytes:sess.u_bytes.(i) ~add:false;
            inc_cover sess bid ~addr:sess.s_baddr.(bid) ~bytes:sess.s_bbytes.(bid) ~add:true
          end
        done;
      sess.pending <- None;
      sess.st_accepted <- sess.st_accepted + 1;
      sess.since_resync <- sess.since_resync + 1;
      if sess.since_resync >= sess.resync_interval then ignore (resync sess)

  let stats sess =
    {
      moves = sess.st_moves;
      accepted = sess.st_accepted;
      undone = sess.st_undone;
      resyncs = sess.st_resyncs;
      replayed_events = sess.st_replayed;
      full_walks = sess.st_full_walks;
      dirty_blocks = sess.st_dirty_blocks;
      dirty_sets = sess.st_dirty_sets;
      fit_sets = sess.st_fit_sets;
    }
end
