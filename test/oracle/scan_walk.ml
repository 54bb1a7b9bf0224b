open Colayout_trace
module Int_pair_tbl = Colayout_util.Int_pair_tbl

type t = {
  stk : int array;
  mutable depth : int;
}

let create ~k =
  if k < 1 then invalid_arg "Scan_walk.create: k must be >= 1";
  { stk = Array.make k 0; depth = 0 }

let clear t = t.depth <- 0

let find t x =
  let stk = t.stk and n = t.depth in
  let i = ref 0 in
  while !i < n && stk.(!i) <> x do
    incr i
  done;
  if !i < n then !i else -1

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
    stk.(i) <- stk.(i - 1)
  done;
  stk.(0) <- x

let contents t = Array.to_list (Array.sub t.stk 0 t.depth)

(* A witness cell holds (last_occ, sat) as [(last_occ lsl 31) lor sat]:
   an occurrence of [a] counts into sat(a, b) at most once. *)
let sat_mask = (1 lsl 31) - 1

let witness wit j a_occ =
  let p = wit.(j) in
  if p lsr 31 < a_occ then wit.(j) <- (a_occ lsl 31) lor ((p land sat_mask) + 1)

(* Both directions for [x] at occurrence [kx] and [y] within footprint w. *)
let witness_pair wit occ n x kx y =
  witness wit ((x * n) + y) kx;
  witness wit ((y * n) + x) occ.(y)

let ingest_digests ~trg_window ~affinity_w traces =
  let n =
    match traces with
    | [] -> invalid_arg "Scan_walk.ingest_digests: empty trace list"
    | tr :: _ -> Trace.num_symbols tr
  in
  let dir = Array.make (n * n) 0 and wit = Array.make (n * n) 0 in
  let aff = Array.make (n * n) 0 and trc = Array.make n 0 in
  let occ = Array.make n 0 and present = Array.make n 0 in
  let ws = create ~k:(min (max trg_window affinity_w) n) in
  let stk = ws.stk in
  List.iter
    (fun tr ->
      clear ws;
      let np = ref 0 and last = ref (-1) in
      Trace.iter
        (fun x ->
          if x <> !last then begin
            last := x;
            occ.(x) <- occ.(x) + 1;
            let kx = occ.(x) in
            if kx = 1 then begin
              present.(!np) <- x;
              incr np
            end;
            let pos = find ws x and depth = ws.depth in
            let ntrg = if pos >= 0 && pos < trg_window then pos else 0 in
            for i = 0 to ntrg - 1 do
              let j = (x * n) + stk.(i) in
              dir.(j) <- dir.(j) + 1
            done;
            let above = min (if pos >= 0 then pos else depth) (affinity_w - 1) in
            for i = 0 to above - 1 do
              witness_pair wit occ n x kx stk.(i)
            done;
            let below = if pos >= 0 then min depth affinity_w else 0 in
            for i = pos + 1 to below - 1 do
              witness_pair wit occ n x kx stk.(i)
            done;
            move_to_front ws ~pos x
          end)
        tr;
      (* Close the trace: its symbols gain a trace, its saturated pairs an
         affine trace, and its witness cells and counts go back to 0. *)
      for i = 0 to !np - 1 do
        let a = present.(i) in
        trc.(a) <- trc.(a) + 1;
        for j = i + 1 to !np - 1 do
          let b = present.(j) in
          let ab = (a * n) + b and ba = (b * n) + a in
          if wit.(ab) land sat_mask = occ.(a) && wit.(ba) land sat_mask = occ.(b) then begin
            let k = if a < b then ab else ba in
            aff.(k) <- aff.(k) + 1
          end;
          wit.(ab) <- 0;
          wit.(ba) <- 0
        done
      done;
      for i = 0 to !np - 1 do
        occ.(present.(i)) <- 0
      done)
    traces;
  let edges = ref [] and affine = ref [] in
  for a = n - 1 downto 0 do
    for b = n - 1 downto a + 1 do
      let w = dir.((a * n) + b) + dir.((b * n) + a) in
      if w > 0 then edges := (a, b, w) :: !edges;
      if trc.(a) > 0 && trc.(a) = trc.(b) && aff.((a * n) + b) = trc.(a) then
        affine := Int_pair_tbl.pack a b :: !affine
    done
  done;
  Colayout.Ingest.consensus_digests
    {
      Colayout.Ingest.trg = Colayout.Trg.of_edges ~num_nodes:n !edges;
      affine = Array.of_list !affine;
    }
