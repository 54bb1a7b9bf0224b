(* Counters are lock-free atomics so handles can be bumped concurrently
   from any domain without losing updates (hits + misses = lookups style
   invariants survive parallel fan-out). The registry hashtables and the
   timer cells are guarded by one mutex: find-or-create and timer updates
   are rare (per stage, not per event), so contention is negligible. *)

type counter = int Atomic.t

type gauge = float Atomic.t

type timer = { mutable calls : int; mutable total_ns : int64 }

(* Histograms bucket non-negative samples by binary magnitude: bucket [i]
   holds values in [2^i, 2^(i+1)) (bucket 0 also takes 0). 62 buckets
   cover every non-negative OCaml int, so an [observe] is one shift loop
   plus three atomic adds — cheap enough for per-trace ingest latency. *)
let hist_buckets = 62

type histogram = {
  buckets : int Atomic.t array;
  observations : int Atomic.t;
  total : int Atomic.t;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  timers : (string, timer) Hashtbl.t;
  hists : (string, histogram) Hashtbl.t;
  clock : unit -> int64;
  lock : Mutex.t;
}

let default_clock = Monotonic_clock.now

let create ?(clock = default_clock) () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    timers = Hashtbl.create 8;
    hists = Hashtbl.create 8;
    clock;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let find_or_create tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None ->
    let c = make () in
    Hashtbl.replace tbl name c;
    c

let counter t name = locked t (fun () -> find_or_create t.counters name (fun () -> Atomic.make 0))

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)

let count c = Atomic.get c

let add t name by = incr ~by (counter t name)

let set_gauge t name v =
  Atomic.set (locked t (fun () -> find_or_create t.gauges name (fun () -> Atomic.make 0.0))) v

let timer t name =
  locked t (fun () -> find_or_create t.timers name (fun () -> { calls = 0; total_ns = 0L }))

let make_histogram () =
  {
    buckets = Array.init hist_buckets (fun _ -> Atomic.make 0);
    observations = Atomic.make 0;
    total = Atomic.make 0;
  }

let histogram t name = locked t (fun () -> find_or_create t.hists name make_histogram)

let bucket_of v =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  if v <= 1 then 0 else go v 0

let observe h v =
  let v = if v < 0 then 0 else v in
  ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add h.observations 1);
  ignore (Atomic.fetch_and_add h.total v)

let observe_ns t name v = observe (histogram t name) v

let observations h = Atomic.get h.observations

let hist_total h = Atomic.get h.total

(* Percentiles resolve to the upper bound of the bucket holding the
   requested rank: deterministic, merge-stable, and within a factor of two
   of the true sample — all a latency SLO summary needs. *)
let percentile h p =
  let n = Atomic.get h.observations in
  if n <= 0 then 0.0
  else begin
    let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
    let rank =
      let r = int_of_float (ceil (p *. float_of_int n)) in
      if r < 1 then 1 else if r > n then n else r
    in
    let rec walk i cum =
      if i >= hist_buckets then float_of_int max_int
      else begin
        let cum = cum + Atomic.get h.buckets.(i) in
        if cum >= rank then float_of_int ((1 lsl (i + 1)) - 1) else walk (i + 1) cum
      end
    in
    walk 0 0
  end

let time t name f =
  let tm = timer t name in
  let t0 = t.clock () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Int64.sub (t.clock ()) t0 in
      let dt = if Int64.compare dt 0L < 0 then 0L else dt in
      locked t (fun () ->
          tm.calls <- tm.calls + 1;
          tm.total_ns <- Int64.add tm.total_ns dt))
    f

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t =
  locked t (fun () -> List.map (fun (k, c) -> (k, Atomic.get c)) (sorted_bindings t.counters))

let gauges t =
  locked t (fun () -> List.map (fun (k, g) -> (k, Atomic.get g)) (sorted_bindings t.gauges))

let timers t =
  locked t (fun () ->
      List.map (fun (k, x) -> (k, x.calls, x.total_ns)) (sorted_bindings t.timers))

let histograms t = locked t (fun () -> sorted_bindings t.hists)

let find_counter t name =
  locked t (fun () -> Option.map Atomic.get (Hashtbl.find_opt t.counters name))

(* Zero in place rather than clearing the tables: callers cache handles,
   and a cleared table would leave those handles updating orphaned cells. *)
let reset t =
  locked t (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c 0) t.counters;
      Hashtbl.iter (fun _ g -> Atomic.set g 0.0) t.gauges;
      Hashtbl.iter
        (fun _ x ->
          x.calls <- 0;
          x.total_ns <- 0L)
        t.timers;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.observations 0;
          Atomic.set h.total 0)
        t.hists)

(* Fold [src] into [into]: counters and timers accumulate (addition
   commutes, so folding per-domain deltas in any order gives one total);
   gauges are level readings, so the source value overwrites. Snapshot
   [src] first rather than nesting the two registry locks. *)
let merge ~into src =
  let cs = counters src and gs = gauges src and ts = timers src in
  let hs = histograms src in
  List.iter (fun (name, v) -> if v <> 0 then add into name v) cs;
  List.iter (fun (name, v) -> set_gauge into name v) gs;
  List.iter
    (fun (name, calls, total_ns) ->
      if calls > 0 || Int64.compare total_ns 0L > 0 then begin
        let tm = timer into name in
        locked into (fun () ->
            tm.calls <- tm.calls + calls;
            tm.total_ns <- Int64.add tm.total_ns total_ns)
      end)
    ts;
  (* Histograms add bucket-wise, like counters: merging per-domain deltas
     in any order gives the same distribution, so percentiles computed on
     the merged histogram equal those of the pooled samples (at bucket
     resolution). Empty source histograms create no entry. *)
  List.iter
    (fun (name, h) ->
      if Atomic.get h.observations > 0 then begin
        let dst = histogram into name in
        Array.iteri (fun i b -> ignore (Atomic.fetch_and_add dst.buckets.(i) (Atomic.get b))) h.buckets;
        ignore (Atomic.fetch_and_add dst.observations (Atomic.get h.observations));
        ignore (Atomic.fetch_and_add dst.total (Atomic.get h.total))
      end)
    hs

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str "colayout/metrics/v1");
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (gauges t)));
      ( "timers",
        Json.Obj
          (List.map
             (fun (k, calls, total_ns) ->
               ( k,
                 Json.Obj
                   [
                     ("calls", Json.Int calls);
                     ("total_ns", Json.Int (Int64.to_int total_ns));
                   ] ))
             (timers t)) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, h) ->
               let buckets =
                 Array.to_list h.buckets
                 |> List.mapi (fun i b -> (i, Atomic.get b))
                 |> List.filter (fun (_, c) -> c > 0)
                 |> List.map (fun (i, c) -> Json.Arr [ Json.Int i; Json.Int c ])
               in
               ( k,
                 Json.Obj
                   [
                     ("count", Json.Int (observations h));
                     ("total", Json.Int (hist_total h));
                     ("p50", Json.Float (percentile h 0.50));
                     ("p95", Json.Float (percentile h 0.95));
                     ("p99", Json.Float (percentile h 0.99));
                     ("buckets", Json.Arr buckets);
                   ] ))
             (histograms t)) );
    ]
