(** The per-line instruction-cache replay, kept as the differential oracle
    for {!Colayout_cache.Icache}. Test-only.

    It drives the library's LRU core one {!Colayout_cache.Set_assoc.access_line}
    call per line, with a cursor per co-run thread and the next-line
    prefetcher's fills after each miss: the co-run loop [Icache.shared]
    ran before its trace loops moved into {!Colayout_cache.Set_assoc.corun},
    and the per-line loop [Icache.solo] ran with a prefetcher (used here
    for every solo replay) before {!Colayout_cache.Set_assoc.replay}. The
    library must agree with it on every {!Colayout_cache.Cache_stats}
    counter and on every sink report. Rates are not checked here.

    With [cache], the replay runs in that cache (warm or cold; [sink] is
    then ignored, the cache's own sink reports) and the returned
    evictions are its running total. [peer_offset] is thread 1's line
    offset (default [2^40], as in [Icache.shared]); 0 makes the two
    threads share lines. *)

val solo :
  ?prefetch:Colayout_cache.Prefetch.t ->
  ?sink:Colayout_cache.Profile_sink.t ->
  ?cache:Colayout_cache.Set_assoc.t ->
  params:Colayout_cache.Params.t ->
  layout:Colayout_cache.Icache.layout ->
  Colayout_util.Int_vec.t ->
  Colayout_cache.Cache_stats.t

val shared :
  ?prefetch:Colayout_cache.Prefetch.t ->
  ?sink:Colayout_cache.Profile_sink.t ->
  ?cache:Colayout_cache.Set_assoc.t ->
  ?peer_offset:int ->
  ?rates:float * float ->
  params:Colayout_cache.Params.t ->
  layouts:Colayout_cache.Icache.layout * Colayout_cache.Icache.layout ->
  Colayout_util.Int_vec.t * Colayout_util.Int_vec.t ->
  Colayout_cache.Cache_stats.t
