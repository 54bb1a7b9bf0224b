type t = { degree : int }

let create ?(degree = 1) () =
  if degree <= 0 then invalid_arg "Prefetch.create";
  { degree }

let degree t = t.degree

let on_miss t cache stats line =
  for l = line + 1 to line + t.degree do
    if Set_assoc.prefetch_line cache l then Cache_stats.record_prefetch stats
  done

let none = None
