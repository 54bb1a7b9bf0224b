type t = {
  (* The 64-bit splitmix state, kept as 8 bytes rather than a boxed
     [int64] field: reading it with [Bytes.get_int64_le] and writing it
     with [set_int64_le] keep every intermediate unboxed, so a draw
     allocates nothing. *)
  state : Bytes.t;
  (* Per-instance (n, s) -> CDF memo for [zipf]. A pure cache of a
     deterministic function of the key, so it never influences drawn
     sequences — but it must live inside [t]: a process-global table would
     be shared mutable state across otherwise isolated PRNG instances (and
     a data race under Domain-parallel use). *)
  zipf_tables : (int * float, float array) Hashtbl.t;
}

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let state = Bytes.create 8 in
  Bytes.set_int64_le state 0 s;
  { state; zipf_tables = Hashtbl.create 4 }

let create ~seed = of_state (Int64.of_int seed)

(* The copy gets a fresh (empty) memo: caches are derived data, and sharing
   the table would couple the two instances through hidden mutable state. *)
let copy t = { state = Bytes.copy t.state; zipf_tables = Hashtbl.create 4 }

(* splitmix64 finalizer (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t.state 0) golden_gamma in
  Bytes.set_int64_le t.state 0 s;
  mix s

let next_int64 t = next t

let split t = of_state (mix (next t))

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Mask to 62 bits before [to_int]: [Int64.to_int] truncates modulo 2^63,
     so a 63-bit value could come out negative. *)
  let r = Int64.to_int (Int64.logand (next t) 0x3FFF_FFFF_FFFF_FFFFL) in
  r mod bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 high-quality bits -> [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int bits *. (1.0 /. 9007199254740992.0)

let bool t ~p = float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric";
  if p >= 1.0 then 0
  else
    let u = float t in
    (* Inverse CDF; [u < 1] so [log1p (-.u)] is finite. *)
    int_of_float (floor (log1p (-.u) /. log1p (-.p)))

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Prng.zipf";
  (* Rejection-inversion would be overkill for the block counts we use;
     inverse-transform over the explicit harmonic CDF is exact and the
     tables are tiny relative to trace sizes. A per-(n,s) memo avoids
     recomputing the CDF on every draw. *)
  let key = (n, s) in
  let cdf =
    match Hashtbl.find_opt t.zipf_tables key with
    | Some c -> c
    | None ->
      let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
      let total = Array.fold_left ( +. ) 0.0 weights in
      let acc = ref 0.0 in
      let c =
        Array.map
          (fun w ->
            acc := !acc +. (w /. total);
            !acc)
          weights
      in
      Hashtbl.replace t.zipf_tables key c;
      c
  in
  let u = float t in
  (* Binary search for the first index with cdf >= u. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo
