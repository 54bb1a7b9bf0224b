(* Open addressing with linear probing over two parallel int arrays.
   [empty] marks a never-used slot (probe sequences stop there), [tomb] a
   deleted one (probe sequences continue through it). Both sentinels are
   negative, which is why client keys must be non-negative. *)

let () = assert (Sys.int_size >= 63)

let max_coord = (1 lsl 31) - 1

let max_grid_universe = 2048

let pack x y = (x lsl 31) lor y

let fst_of k = k lsr 31

let snd_of k = k land max_coord

let empty = -1

let tomb = -2

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable len : int; (* live bindings *)
  mutable used : int; (* live bindings + tombstones *)
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let create ?(capacity = 16) () =
  if capacity < 0 then invalid_arg "Int_pair_tbl.create";
  (* Size for a <= 3/4 load factor at the hinted entry count. *)
  let cap = next_pow2 (max 8 (capacity + (capacity / 2))) 8 in
  { keys = Array.make cap empty; vals = Array.make cap 0; mask = cap - 1; len = 0; used = 0 }

let length t = t.len

(* splitmix64-style finalizer: full avalanche, so linear probing behaves even
   on the highly regular packed-pair keys. *)
let hash k =
  let h = k lxor (k lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Slot holding [key], or -1 when absent. The probe loops here are
   written with refs rather than local recursive functions: without
   flambda a local function capturing the table allocates a closure on
   every call. *)
let find_slot t key =
  let mask = t.mask and keys = t.keys in
  let i = ref (hash key land mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> key && !k <> empty do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  if !k = key then !i else -1

let check_key key = if key < 0 then invalid_arg "Int_pair_tbl: negative key"

let mem t key = key >= 0 && find_slot t key >= 0

let find t key ~default =
  if key < 0 then default
  else
    let i = find_slot t key in
    if i < 0 then default else Array.unsafe_get t.vals i

(* Insert [key -> v] into arrays known to contain no tombstone for [key] and
   to have room; used for both resizing and the post-lookup insert. *)
let rec insert_fresh keys vals mask key v i =
  let k = Array.unsafe_get keys i in
  if k = empty || k = tomb then begin
    Array.unsafe_set keys i key;
    Array.unsafe_set vals i v
  end
  else insert_fresh keys vals mask key v ((i + 1) land mask)

let resize t =
  (* Double when genuinely full; a same-size rebuild just clears tombstones. *)
  let cap = next_pow2 (max 8 (2 * (t.len + 1))) 8 in
  let keys = Array.make cap empty in
  let vals = Array.make cap 0 in
  let mask = cap - 1 in
  let old_keys = t.keys and old_vals = t.vals in
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k >= 0 then insert_fresh keys vals mask k (Array.unsafe_get old_vals i) (hash k land mask)
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask;
  t.used <- t.len

let maybe_grow t =
  let cap = t.mask + 1 in
  if t.used + 1 > cap - (cap / 4) then resize t

(* Slot of [key], inserting it bound to 0 when absent (into the first
   tombstone on the probe path, if any). One probe sequence; it backs
   [replace] and [add_to] too. *)
let slot t key =
  check_key key;
  maybe_grow t;
  let mask = t.mask and keys = t.keys in
  let i = ref (hash key land mask) and first_tomb = ref (-1) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> key && !k <> empty do
    if !k = tomb && !first_tomb < 0 then first_tomb := !i;
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  if !k = key then !i
  else begin
    let slot = if !first_tomb >= 0 then !first_tomb else !i in
    Array.unsafe_set keys slot key;
    Array.unsafe_set t.vals slot 0;
    t.len <- t.len + 1;
    if slot = !i then t.used <- t.used + 1;
    slot
  end

let check_slot t i =
  if i < 0 || i > t.mask || Array.unsafe_get t.keys i < 0 then invalid_arg "Int_pair_tbl: bad slot"

let slot_get t i =
  check_slot t i;
  Array.unsafe_get t.vals i

let slot_set t i v =
  check_slot t i;
  Array.unsafe_set t.vals i v

let replace t key v = Array.unsafe_set t.vals (slot t key) v

let add_to t key delta =
  let i = slot t key in
  let v = Array.unsafe_get t.vals i + delta in
  Array.unsafe_set t.vals i v;
  v

let remove t key =
  if key >= 0 then begin
    let i = find_slot t key in
    if i >= 0 then begin
      t.keys.(i) <- tomb;
      t.vals.(i) <- 0;
      t.len <- t.len - 1
    end
  end

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k >= 0 then f k (Array.unsafe_get vals i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc
