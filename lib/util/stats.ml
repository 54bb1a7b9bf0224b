let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
    let logsum =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geomean: non-positive value";
          acc +. log x)
        0.0 xs
    in
    exp (logsum /. float_of_int (List.length xs))

let stddev = function
  | [] -> 0.0
  | xs ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) *. (x -. m)) xs) in
    sqrt var

let minimum = function
  | [] -> 0.0
  | x :: xs -> List.fold_left min x xs

let maximum = function
  | [] -> 0.0
  | x :: xs -> List.fold_left max x xs

let percentile xs ~p =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    List.nth sorted (rank - 1)

let median xs = percentile xs ~p:50.0

let percent_change ~base ~v = if base = 0.0 then 0.0 else (v -. base) /. base *. 100.0

let speedup ~base ~opt = if opt = 0.0 then 1.0 else base /. opt

let pearson xs ys =
  let n = List.length xs in
  if n < 2 || n <> List.length ys then 0.0
  else begin
    let mx = mean xs and my = mean ys in
    let num =
      List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0.0 xs ys
    in
    let sx = sqrt (List.fold_left (fun a x -> a +. ((x -. mx) ** 2.0)) 0.0 xs) in
    let sy = sqrt (List.fold_left (fun a y -> a +. ((y -. my) ** 2.0)) 0.0 ys) in
    if sx = 0.0 || sy = 0.0 then 0.0 else num /. (sx *. sy)
  end

(* Average ranks with ties: sort indices by value; runs of equal values all
   receive the mean of their positions. *)
let ranks xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let idx = Array.init n Fun.id in
  Array.sort (fun a b -> compare arr.(a) arr.(b)) idx;
  let out = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && arr.(idx.(!j + 1)) = arr.(idx.(!i)) do
      incr j
    done;
    let avg = float_of_int (!i + !j) /. 2.0 +. 1.0 in
    for k = !i to !j do
      out.(idx.(k)) <- avg
    done;
    i := !j + 1
  done;
  Array.to_list out

let spearman xs ys =
  if List.length xs <> List.length ys then 0.0
  else pearson (ranks xs) (ranks ys)
