open Colayout_ir

type result = {
  best_order : int array;
  best_miss_ratio : float;
  worst_miss_ratio : float;
  evaluated : int;
}

(* One-shot evaluation goes through a throwaway [Layout_eval] engine: same
   bit-exact result as the seed path (which lives on as a test oracle,
   [test/oracle/kernel_baseline.ml]), and the searches below share the
   amortized engine instead. *)
let miss_ratio_of_function_order ~params program trace forder =
  Layout_eval.miss_ratio_of_order (Layout_eval.create ~params program trace) forder

(* Heap's algorithm, iterative enough for our sizes: visits all n!
   permutations of [a], calling [f] on each. Stops when [f] returns false. *)
let permutations a f =
  let n = Array.length a in
  let c = Array.make n 0 in
  let continue_ = ref (f a) in
  let i = ref 0 in
  while !continue_ && !i < n do
    if c.(!i) < !i then begin
      let j = if !i mod 2 = 0 then 0 else c.(!i) in
      let tmp = a.(j) in
      a.(j) <- a.(!i);
      a.(!i) <- tmp;
      continue_ := f a;
      c.(!i) <- c.(!i) + 1;
      i := 0
    end
    else begin
      c.(!i) <- 0;
      incr i
    end
  done

let search ?max_layouts ~params program trace =
  let nf = Program.num_funcs program in
  (match max_layouts with
  | None when nf > 9 ->
    invalid_arg
      (Printf.sprintf
         "Optimal.search: %d! layouts is beyond exhaustive search; pass ~max_layouts" nf)
  | _ -> ());
  let cap = Option.value ~default:max_int max_layouts in
  if cap <= 0 then invalid_arg "Optimal.search: max_layouts must be positive";
  (* One engine for the whole walk: each permutation costs one streaming
     pass over the precompiled trace, with no per-candidate allocation. *)
  let engine = Layout_eval.create ~params program trace in
  let best_order = ref (Array.init nf Fun.id) in
  let best = ref infinity in
  let worst = ref neg_infinity in
  let evaluated = ref 0 in
  permutations (Array.init nf Fun.id) (fun forder ->
      let mr = Layout_eval.miss_ratio_of_order engine forder in
      incr evaluated;
      if mr < !best then begin
        best := mr;
        best_order := Array.copy forder
      end;
      if mr > !worst then worst := mr;
      !evaluated < cap);
  {
    best_order = !best_order;
    best_miss_ratio = !best;
    worst_miss_ratio = !worst;
    evaluated = !evaluated;
  }
