open Colayout_util

type result = {
  order : int array;
  miss_ratio : float;
  steps : int;
  improved_from : float;
}

(* Move application in place: a swap of positions [a]/[b], or a relocate of
   position [a] to position [b] with the gap shifted over. Both are their
   own undo with the roles reversed. *)
let apply_swap order a b =
  let v = order.(a) in
  order.(a) <- order.(b);
  order.(b) <- v

let apply_relocate order a b =
  let v = order.(a) in
  if a < b then Array.blit order (a + 1) order a (b - a)
  else Array.blit order b order (b + 1) (a - b);
  order.(b) <- v

(* The shared proposal draw: position [a] uniform, then [b <> a] — uniform
   over all positions (the PR-5 stream, unchanged), or within [max_span]
   positions of [a] for the local-refinement neighbourhood the delta
   engine thrives on. With [nf >= 2] (and [max_span >= 1]) the redraw
   window always holds a value other than [a], so the loop terminates;
   degenerate inputs never reach it (the searches return the trivial order
   for [nf <= 1] before drawing anything). *)
let draw_pair rng nf ~max_span =
  let a = Prng.int rng nf in
  let b =
    match max_span with
    | None ->
      let b = ref (Prng.int rng nf) in
      while !b = a do
        b := Prng.int rng nf
      done;
      !b
    | Some span ->
      let lo = max 0 (a - span) and hi = min (nf - 1) (a + span) in
      let b = ref (Prng.int_in rng ~lo ~hi) in
      while !b = a do
        b := Prng.int_in rng ~lo ~hi
      done;
      !b
  in
  (a, b)

let start_order what nf = function
  | None -> Array.init nf Fun.id
  | Some o ->
    if Array.length o <> nf then
      invalid_arg (Printf.sprintf "Anneal.%s: initial order length mismatch" what);
    Array.copy o

let check_steps what steps =
  if steps <= 0 then invalid_arg (Printf.sprintf "Anneal.%s: steps must be positive" what)

let check_max_span what = function
  | Some span when span <= 0 ->
    invalid_arg (Printf.sprintf "Anneal.%s: max_span must be positive" what)
  | _ -> ()

(* Temperature scaled to the objective (miss ratios live in [0,1]);
   geometric decay reaches ~1e-3 of the start by the last step. *)
let t0 = 0.02

let decay_of steps = exp (log 1e-3 /. float_of_int steps)

(* Metropolis acceptance: downhill always, uphill with the Boltzmann
   probability (one [Prng.float] draw, only when the move is uphill). *)
let accept rng ~cur_mr ~temp mr =
  mr <= cur_mr || Prng.float rng < exp ((cur_mr -. mr) /. Float.max 1e-9 temp)

let search ?(seed = 1) ?(steps = 300) ?initial ?max_span ~params program trace =
  check_steps "search" steps;
  check_max_span "search" max_span;
  let nf = Colayout_ir.Program.num_funcs program in
  let best = start_order "search" nf initial in
  let engine = Layout_eval.create ~params program trace in
  let initial_mr = Layout_eval.miss_ratio_of_order engine best in
  (* Degenerate universes (0 or 1 function) have exactly one layout: return
     it before any proposal machinery spins on an empty neighbourhood. *)
  if nf < 2 then { order = best; miss_ratio = initial_mr; steps; improved_from = initial_mr }
  else begin
    let rng = Prng.create ~seed in
    (* The session copies the start order and owns the current one;
       [best] is overwritten only on improvement. *)
    let sess = Layout_eval.Delta.start engine best in
    let cur_mr = ref initial_mr and best_mr = ref initial_mr in
    let decay = decay_of steps and temp = ref t0 in
    for _ = 1 to steps do
      let a, b = draw_pair rng nf ~max_span in
      let mr =
        if Prng.bool rng ~p:0.5 then Layout_eval.Delta.apply_swap sess a b
        else Layout_eval.Delta.apply_relocate sess a b
      in
      if accept rng ~cur_mr:!cur_mr ~temp:!temp mr then begin
        Layout_eval.Delta.commit sess;
        cur_mr := mr;
        if mr < !best_mr then begin
          best_mr := mr;
          Layout_eval.Delta.blit_order sess best
        end
      end
      else Layout_eval.Delta.undo sess;
      temp := !temp *. decay
    done;
    { order = best; miss_ratio = !best_mr; steps; improved_from = initial_mr }
  end

let search_batch ?(seed = 1) ?(steps = 60) ?(width = 8) ?initial ?max_span engine =
  check_steps "search_batch" steps;
  if width <= 0 then invalid_arg "Anneal.search_batch: width must be positive";
  check_max_span "search_batch" max_span;
  let nf = Layout_eval.num_funcs engine in
  let current = start_order "search_batch" nf initial in
  let initial_mr = Layout_eval.miss_ratio_of_order engine current in
  if nf < 2 then
    { order = current; miss_ratio = initial_mr; steps = 1; improved_from = initial_mr }
  else begin
    let rng = Prng.create ~seed in
    let best = Array.copy current in
    let cur_mr = ref initial_mr and best_mr = ref initial_mr in
    let decay = decay_of steps and temp = ref t0 in
    let cands = Array.init width (fun _ -> Array.make nf 0) in
    for _ = 1 to steps do
      for c = 0 to width - 1 do
        let a, b = draw_pair rng nf ~max_span in
        let cand = cands.(c) in
        Array.blit current 0 cand 0 nf;
        if Prng.bool rng ~p:0.5 then apply_swap cand a b else apply_relocate cand a b
      done;
      let ratios = Layout_eval.eval_batch engine cands in
      let pick = ref 0 in
      for c = 1 to width - 1 do
        if ratios.(c) < ratios.(!pick) then pick := c
      done;
      let mr = ratios.(!pick) in
      if accept rng ~cur_mr:!cur_mr ~temp:!temp mr then begin
        Array.blit cands.(!pick) 0 current 0 nf;
        cur_mr := mr;
        if mr < !best_mr then begin
          best_mr := mr;
          Array.blit current 0 best 0 nf
        end
      end;
      temp := !temp *. decay
    done;
    { order = best; miss_ratio = !best_mr; steps = 1 + (steps * width); improved_from = initial_mr }
  end
