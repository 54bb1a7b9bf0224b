type 'a node = {
  value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable owner : 'a t option;
}

and 'a t = {
  mutable first : 'a node option;
  mutable last : 'a node option;
  mutable size : int;
}

let create () = { first = None; last = None; size = 0 }

let length t = t.size

let value n = n.value

let check_owner t n =
  match n.owner with
  | Some o when o == t -> ()
  | _ -> invalid_arg "Dlist: node does not belong to this list"

let push_front t v =
  let n = { value = v; prev = None; next = t.first; owner = Some t } in
  (match t.first with
  | Some f -> f.prev <- Some n
  | None -> t.last <- Some n);
  t.first <- Some n;
  t.size <- t.size + 1;
  n

let push_back t v =
  let n = { value = v; prev = t.last; next = None; owner = Some t } in
  (match t.last with
  | Some l -> l.next <- Some n
  | None -> t.first <- Some n);
  t.last <- Some n;
  t.size <- t.size + 1;
  n

let remove t n =
  check_owner t n;
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.first <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.last <- n.prev);
  n.prev <- None;
  n.next <- None;
  n.owner <- None;
  t.size <- t.size - 1

let move_to_front t n =
  check_owner t n;
  let already_front = match t.first with Some f -> f == n | None -> false in
  if not already_front then begin
    (* Unlink in place and relink at the front so that external handles to
       [n] (the hash table in stack processing) stay valid. *)
    (match n.prev with
    | Some p -> p.next <- n.next
    | None -> t.first <- n.next);
    (match n.next with
    | Some s -> s.prev <- n.prev
    | None -> t.last <- n.prev);
    n.prev <- None;
    n.next <- t.first;
    (match t.first with
    | Some f -> f.prev <- Some n
    | None -> t.last <- Some n);
    t.first <- Some n
  end

let front t = t.first

let back t = t.last

let next n = n.next

let iter f t =
  let rec loop = function
    | None -> ()
    | Some n ->
      f n.value;
      loop n.next
  in
  loop t.first

let fold f acc t =
  let acc = ref acc in
  iter (fun v -> acc := f !acc v) t;
  !acc

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)
