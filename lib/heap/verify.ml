(* Growable int vector: the snapshot stream and the BFS queue are both
   appended to without knowing the reachable set's size in advance. *)
type vec = { mutable buf : int array; mutable len : int }

let vec_create n = { buf = Array.make (max n 16) 0; len = 0 }

(* Make room for [n] more elements. *)
let reserve v n =
  if v.len + n > Array.length v.buf then begin
    let buf = Array.make (max (2 * Array.length v.buf) (v.len + n)) 0 in
    Array.blit v.buf 0 buf 0 v.len;
    v.buf <- buf
  end

type snapshot = {
  stream : int array;
      (* per object, in canonical-id order: pi, delta, the pi child
         ids, the delta data words *)
  root_ids : int array;
  n_objects : int;
  live_words : int;
}

let object_count s = s.n_objects

(* Canonical ids in BFS discovery order. Addresses inside the current
   space's [base, free) — every address a well-formed heap can hold —
   index a flat array; anything else (a corrupted pointer, a root into
   the other space) goes to a small fallback table. *)
type numbering = {
  base : int;
  ids : int array;  (* [addr - base] -> id, or -1 *)
  outside : (int, int) Hashtbl.t;
  queue : vec;  (* id -> address *)
}

let numbering heap =
  let space = Heap.from_space heap in
  let span = Semispace.used space in
  {
    base = space.Semispace.base;
    ids = Array.make span (-1);
    outside = Hashtbl.create 1;
    queue = vec_create (span / 4);
  }

let discover nb obj =
  let q = nb.queue in
  reserve q 1;
  let id = q.len in
  Array.unsafe_set q.buf id obj;
  q.len <- id + 1;
  id

let id_outside nb obj =
  match Hashtbl.find_opt nb.outside obj with
  | Some id -> id
  | None ->
    let id = discover nb obj in
    Hashtbl.add nb.outside obj id;
    id

let id_of nb obj =
  let i = obj - nb.base in
  if obj = Heap.null then -1
  else if i >= 0 && i < Array.length nb.ids then begin
    let id = Array.unsafe_get nb.ids i in
    if id >= 0 then id
    else begin
      let id = discover nb obj in
      Array.unsafe_set nb.ids i id;
      id
    end
  end
  else id_outside nb obj

let snapshot heap =
  let mem = heap.Heap.mem in
  let nb = numbering heap in
  (* BFS so that canonical ids depend only on graph shape and root order,
     not on heap addresses. *)
  let root_ids = Array.map (id_of nb) heap.Heap.roots in
  let out = vec_create (Array.length nb.ids) in
  let live = ref 0 in
  let next = ref 0 in
  while !next < nb.queue.len do
    let obj = nb.queue.buf.(!next) in
    incr next;
    let w0 = mem.(obj) in
    let pi = Header.pi w0 and delta = Header.delta w0 in
    live := !live + Header.size_of ~pi ~delta;
    reserve out (2 + pi + delta);
    let buf = out.buf and p = out.len in
    buf.(p) <- pi;
    buf.(p + 1) <- delta;
    for i = 0 to pi - 1 do
      buf.(p + 2 + i) <- id_of nb mem.(Heap.pointer_addr obj i)
    done;
    Array.blit mem (Heap.data_addr obj ~pi 0) buf (p + 2 + pi) delta;
    out.len <- p + 2 + pi + delta
  done;
  {
    stream = Array.sub out.buf 0 out.len;
    root_ids;
    n_objects = nb.queue.len;
    live_words = !live;
  }

let equal_snapshot a b =
  a.n_objects = b.n_objects && a.root_ids = b.root_ids && a.stream = b.stream

let pp_snapshot ppf s =
  Format.fprintf ppf "@[<v>roots: %a@,"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
    (Array.to_list s.root_ids);
  let pos = ref 0 in
  for id = 0 to s.n_objects - 1 do
    let pi = s.stream.(!pos) and delta = s.stream.(!pos + 1) in
    Format.fprintf ppf "#%d pi=%d delta=%d children=[%a]@," id pi delta
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
         Format.pp_print_int)
      (Array.to_list (Array.sub s.stream (!pos + 2) pi));
    pos := !pos + 2 + pi + delta
  done;
  Format.fprintf ppf "@]"

type failure =
  | Graph_mismatch of string
  | Not_compacted of string
  | Bad_state of { obj : int; state : Header.state }
  | Undecodable_header of { obj : int; word : int }
  | Dangling_pointer of { obj : int; slot : int; target : int }
  | Misaligned_pointer of { obj : int; slot : int; target : int }

let pp_failure ppf = function
  | Graph_mismatch msg -> Format.fprintf ppf "graph mismatch: %s" msg
  | Not_compacted msg -> Format.fprintf ppf "not compacted: %s" msg
  | Bad_state { obj; state } ->
    Format.fprintf ppf "object %d has state %a (expected Black)" obj
      Header.pp_state state
  | Undecodable_header { obj; word } ->
    Format.fprintf ppf "object %d has undecodable header word %#x" obj word
  | Dangling_pointer { obj; slot; target } ->
    Format.fprintf ppf "object %d slot %d points to %d outside the new space"
      obj slot target
  | Misaligned_pointer { obj; slot; target } ->
    Format.fprintf ppf
      "object %d slot %d points to %d, which is not an object start" obj slot
      target

let check_space heap =
  let space = Heap.from_space heap in
  let base = space.Semispace.base and free = space.Semispace.free in
  let mem = heap.Heap.mem in
  let exception Fail of failure in
  try
    (* Pass 1 — wall-to-wall parse: the space must decode as a contiguous
       sequence of Black objects ending exactly at [free]. The state tag
       is inspected raw first: a corrupted header may carry the invalid
       tag 3, which must surface as a failure, not an exception from the
       decoder. Object starts are marked in a bitmap (one bit per word of
       [base, free)) for pass 2. *)
    let starts = Bytes.make (((free - base) lsr 3) + 1) '\000' in
    let mark i =
      let b = Char.code (Bytes.unsafe_get starts (i lsr 3)) in
      Bytes.unsafe_set starts (i lsr 3) (Char.unsafe_chr (b lor (1 lsl (i land 7))))
    in
    let marked i =
      Char.code (Bytes.unsafe_get starts (i lsr 3)) land (1 lsl (i land 7)) <> 0
    in
    let addr = ref base in
    while !addr < free do
      let obj = !addr in
      let w0 = mem.(obj) in
      if w0 land 3 = 3 then raise (Fail (Undecodable_header { obj; word = w0 }));
      (match Header.state w0 with
      | Black -> ()
      | (White | Gray) as state -> raise (Fail (Bad_state { obj; state })));
      let size = Header.size w0 in
      if size < Header.header_words || obj + size > free then
        raise
          (Fail
             (Not_compacted
                (Printf.sprintf "object %d of size %d overruns free=%d" obj size
                   free)));
      mark (obj - base);
      addr := obj + size
    done;
    if !addr <> free then
      raise
        (Fail
           (Not_compacted (Printf.sprintf "scan ended at %d but free=%d" !addr free)));
    (* Pass 2 — pointer discipline, in address order: every non-null
       pointer must land on an object start of this space. (The weaker
       [contains] check would let a corrupted low bit slide into a
       neighbour's body and go unnoticed here; it would also let the
       snapshot BFS read from a misparsed "object".) Runs only on a
       successfully parsed space, so every size and pi is trustworthy. *)
    let addr = ref base in
    while !addr < free do
      let obj = !addr in
      let w0 = mem.(obj) in
      for slot = 0 to Header.pi w0 - 1 do
        let target = mem.(Heap.pointer_addr obj slot) in
        if target <> Heap.null then
          if not (Semispace.contains space target) then
            raise (Fail (Dangling_pointer { obj; slot; target }))
          else if target >= free || not (marked (target - base)) then
            raise (Fail (Misaligned_pointer { obj; slot; target }))
      done;
      addr := obj + Header.size w0
    done;
    Ok ()
  with Fail f -> Error f

(* Walk the heap's BFS in lockstep with [pre]'s stream and report whether
   every root id, header area length, child id and data word agrees —
   the same verdict as [equal_snapshot pre (snapshot heap)], without
   materializing the second snapshot. *)
let matches ~pre heap =
  let mem = heap.Heap.mem in
  let nb = numbering heap in
  let stream = pre.stream in
  let exception Differs in
  try
    let roots = heap.Heap.roots in
    if Array.length roots <> Array.length pre.root_ids then raise Differs;
    Array.iteri
      (fun i r -> if id_of nb r <> pre.root_ids.(i) then raise Differs)
      roots;
    let pos = ref 0 in
    let next = ref 0 in
    while !next < nb.queue.len do
      if !next >= pre.n_objects then raise Differs;
      let obj = nb.queue.buf.(!next) in
      incr next;
      let w0 = mem.(obj) in
      let pi = Header.pi w0 and delta = Header.delta w0 in
      let p = !pos in
      if stream.(p) <> pi || stream.(p + 1) <> delta then raise Differs;
      for i = 0 to pi - 1 do
        if id_of nb mem.(Heap.pointer_addr obj i) <> stream.(p + 2 + i) then
          raise Differs
      done;
      let d = p + 2 + pi and body = Heap.data_addr obj ~pi 0 in
      for i = 0 to delta - 1 do
        if mem.(body + i) <> stream.(d + i) then raise Differs
      done;
      pos := d + delta
    done;
    nb.queue.len = pre.n_objects
  with Differs -> false

let check_collection ~pre heap =
  let space = Heap.from_space heap in
  let exception Fail of failure in
  try
    (match check_space heap with Ok () -> () | Error f -> raise (Fail f));
    (* 2. Graph isomorphism with the pre-collection snapshot. Only a
       mismatch pays for the full post-collection snapshot, to name the
       object counts. *)
    if not (matches ~pre heap) then begin
      let post = snapshot heap in
      let detail =
        if pre.n_objects <> post.n_objects then
          Printf.sprintf "object count %d -> %d" pre.n_objects post.n_objects
        else "same object count but shape or data differs"
      in
      raise (Fail (Graph_mismatch detail))
    end;
    (* 3. All live words accounted for: copies exactly fill [base, free).
       (Redundant with 1+2 but cheap and catches double-copies.) *)
    if pre.live_words <> Semispace.used space then
      raise
        (Fail
           (Not_compacted
              (Printf.sprintf "live words %d but space used %d" pre.live_words
                 (Semispace.used space))));
    Ok ()
  with Fail f -> Error f
