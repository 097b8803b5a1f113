(* Tests for snapshots and post-collection verification. *)

module Heap = Hsgc_heap.Heap
module Header = Hsgc_heap.Header
module Semispace = Hsgc_heap.Semispace
module Verify = Hsgc_heap.Verify
module Cheney_seq = Hsgc_core.Cheney_seq
module Workloads = Hsgc_objgraph.Workloads

(* Reference oracle: the straightforward Hashtbl/Queue/record
   implementation of snapshots and post-collection checks. The flat-array
   implementation in [Verify] must reach the same verdict, with the same
   message, on every heap. *)
module Reference = struct
  type obj_desc = {
    pi : int;
    delta : int;
    children : int array;
    data : int array;
  }

  type snapshot = { objects : obj_desc array; root_ids : int array }

  let snapshot heap =
    let ids = Hashtbl.create 1024 in
    let count = ref 0 in
    let queue = Queue.create () in
    let id_of obj =
      if obj = Heap.null then -1
      else
        match Hashtbl.find_opt ids obj with
        | Some id -> id
        | None ->
          let id = !count in
          incr count;
          Hashtbl.add ids obj id;
          Queue.add obj queue;
          id
    in
    let root_ids = Array.map id_of heap.Heap.roots in
    let descs = ref [] in
    while not (Queue.is_empty queue) do
      let obj = Queue.pop queue in
      let pi = Heap.obj_pi heap obj in
      let delta = Heap.obj_delta heap obj in
      let children = Array.init pi (fun i -> id_of (Heap.get_pointer heap obj i)) in
      let data = Array.init delta (fun i -> Heap.get_data heap obj i) in
      descs := { pi; delta; children; data } :: !descs
    done;
    { objects = Array.of_list (List.rev !descs); root_ids }

  let equal_snapshot a b = a = b

  let pp_snapshot ppf s =
    Format.fprintf ppf "@[<v>roots: %a@,"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
      (Array.to_list s.root_ids);
    Array.iteri
      (fun id d ->
        Format.fprintf ppf "#%d pi=%d delta=%d children=[%a]@," id d.pi d.delta
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
             Format.pp_print_int)
          (Array.to_list d.children))
      s.objects;
    Format.fprintf ppf "@]"

  let check_space heap =
    let space = Heap.from_space heap in
    let exception Fail of Verify.failure in
    try
      let starts = Hashtbl.create 1024 in
      let addr = ref space.Semispace.base in
      while !addr < space.Semispace.free do
        let obj = !addr in
        let w0 = Heap.header0 heap obj in
        if w0 land 3 = 3 then
          raise (Fail (Verify.Undecodable_header { obj; word = w0 }));
        (match Header.state w0 with
        | Black -> ()
        | (White | Gray) as state -> raise (Fail (Verify.Bad_state { obj; state })));
        let size = Header.size w0 in
        if size < Header.header_words || obj + size > space.Semispace.free then
          raise
            (Fail
               (Verify.Not_compacted
                  (Printf.sprintf "object %d of size %d overruns free=%d" obj size
                     space.Semispace.free)));
        Hashtbl.replace starts obj ();
        addr := obj + size
      done;
      if !addr <> space.Semispace.free then
        raise
          (Fail
             (Verify.Not_compacted
                (Printf.sprintf "scan ended at %d but free=%d" !addr
                   space.Semispace.free)));
      Hashtbl.iter
        (fun obj () ->
          let pi = Header.pi (Heap.header0 heap obj) in
          for slot = 0 to pi - 1 do
            let target = Heap.get_pointer heap obj slot in
            if target <> Heap.null then
              if not (Semispace.contains space target) then
                raise (Fail (Verify.Dangling_pointer { obj; slot; target }))
              else if not (Hashtbl.mem starts target) then
                raise (Fail (Verify.Misaligned_pointer { obj; slot; target }))
          done)
        starts;
      Ok ()
    with Fail f -> Error f

  let check_collection ~pre heap =
    let space = Heap.from_space heap in
    let exception Fail of Verify.failure in
    try
      (match check_space heap with Ok () -> () | Error f -> raise (Fail f));
      let post = snapshot heap in
      if not (equal_snapshot pre post) then begin
        let detail =
          if Array.length pre.objects <> Array.length post.objects then
            Printf.sprintf "object count %d -> %d" (Array.length pre.objects)
              (Array.length post.objects)
          else "same object count but shape or data differs"
        in
        raise (Fail (Verify.Graph_mismatch detail))
      end;
      let live =
        Array.fold_left
          (fun acc d -> acc + Header.size_of ~pi:d.pi ~delta:d.delta)
          0 pre.objects
      in
      if live <> Semispace.used space then
        raise
          (Fail
             (Verify.Not_compacted
                (Printf.sprintf "live words %d but space used %d" live
                   (Semispace.used space))));
      Ok ()
    with Fail f -> Error f
end

let alloc_exn heap ~pi ~delta =
  match Heap.alloc heap ~pi ~delta with
  | Some a -> a
  | None -> Alcotest.fail "allocation failed"

(* Two heaps with the same abstract graph built in different allocation
   orders. *)
let build_pair () =
  let build order =
    let heap = Heap.create ~semispace_words:100 in
    let mk (pi, delta) = alloc_exn heap ~pi ~delta in
    match order with
    | `Forward ->
      let r = mk (2, 1) in
      let a = mk (1, 0) in
      let b = mk (0, 2) in
      Heap.set_pointer heap r 0 a;
      Heap.set_pointer heap r 1 b;
      Heap.set_pointer heap a 0 b;
      Heap.set_data heap r 0 7;
      Heap.set_data heap b 0 8;
      Heap.set_data heap b 1 9;
      Heap.set_roots heap [| r |];
      heap
    | `Backward ->
      let b = mk (0, 2) in
      let a = mk (1, 0) in
      let r = mk (2, 1) in
      Heap.set_pointer heap r 0 a;
      Heap.set_pointer heap r 1 b;
      Heap.set_pointer heap a 0 b;
      Heap.set_data heap r 0 7;
      Heap.set_data heap b 0 8;
      Heap.set_data heap b 1 9;
      Heap.set_roots heap [| r |];
      heap
  in
  (build `Forward, build `Backward)

let test_snapshot_address_independent () =
  let h1, h2 = build_pair () in
  let s1 = Verify.snapshot h1 and s2 = Verify.snapshot h2 in
  Alcotest.(check bool) "isomorphic graphs have equal snapshots" true
    (Verify.equal_snapshot s1 s2)

let test_snapshot_detects_data_change () =
  let h1, h2 = build_pair () in
  let s1 = Verify.snapshot h1 in
  (* mutate one data word in h2's b object *)
  Heap.iter_objects h2 (Heap.from_space h2) (fun o ->
      if Heap.obj_delta h2 o = 2 then Heap.set_data h2 o 0 999);
  let s2 = Verify.snapshot h2 in
  Alcotest.(check bool) "data change detected" false (Verify.equal_snapshot s1 s2)

let test_snapshot_detects_shape_change () =
  let h1, h2 = build_pair () in
  let s1 = Verify.snapshot h1 in
  (* re-point r slot 0 at b instead of a: a becomes unreachable *)
  Heap.iter_objects h2 (Heap.from_space h2) (fun o ->
      if Heap.obj_pi h2 o = 2 then
        Heap.set_pointer h2 o 0 (Heap.get_pointer h2 o 1));
  let s2 = Verify.snapshot h2 in
  Alcotest.(check bool) "shape change detected" false (Verify.equal_snapshot s1 s2)

let test_snapshot_root_order_matters () =
  let heap = Heap.create ~semispace_words:100 in
  let a = alloc_exn heap ~pi:0 ~delta:0 in
  let b = alloc_exn heap ~pi:0 ~delta:1 in
  Heap.set_roots heap [| a; b |];
  let s1 = Verify.snapshot heap in
  Heap.set_roots heap [| b; a |];
  let s2 = Verify.snapshot heap in
  Alcotest.(check bool) "root order is part of the graph" false
    (Verify.equal_snapshot s1 s2)

let test_check_collection_ok () =
  let h, _ = build_pair () in
  let pre = Verify.snapshot h in
  ignore (Cheney_seq.collect h);
  match Verify.check_collection ~pre h with
  | Ok () -> ()
  | Error f -> Alcotest.failf "unexpected failure: %a" Verify.pp_failure f

let expect_failure ~pre heap msg =
  match Verify.check_collection ~pre heap with
  | Ok () -> Alcotest.failf "expected %s failure" msg
  | Error _ -> ()

let test_check_detects_corrupted_copy () =
  let h, _ = build_pair () in
  let pre = Verify.snapshot h in
  ignore (Cheney_seq.collect h);
  (* corrupt a data word in the new space *)
  let space = Heap.from_space h in
  Heap.iter_objects h space (fun o ->
      if Heap.obj_delta h o = 2 then Heap.set_data h o 1 31337);
  expect_failure ~pre h "graph-mismatch"

let test_check_detects_non_black () =
  let h, _ = build_pair () in
  let pre = Verify.snapshot h in
  ignore (Cheney_seq.collect h);
  let space = Heap.from_space h in
  let first = space.Semispace.base in
  Heap.set_header0 h first (Header.with_state (Heap.header0 h first) Header.Gray);
  expect_failure ~pre h "bad-state"

let test_check_detects_dangling () =
  let h, _ = build_pair () in
  let pre = Verify.snapshot h in
  ignore (Cheney_seq.collect h);
  let space = Heap.from_space h in
  (* point some pointer slot back into the old space *)
  Heap.iter_objects h space (fun o ->
      if Heap.obj_pi h o = 2 then
        Heap.set_pointer h o 0 (Heap.to_space h).Semispace.base);
  expect_failure ~pre h "dangling-pointer"

let test_check_detects_gap () =
  let h, _ = build_pair () in
  let pre = Verify.snapshot h in
  ignore (Cheney_seq.collect h);
  (* pretend more words are used than the live data *)
  let space = Heap.from_space h in
  space.Semispace.free <- space.Semispace.free + 2;
  expect_failure ~pre h "not-compacted"

let test_empty_heap_snapshot () =
  let h = Heap.create ~semispace_words:50 in
  let s = Verify.snapshot h in
  Alcotest.(check int) "no objects" 0 (Verify.object_count s);
  let pre = s in
  ignore (Cheney_seq.collect h);
  match Verify.check_collection ~pre h with
  | Ok () -> ()
  | Error f -> Alcotest.failf "empty heap should verify: %a" Verify.pp_failure f

(* --- differential: flat-array Verify vs the Reference oracle ------- *)

let verdict f =
  match f () with
  | Ok () -> "ok"
  | Error e -> Format.asprintf "%a" Verify.pp_failure e
  | exception e -> "exception " ^ Printexc.to_string e

let new_verdict ~pre heap = verdict (fun () -> Verify.check_collection ~pre heap)

let ref_verdict ~pre heap =
  verdict (fun () -> Reference.check_collection ~pre heap)

let same_snapshot ctx heap =
  let s = Verify.snapshot heap and r = Reference.snapshot heap in
  Alcotest.(check string)
    (ctx ^ ": snapshot")
    (Format.asprintf "%a" Reference.pp_snapshot r)
    (Format.asprintf "%a" Verify.pp_snapshot s);
  Alcotest.(check int)
    (ctx ^ ": object count")
    (Array.length r.Reference.objects)
    (Verify.object_count s);
  (s, r)

let objects_of heap =
  let acc = ref [] in
  Heap.iter_objects heap (Heap.from_space heap) (fun o -> acc := o :: !acc);
  Array.of_list (List.rev !acc)

(* One tampered word of a collected heap. [a] and [b] pick the victim
   and the replacement value. *)
type tamper = Header_state | Pointer_slot | Data_word | Free

let tamper_name = function
  | Header_state -> "header state"
  | Pointer_slot -> "pointer slot"
  | Data_word -> "data word"
  | Free -> "free"

let tamper heap kind a b =
  let space = Heap.from_space heap in
  let objs = objects_of heap in
  let pick pred =
    let c = List.filter pred (Array.to_list objs) in
    match c with [] -> None | _ -> Some (List.nth c (a mod List.length c))
  in
  match kind with
  | Header_state -> (
    match pick (fun _ -> true) with
    | None -> ()
    | Some o ->
      let w0 = Heap.header0 heap o in
      Heap.set_header0 heap o
        (match b mod 3 with
        | 0 -> Header.with_state w0 Header.White
        | 1 -> Header.with_state w0 Header.Gray
        | _ -> w0 lor 3))
  | Pointer_slot -> (
    match pick (fun o -> Heap.obj_pi heap o > 0) with
    | None -> ()
    | Some o ->
      let slot = b mod Heap.obj_pi heap o in
      let other = Heap.to_space heap in
      let target =
        match (b / 7) mod 5 with
        | 0 -> Heap.null
        | 1 -> objs.(b mod Array.length objs)
        | 2 -> objs.(b mod Array.length objs) + 1
        | 3 -> other.Semispace.base + (b mod Semispace.words other)
        | _ -> space.Semispace.free + (b mod 3)
      in
      Heap.set_pointer heap o slot target)
  | Data_word -> (
    match pick (fun o -> Heap.obj_delta heap o > 0) with
    | None -> ()
    | Some o ->
      let slot = b mod Heap.obj_delta heap o in
      Heap.set_data heap o slot (Heap.get_data heap o slot + 1 + (b mod 5)))
  | Free ->
    let d = 1 + (b mod 3) in
    let free =
      if a mod 2 = 0 then min space.Semispace.limit (space.Semispace.free + d)
      else max space.Semispace.base (space.Semispace.free - d)
    in
    space.Semispace.free <- free

let workloads = Array.of_list Workloads.all

let qcheck_differential =
  QCheck.Test.make ~name:"check_collection verdict matches the reference"
    ~count:200
    QCheck.(
      pair
        (triple (int_bound (Array.length workloads - 1)) (int_range 1 10_000)
           (int_bound 3))
        (pair (int_bound 1_000_000) (int_bound 1_000_000)))
    (fun ((w, seed, k), (a, b)) ->
      let heap = Workloads.build_heap ~scale:0.01 ~seed workloads.(w) in
      let pre, ref_pre = same_snapshot "pre" heap in
      ignore (Cheney_seq.collect heap);
      let clean = new_verdict ~pre heap in
      if clean <> "ok" || ref_verdict ~pre:ref_pre heap <> "ok" then
        QCheck.Test.fail_reportf "untampered heap: %s" clean;
      let kind = [| Header_state; Pointer_slot; Data_word; Free |].(k) in
      tamper heap kind a b;
      let got = new_verdict ~pre heap and want = ref_verdict ~pre:ref_pre heap in
      if got <> want then
        QCheck.Test.fail_reportf "%s seed %d, tampered %s: got %S, reference %S"
          workloads.(w).Workloads.name seed (tamper_name kind) got want;
      true)

(* A root or pointer that leaves the current space is numbered through
   the fallback table rather than the flat id array. *)
let test_fallback_outside_space () =
  (* A pointer into the other space, at a hand-written object there. *)
  let h, _ = build_pair () in
  let other = (Heap.to_space h).Semispace.base + 10 in
  Heap.set_header0 h other (Header.encode ~state:Header.White ~pi:0 ~delta:1);
  Heap.write h (other + Header.header_words) 42;
  Heap.iter_objects h (Heap.from_space h) (fun o ->
      if Heap.obj_pi h o = 1 then Heap.set_pointer h o 0 other);
  let s1, _ = same_snapshot "pointer outside" h in
  Heap.write h (other + Header.header_words) 43;
  let s2, _ = same_snapshot "pointer outside, data changed" h in
  Alcotest.(check bool) "outside object's data is serialized" false
    (Verify.equal_snapshot s1 s2);
  (* A root into the stale fromspace of a collected heap: check_space
     passes (roots are not its concern), so the isomorphism check walks
     the stray root. The stale originals still form the same graph, which
     verifies; with one of their data words changed it must fail exactly
     as the reference does. *)
  let h, _ = build_pair () in
  let pre, ref_pre = same_snapshot "pre" h in
  ignore (Cheney_seq.collect h);
  let stale = (Heap.to_space h).Semispace.base in
  Heap.set_roots h [| stale |];
  ignore (same_snapshot "root outside" h);
  Alcotest.(check string) "root outside: verdict" (ref_verdict ~pre:ref_pre h)
    (new_verdict ~pre h);
  Heap.set_data h stale 0 1234;
  ignore (same_snapshot "root outside, data changed" h);
  let got = new_verdict ~pre h in
  Alcotest.(check string) "root outside, data changed: verdict"
    (ref_verdict ~pre:ref_pre h) got;
  Alcotest.(check string) "root outside, data changed: failure"
    "graph mismatch: same object count but shape or data differs" got

let suite =
  [
    Alcotest.test_case "snapshot address independent" `Quick
      test_snapshot_address_independent;
    Alcotest.test_case "snapshot detects data change" `Quick
      test_snapshot_detects_data_change;
    Alcotest.test_case "snapshot detects shape change" `Quick
      test_snapshot_detects_shape_change;
    Alcotest.test_case "snapshot root order" `Quick test_snapshot_root_order_matters;
    Alcotest.test_case "check_collection ok" `Quick test_check_collection_ok;
    Alcotest.test_case "detects corrupted copy" `Quick test_check_detects_corrupted_copy;
    Alcotest.test_case "detects non-black object" `Quick test_check_detects_non_black;
    Alcotest.test_case "detects dangling pointer" `Quick test_check_detects_dangling;
    Alcotest.test_case "detects compaction gap" `Quick test_check_detects_gap;
    Alcotest.test_case "empty heap" `Quick test_empty_heap_snapshot;
    Alcotest.test_case "fallback numbering outside the space" `Quick
      test_fallback_outside_space;
    QCheck_alcotest.to_alcotest qcheck_differential;
  ]
