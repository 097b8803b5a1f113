(* The benchmark's own tests, on tiny graphs and a single pass. *)

open E2ebench
module Heap = Hsgc_heap.Heap

(* dune runs the test from its build directory, next to the copied
   benchmark definition one level up. *)
let definition = Filename.concat Filename.parent_dir_name "BENCHMARK.json"

let workload name =
  match Pipeline.find name with Some w -> w | None -> Alcotest.fail name

let run ?lanes ?tamper ?(trace = false) ?(seed = 7) name =
  Run.run
    (Run.config ~scale:0.05 ?lanes ?tamper ~min_passes:1 ~seed
       ~seconds:0.0 ~trace (workload name))

let simulated (r : Run.result) =
  List.filter_map
    (fun (m : Run.metric) ->
      if m.Run.base = Run.Simulated then Some (m.Run.name, m.Run.value) else None)
    r.Run.metrics

let check_clean (r : Run.result) =
  Alcotest.(check int) "no failed collection" 0 r.Run.failed;
  Alcotest.(check int) "no failed check" 0 r.Run.checks_failed

let names = List.map (fun (w : Pipeline.workload) -> w.Pipeline.name) Pipeline.workloads

let test_same_seed () =
  List.iter
    (fun name ->
      let a = run ~trace:true name and b = run ~trace:true name in
      check_clean a;
      check_clean b;
      Alcotest.(check string) (name ^ " digest") a.Run.digest b.Run.digest;
      Alcotest.(check (list (pair string (float 0.0))))
        (name ^ " simulated metrics") (simulated a) (simulated b);
      let u = run name in
      check_clean u;
      Alcotest.(check string) (name ^ " traced = untraced digest") a.Run.digest u.Run.digest;
      Alcotest.(check (float 0.0)) (name ^ " traced = untraced sim_mcycles")
        a.Run.sim_mcycles u.Run.sim_mcycles)
    names

let test_seed_matters () =
  let a = run ~seed:1 "latency-bound" and b = run ~seed:2 "latency-bound" in
  Alcotest.(check bool) "distinct seeds, distinct graphs" false (a.Run.digest = b.Run.digest);
  let seeds =
    List.init 4 (fun pass ->
        List.init 3 (fun point -> Pipeline.collection_seed ~seed:1 ~pass ~point))
    |> List.concat
  in
  Alcotest.(check int) "every collection seed distinct" (List.length seeds)
    (List.length (List.sort_uniq compare seeds))

let test_banked_lanes () =
  let one = run ~lanes:1 "banked" and two = run ~lanes:2 "banked" in
  check_clean one;
  check_clean two;
  Alcotest.(check int) "lanes recorded" 2 two.Run.lanes;
  Alcotest.(check string) "banked digest at 1 and 2 lanes" one.Run.digest two.Run.digest

(* Flip one data word of the collected heap: verification must catch it,
   and the run must count it instead of aborting. *)
let corrupt heap =
  let space = Heap.from_space heap in
  let hit = ref false in
  Heap.iter_objects heap space (fun obj ->
      if (not !hit) && Heap.obj_delta heap obj > 0 then begin
        hit := true;
        Heap.set_data heap obj 0 (Heap.get_data heap obj 0 + 1)
      end)

let test_corruption_counted () =
  List.iter
    (fun name ->
      let r = run ~tamper:(fun coll heap -> if coll = 1 then corrupt heap) name in
      Alcotest.(check int) (name ^ " one failed collection") 1 r.Run.failed;
      let frac =
        List.find (fun (m : Run.metric) -> m.Run.name = "failed_frac") r.Run.extra
      in
      Alcotest.(check (float 1e-12)) (name ^ " failed_frac")
        (1.0 /. float_of_int r.Run.attempted)
        frac.Run.value)
    [ "dense-contended"; "banked" ]

(* The (name, unit) pairs BENCHMARK.json declares in its "end_to_end" or
   "per_layer" list: among the string literals from the list's key to
   its closing bracket, the values that follow the "name" and "unit"
   keys, paired in order. *)
let declared ~trace =
  let text = Run.read_file definition in
  let key = if trace then "\"per_layer\"" else "\"end_to_end\"" in
  let rec find i =
    if String.sub text i (String.length key) = key then i else find (i + 1)
  in
  let start = find 0 in
  let stop = String.index_from text start ']' in
  let rec strings i acc =
    match String.index_from_opt text i '"' with
    | Some a when a < stop ->
      let b = String.index_from text (a + 1) '"' in
      strings (b + 1) (String.sub text (a + 1) (b - a - 1) :: acc)
    | _ -> List.rev acc
  in
  let rec after k = function
    | x :: v :: rest when x = k -> v :: after k rest
    | _ :: rest -> after k rest
    | [] -> []
  in
  let l = strings (start + String.length key) [] in
  List.combine (after "name" l) (after "unit" l)

let test_names_match_definition () =
  List.iter
    (fun trace ->
      let expected = List.sort compare (declared ~trace) in
      List.iter
        (fun name ->
          let r = run ~trace name in
          let printed =
            List.sort compare
              (List.map (fun (m : Run.metric) -> (m.Run.name, m.Run.unit_)) r.Run.metrics)
          in
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s trace=%b" name trace) expected printed)
        names)
    [ false; true ]

let test_spans () =
  let s = Spans.create ~on:true in
  Spans.collection s 0 (fun () ->
      Spans.span s "a" (fun () -> Spans.span s "b" ignore);
      Spans.span s "c" ignore);
  Alcotest.(check int) "four spans" 4 (Spans.count s);
  let self = Spans.self_ns s in
  let total = Array.fold_left ( + ) 0 self in
  Alcotest.(check int) "self times sum to the root span" (Spans.dur s 0) total;
  let _, ok = Spans.identity s ~rel:1.0 ~abs_ns:0 in
  Alcotest.(check bool) "identity within tolerance" true ok

let () =
  Alcotest.run "e2ebench"
    [
      ( "e2ebench",
        [
          Alcotest.test_case "same seed, same simulation" `Quick test_same_seed;
          Alcotest.test_case "seeds derive distinct graphs" `Quick test_seed_matters;
          Alcotest.test_case "banked digest lane-independent" `Quick test_banked_lanes;
          Alcotest.test_case "corrupted heap counted" `Quick test_corruption_counted;
          Alcotest.test_case "metric names match definition" `Quick
            test_names_match_definition;
          Alcotest.test_case "span self times" `Quick test_spans;
        ] );
    ]
