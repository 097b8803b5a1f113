(* The banked variant machine (Hsgc_coproc.Banked): the configuration
   rules, then the load-bearing property — the differential
   semantic-equivalence contract against the dense machine, on the full
   workload grid and on random graphs under delay-class faults. Plus
   the banked driver's own guarantees: byte-determinism at every lane
   count, identical statistics under naive and default stepping,
   quantum invariance of the final heap, and sanitizer silence in
   strict mode. *)

module Coprocessor = Hsgc_coproc.Coprocessor
module Banked = Hsgc_coproc.Banked
module Memsys = Hsgc_memsim.Memsys
module Plan = Hsgc_objgraph.Plan
module Workloads = Hsgc_objgraph.Workloads
module Verify = Hsgc_heap.Verify
module Heap = Hsgc_heap.Heap
module Injector = Hsgc_fault.Injector

(* ------------------------------------------------------------------ *)
(* Banking configuration rules                                         *)
(* ------------------------------------------------------------------ *)

let validate ~n_cores ~n_partitions =
  Banked.validate ~banks:n_partitions (Coprocessor.config ~n_cores ())

let test_banking_validate () =
  let ok ~n_cores ~n_partitions =
    match validate ~n_cores ~n_partitions with
    | Ok () -> ()
    | Error msg ->
      Alcotest.failf "Banked.validate rejected %d/%d: %s" n_cores n_partitions
        msg
  in
  let err ~n_cores ~n_partitions =
    match validate ~n_cores ~n_partitions with
    | Error _ -> ()
    | Ok () ->
      Alcotest.failf "Banked.validate accepted %d cores / %d banks" n_cores
        n_partitions
  in
  (* 1 core: only the single-bank limit case is valid. *)
  ok ~n_cores:1 ~n_partitions:1;
  err ~n_cores:1 ~n_partitions:2;
  (* more banks than cores is always rejected *)
  err ~n_cores:8 ~n_partitions:9;
  err ~n_cores:4 ~n_partitions:16;
  (* non-dividing counts are rejected; dividing ones accepted *)
  err ~n_cores:8 ~n_partitions:3;
  err ~n_cores:6 ~n_partitions:4;
  err ~n_cores:16 ~n_partitions:5;
  ok ~n_cores:8 ~n_partitions:4;
  ok ~n_cores:6 ~n_partitions:3;
  ok ~n_cores:16 ~n_partitions:16;
  (* degenerate counts *)
  err ~n_cores:0 ~n_partitions:1;
  err ~n_cores:8 ~n_partitions:0;
  (* the rejection message proposes the nearest valid count *)
  (match validate ~n_cores:8 ~n_partitions:3 with
  | Error msg ->
    if not (String.length msg > 0) then Alcotest.fail "empty error message"
  | Ok () -> Alcotest.fail "8/3 accepted");
  (* sub-object scanning has no banked variant *)
  match
    Banked.validate ~banks:2 (Coprocessor.config ~scan_unit:4 ~n_cores:8 ())
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "scan_unit accepted"

let test_banking_plan () =
  let cfg = Coprocessor.config ~n_cores:8 () in
  let heap () = Workloads.build_heap ~scale:0.02 ~seed:5 Workloads.db in
  (* 8 cores in 4 banks is four equal 2-core machines. *)
  let _, s = Banked.collect ~lanes:1 ~banks:4 cfg (heap ()) in
  Alcotest.(check int) "banks" 4 (Array.length s.Banked.per_bank);
  Array.iteri
    (fun q (b : Coprocessor.gc_stats) ->
      Alcotest.(check int)
        (Printf.sprintf "bank %d size" q)
        2
        (Array.length b.Coprocessor.per_core))
    s.Banked.per_bank;
  (* The only cross-bank interface is the header-FIFO arbitration step,
     so a single bank routes nothing through it. *)
  let _, one = Banked.collect ~lanes:1 ~banks:1 cfg (heap ()) in
  Alcotest.(check int) "single bank routes nothing" 0 one.Banked.remote_requests;
  (* Invalid pairs raise. *)
  (match Banked.collect ~banks:3 cfg (heap ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "banked 8/3 did not raise");
  (* The auto default always validates and divides. *)
  List.iter
    (fun n_cores ->
      let b = Banked.default_banks ~n_cores in
      match validate ~n_cores ~n_partitions:b with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "default_banks %d -> %d: %s" n_cores b msg)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 12; 16; 24; 32 ]

(* ------------------------------------------------------------------ *)
(* The differential equivalence grid                                   *)
(* ------------------------------------------------------------------ *)

let check_comparison ctx (r : Banked.comparison) =
  if not (Banked.equivalent r.Banked.c_equiv) then
    Alcotest.failf "%s: equivalence contract violated: %s" ctx
      (Format.asprintf "%a" Banked.pp_equivalence r.Banked.c_equiv);
  let s = r.Banked.c_bstats in
  (* A heap with no live objects converges before the first superstep. *)
  if s.Banked.supersteps <= 0 && r.Banked.c_banked.Coprocessor.live_objects > 0
  then Alcotest.failf "%s: no supersteps" ctx;
  if s.Banked.remote_requests <> s.Banked.fixups_applied then
    Alcotest.failf "%s: %d remote requests but %d fixups" ctx
      s.Banked.remote_requests s.Banked.fixups_applied;
  (* The modeled critical path decomposes exactly. *)
  if
    r.Banked.c_banked.Coprocessor.total_cycles
    <> s.Banked.max_bank_cycles + s.Banked.arb_cycles + s.Banked.stitch_cycles
  then Alcotest.failf "%s: total_cycles does not decompose" ctx

let test_equivalence_grid () =
  List.iter
    (fun w ->
      List.iter
        (fun n_cores ->
          List.iter
            (fun banks ->
              if n_cores mod banks = 0 then
                let ctx =
                  Printf.sprintf "%s cores=%d banks=%d" w.Workloads.name
                    n_cores banks
                in
                let cfg = Coprocessor.config ~n_cores () in
                check_comparison ctx
                  (Banked.differential ~lanes:2 ~banks cfg (fun () ->
                       Workloads.build_heap ~scale:0.02 ~seed:11 w)))
            [ 2; 4; 8 ])
        [ 2; 4; 8; 16 ])
    Workloads.all

(* Random graphs, memory configs, bank counts and delay intensities —
   the qcheck leg of the equivalence grid. *)
let qcheck_banked_equivalence =
  QCheck.Test.make
    ~name:
      "banked machine is semantically equivalent to the dense machine on \
       random graphs, configs and bank counts"
    ~count:40
    (QCheck.make
       ~print:(fun ((n, s), (nc, banks, el, bw, intensity)) ->
         Printf.sprintf
           "graph(n=%d seed=%d) cores=%d banks=%d lat+%d bw=%d fault=%g" n s
           nc banks el bw intensity)
       QCheck.Gen.(
         let gen_graph =
           let* n = int_range 1 60 in
           let* seed = small_nat in
           return (n, seed)
         in
         let gen_config =
           let* n_cores = int_range 1 16 in
           let divisors =
             List.filter (fun b -> n_cores mod b = 0)
               [ 1; 2; 3; 4; 5; 6; 7; 8; 12; 16 ]
           in
           let* banks = oneofl divisors in
           let* extra_latency = oneofl [ 0; 3; 20 ] in
           let* bandwidth = oneofl [ 1; 4; 8 ] in
           let* intensity = oneofl [ 0.0; 0.1; 0.8 ] in
           return (n_cores, banks, extra_latency, bandwidth, intensity)
         in
         pair gen_graph gen_config))
    (fun ((n, seed), (n_cores, banks, extra_latency, bandwidth, intensity)) ->
      let build () =
        let rng = Hsgc_util.Rng.create (seed + 1) in
        let plan = Plan.create () in
        let ids =
          Array.init n (fun _ ->
              Plan.obj plan
                ~pi:(Hsgc_util.Rng.int rng 4)
                ~delta:(Hsgc_util.Rng.int rng 5))
        in
        Array.iter
          (fun id ->
            for slot = 0 to Plan.pi_of plan id - 1 do
              if Hsgc_util.Rng.int rng 100 < 70 then
                Plan.link plan ~parent:id ~slot
                  ~child:ids.(Hsgc_util.Rng.int rng n)
            done)
          ids;
        for _ = 1 to 1 + Hsgc_util.Rng.int rng 3 do
          Plan.add_root plan ids.(Hsgc_util.Rng.int rng n)
        done;
        Plan.materialize plan
      in
      let mem =
        Memsys.with_extra_latency
          { Memsys.default_config with Memsys.bandwidth }
          extra_latency
      in
      let faults =
        if intensity = 0.0 then None
        else Some (Injector.delay_class ~seed:(seed + 3) ~intensity ())
      in
      let cfg = Coprocessor.config ~mem ?faults ~n_cores () in
      check_comparison "random banked" (Banked.differential ~banks cfg build);
      true)

(* ------------------------------------------------------------------ *)
(* Determinism: lanes and repetition change nothing but wall time      *)
(* ------------------------------------------------------------------ *)

let strip_wall (g : Coprocessor.gc_stats) =
  { g with Coprocessor.wall_seconds = 0. }

let strip_stats (s : Banked.stats) =
  {
    s with
    Banked.lanes = 0;
    per_bank = Array.map strip_wall s.Banked.per_bank;
  }

let test_determinism () =
  let w = Workloads.db in
  let cfg = Coprocessor.config ~n_cores:8 () in
  let run lanes =
    let heap = Workloads.build_heap ~scale:0.03 ~seed:7 w in
    let g, s = Banked.collect ~lanes ~banks:4 cfg heap in
    (strip_wall g, strip_stats s, Verify.snapshot heap)
  in
  let g1, s1, p1 = run 1 in
  List.iter
    (fun lanes ->
      let g, s, p = run lanes in
      if g <> g1 then
        Alcotest.failf "gc_stats differ at %d lanes vs 1" lanes;
      if s <> s1 then
        Alcotest.failf "banked stats differ at %d lanes vs 1" lanes;
      if not (Verify.equal_snapshot p p1) then
        Alcotest.failf "heap snapshots differ at %d lanes vs 1" lanes)
    [ 1; 2; 8 ]

(* The default bank count is simulated hardware: a fixed function of the
   core count (largest divisor up to 4), whatever the host's domain
   count; and at that default the host lanes change nothing. *)
let test_default_banks_host_independent () =
  List.iter
    (fun (n_cores, banks) ->
      Alcotest.(check int)
        (Printf.sprintf "default banks for %d cores" n_cores)
        banks
        (Banked.default_banks ~n_cores))
    [ (1, 1); (2, 2); (3, 3); (4, 4); (5, 1); (6, 3); (7, 1); (8, 4);
      (9, 3); (12, 4); (16, 4); (24, 4); (32, 4) ];
  let cfg = Coprocessor.config ~n_cores:16 () in
  let banks = Banked.default_banks ~n_cores:16 in
  let run lanes =
    let heap = Workloads.build_heap ~scale:0.03 ~seed:11 Workloads.javac in
    let g, s = Banked.collect ~lanes ~banks cfg heap in
    ( Format.asprintf "%a@.%a" Banked.pp_stats (strip_stats s)
        Verify.pp_snapshot (Verify.snapshot heap),
      strip_wall g )
  in
  let text1, g1 = run 1 and text2, g2 = run 2 in
  Alcotest.(check string) "banked stats at 1 and 2 lanes" text1 text2;
  if g1 <> g2 then Alcotest.fail "gc_stats differ at 2 lanes vs 1"

(* Any quantum yields the same final heap and live-set statistics;
   only the arbitration interleave's cycle accounting may shift. *)
let test_quantum_invariance () =
  let cfg = Coprocessor.config ~n_cores:8 () in
  let run quantum =
    let heap = Workloads.build_heap ~scale:0.03 ~seed:7 Workloads.javac in
    let g, _ = Banked.collect ~lanes:1 ~quantum ~banks:4 cfg heap in
    (g, Verify.snapshot heap)
  in
  let g1, p1 = run 1 in
  List.iter
    (fun q ->
      let g, p = run q in
      if not (Verify.equal_snapshot p p1) then
        Alcotest.failf "heap differs at quantum %d" q;
      Alcotest.(check int)
        (Printf.sprintf "live objects at quantum %d" q)
        g1.Coprocessor.live_objects g.Coprocessor.live_objects;
      Alcotest.(check int)
        (Printf.sprintf "live words at quantum %d" q)
        g1.Coprocessor.live_words g.Coprocessor.live_words)
    [ 7; 64; 512; 100000 ]

(* ------------------------------------------------------------------ *)
(* Naive stepping is the banked machine's oracle                       *)
(* ------------------------------------------------------------------ *)

(* A superstep is [quantum] simulated cycles per bank, so the schedule
   does not depend on how many cycles one [step] call covers: every
   statistic but the walls, the lane count and the executed/skipped
   split is identical under naive stepping and the default engine. *)
let engine_neutral (g : Coprocessor.gc_stats) =
  {
    g with
    Coprocessor.wall_seconds = 0.;
    executed_cycles = 0;
    skipped_cycles = 0;
  }

let check_naive_parity ctx ~mem ~quantum ~n_cores ~banks build =
  let run skip =
    let cfg = Coprocessor.config ~mem ~skip ~n_cores () in
    let g, s = Banked.collect ~lanes:1 ~quantum ~banks cfg (build ()) in
    ( engine_neutral g,
      {
        s with
        Banked.lanes = 0;
        per_bank = Array.map engine_neutral s.Banked.per_bank;
      } )
  in
  let gn, sn = run false and gd, sd = run true in
  if gn <> gd || sn <> sd then
    Alcotest.failf
      "%s: naive and default stepping differ:@.naive   %d cycles@.%a@.\
       default %d cycles@.%a"
      ctx gn.Coprocessor.total_cycles Banked.pp_stats sn
      gd.Coprocessor.total_cycles Banked.pp_stats sd

let test_naive_parity_grid () =
  List.iter
    (fun w ->
      List.iter
        (fun (n_cores, banks) ->
          List.iter
            (fun extra ->
              let mem =
                Memsys.with_extra_latency Memsys.default_config extra
              in
              List.iter
                (fun quantum ->
                  check_naive_parity
                    (Printf.sprintf "%s %d/%d +%d q=%d" w.Workloads.name
                       n_cores banks extra quantum)
                    ~mem ~quantum ~n_cores ~banks
                    (fun () -> Workloads.build_heap ~scale:0.02 ~seed:3 w))
                [ 64; 512; 4096 ])
            [ 0; 20 ])
        [ (1, 1); (4, 1); (4, 2); (8, 2); (16, 4); (16, 16) ])
    Workloads.all

let qcheck_naive_parity =
  QCheck.Test.make
    ~name:"banked statistics are identical under naive and default stepping"
    ~count:30
    (QCheck.make
       ~print:(fun (wi, seed, scale, (n_cores, banks), extra, quantum) ->
         Printf.sprintf "%s seed=%d scale=%g %d/%d +%d q=%d"
           (List.nth Workloads.all wi).Workloads.name seed scale n_cores banks
           extra quantum)
       QCheck.Gen.(
         let* wi = int_bound (List.length Workloads.all - 1) in
         let* seed = small_nat in
         let* scale = oneofl [ 0.01; 0.02; 0.04 ] in
         let* n_cores = int_range 1 16 in
         let* banks =
           oneofl
             (List.filter (fun b -> n_cores mod b = 0) (List.init n_cores succ))
         in
         let* extra = oneofl [ 0; 3; 20 ] in
         let* quantum = oneofl [ 1; 7; 64; 512; 4096 ] in
         return (wi, seed, scale, (n_cores, banks), extra, quantum)))
    (fun (wi, seed, scale, (n_cores, banks), extra, quantum) ->
      let w = List.nth Workloads.all wi in
      let mem = Memsys.with_extra_latency Memsys.default_config extra in
      check_naive_parity "random" ~mem ~quantum ~n_cores ~banks (fun () ->
          Workloads.build_heap ~scale ~seed w);
      true)

(* ------------------------------------------------------------------ *)
(* Sanitizer silence in strict mode                                    *)
(* ------------------------------------------------------------------ *)

(* Strict mode raises on the first finding, so completing the default
   grid is the silence assertion. *)
let test_sanitizer_silence () =
  List.iter
    (fun w ->
      List.iter
        (fun banks ->
          let cfg =
            Coprocessor.config ~sanitize:Hsgc_sanitizer.Sanitizer.Strict
              ~n_cores:8 ()
          in
          let heap = Workloads.build_heap ~scale:0.02 ~seed:5 w in
          let g, _ = Banked.collect ~lanes:2 ~banks cfg heap in
          Alcotest.(check int)
            (Printf.sprintf "%s banks=%d findings" w.Workloads.name banks)
            0
            (List.length g.Coprocessor.sanitizer_findings))
        [ 2; 4; 8 ])
    [ Workloads.db; Workloads.compress; Workloads.jflex ]

(* ------------------------------------------------------------------ *)
(* Config rejection and degenerate heaps                               *)
(* ------------------------------------------------------------------ *)

let test_config_rejection () =
  let heap = Workloads.build_heap ~scale:0.02 ~seed:1 Workloads.db in
  let reject cfg ~banks =
    match Banked.collect ~banks cfg heap with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "Banked.collect accepted an invalid config"
  in
  reject (Coprocessor.config ~n_cores:8 ()) ~banks:3;
  reject (Coprocessor.config ~n_cores:8 ~scan_unit:4 ()) ~banks:2;
  (match Banked.collect ~quantum:0 ~banks:2 (Coprocessor.config ~n_cores:8 ()) heap with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "quantum 0 accepted");
  (* A bank cannot be snapshotted. *)
  let view = Workloads.build_heap ~scale:0.01 ~seed:1 Workloads.db in
  let remote = Coprocessor.remote_create ~bank:0 ~lo:0 ~hi:max_int in
  let sim = Coprocessor.start ~remote (Coprocessor.config ~n_cores:2 ()) view in
  match Coprocessor.Snapshot.save sim ~fingerprint:"test" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "banked bank snapshot accepted"

let test_empty_and_tiny_heaps () =
  (* A single-object heap across many banks: most banks own an empty
     home range and park immediately. *)
  let build () =
    let plan = Plan.create () in
    let id = Plan.obj plan ~pi:0 ~delta:3 in
    Plan.add_root plan id;
    Plan.materialize plan
  in
  let cfg = Coprocessor.config ~n_cores:8 () in
  check_comparison "single object" (Banked.differential ~banks:8 cfg build);
  (* An unreachable-population heap: everything dies, nothing crosses. *)
  let build_dead () =
    let plan = Plan.create () in
    for _ = 1 to 20 do
      ignore (Plan.obj plan ~pi:2 ~delta:1)
    done;
    Plan.materialize plan
  in
  check_comparison "all dead" (Banked.differential ~banks:4 cfg build_dead)

let suite =
  [
    Alcotest.test_case "banked partition validation" `Quick
      test_banking_validate;
    Alcotest.test_case "banking plan shape and interfaces" `Quick
      test_banking_plan;
    Alcotest.test_case "equivalence grid: workloads x cores x banks" `Quick
      test_equivalence_grid;
    QCheck_alcotest.to_alcotest qcheck_banked_equivalence;
    Alcotest.test_case "byte-determinism across lane counts" `Quick
      test_determinism;
    Alcotest.test_case "default bank count is host-independent" `Quick
      test_default_banks_host_independent;
    Alcotest.test_case "quantum invariance of the final heap" `Quick
      test_quantum_invariance;
    Alcotest.test_case "naive parity grid: workloads x shapes x quanta"
      `Quick test_naive_parity_grid;
    QCheck_alcotest.to_alcotest qcheck_naive_parity;
    Alcotest.test_case "sanitizer silence in strict mode" `Quick
      test_sanitizer_silence;
    Alcotest.test_case "config rejection" `Quick test_config_rejection;
    Alcotest.test_case "degenerate heaps" `Quick test_empty_and_tiny_heaps;
  ]
