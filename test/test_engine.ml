(* Tests for the default stepping engine: event-driven sleeps and
   idle-cycle skipping plus the fast paths [start] engages when the run
   allows them — scan-lock spinner parking, the exclusive-core
   interpreter and the closed-form data-run macro.

   The engine's contract is the equivalence invariant against naive
   stepping ([skip = false]): every reported simulation statistic —
   total cycles, per-core stall/work counters, memory-system and FIFO
   counters, the verified post-heap — must be bit-identical; only wall
   time and the executed/skipped split may differ. Fault plans and
   attached instruments keep the fast paths off, so those
   configurations double as coverage of the per-cycle path. *)

module Coprocessor = Hsgc_coproc.Coprocessor
module Counters = Hsgc_coproc.Counters
module Memsys = Hsgc_memsim.Memsys
module Plan = Hsgc_objgraph.Plan
module Workloads = Hsgc_objgraph.Workloads
module Verify = Hsgc_heap.Verify
module Checkpoint = Hsgc_checkpoint.Checkpoint
module Tracer = Hsgc_obs.Tracer
module Profiler = Hsgc_obs.Profiler
module Concurrent = Hsgc_coproc.Concurrent
module Trace = Hsgc_coproc.Trace

(* Everything in gc_stats except the kernel-observability fields
   (executed/skipped split and wall time) must be bit-identical. *)
let check_stats_equal ctx ~ref_name ~other_name (a : Coprocessor.gc_stats)
    (b : Coprocessor.gc_stats) =
  let chk name x y =
    if x <> y then
      Alcotest.failf "%s: %s differs (%s %d, %s %d)" ctx name ref_name x
        other_name y
  in
  chk "total_cycles" a.Coprocessor.total_cycles b.Coprocessor.total_cycles;
  chk "root_cycles" a.Coprocessor.root_cycles b.Coprocessor.root_cycles;
  chk "empty_worklist_cycles" a.Coprocessor.empty_worklist_cycles
    b.Coprocessor.empty_worklist_cycles;
  chk "live_objects" a.Coprocessor.live_objects b.Coprocessor.live_objects;
  chk "live_words" a.Coprocessor.live_words b.Coprocessor.live_words;
  chk "fifo_hits" a.Coprocessor.fifo_hits b.Coprocessor.fifo_hits;
  chk "fifo_misses" a.Coprocessor.fifo_misses b.Coprocessor.fifo_misses;
  chk "fifo_overflows" a.Coprocessor.fifo_overflows
    b.Coprocessor.fifo_overflows;
  chk "mem_loads" a.Coprocessor.mem_loads b.Coprocessor.mem_loads;
  chk "mem_stores" a.Coprocessor.mem_stores b.Coprocessor.mem_stores;
  chk "mem_rejected_bandwidth" a.Coprocessor.mem_rejected_bandwidth
    b.Coprocessor.mem_rejected_bandwidth;
  chk "mem_rejected_order" a.Coprocessor.mem_rejected_order
    b.Coprocessor.mem_rejected_order;
  chk "header_cache_hits" a.Coprocessor.header_cache_hits
    b.Coprocessor.header_cache_hits;
  chk "header_cache_misses" a.Coprocessor.header_cache_misses
    b.Coprocessor.header_cache_misses;
  chk "faults_injected" a.Coprocessor.faults_injected
    b.Coprocessor.faults_injected;
  chk "corruptions_injected" a.Coprocessor.corruptions_injected
    b.Coprocessor.corruptions_injected;
  Array.iteri
    (fun i ca ->
      let cb = b.Coprocessor.per_core.(i) in
      List.iter
        (fun s ->
          if Counters.get ca s <> Counters.get cb s then
            Alcotest.failf "%s: core %d %s stalls differ (%s %d, %s %d)" ctx i
              (Counters.stall_name s) ref_name (Counters.get ca s) other_name
              (Counters.get cb s))
        Counters.all_stalls;
      if ca.Counters.busy_cycles <> cb.Counters.busy_cycles then
        Alcotest.failf "%s: core %d busy_cycles differ" ctx i;
      if ca.Counters.objects_scanned <> cb.Counters.objects_scanned then
        Alcotest.failf "%s: core %d objects_scanned differ" ctx i;
      if ca.Counters.objects_evacuated <> cb.Counters.objects_evacuated then
        Alcotest.failf "%s: core %d objects_evacuated differ" ctx i;
      if ca.Counters.words_copied <> cb.Counters.words_copied then
        Alcotest.failf "%s: core %d words_copied differ" ctx i)
    a.Coprocessor.per_core;
  if
    b.Coprocessor.executed_cycles + b.Coprocessor.skipped_cycles
    <> b.Coprocessor.total_cycles
  then Alcotest.failf "%s: executed + skipped <> total" ctx

(* Run the same prebuilt configuration naive and under the default
   engine and check per-counter parity plus canonical post-heap
   equality. *)
let check_parity ctx ~mem ?scan_unit ?faults ~n_cores build =
  let run cfg =
    let heap = build () in
    let stats = Coprocessor.collect cfg heap in
    (stats, Verify.snapshot heap)
  in
  let naive, snap_naive =
    run (Coprocessor.config ~mem ?scan_unit ?faults ~skip:false ~n_cores ())
  in
  let default, snap_default =
    run (Coprocessor.config ~mem ?scan_unit ?faults ~n_cores ())
  in
  check_stats_equal ctx ~ref_name:"naive" ~other_name:"default" naive default;
  if not (Verify.equal_snapshot snap_naive snap_default) then
    Alcotest.failf "%s: default post-heap differs from naive post-heap" ctx

(* ------------------------------------------------------------------ *)
(* Workload grid: 8 workloads x {1,4,16} cores                         *)
(* ------------------------------------------------------------------ *)

let test_equivalent_on_workloads () =
  List.iter
    (fun w ->
      List.iter
        (fun n_cores ->
          check_parity
            (Printf.sprintf "%s at %d cores" w.Workloads.name n_cores)
            ~mem:Memsys.default_config ~n_cores (fun () ->
              Workloads.build_heap ~scale:0.03 ~seed:7 w))
        [ 1; 4; 16 ])
    Workloads.all

let test_equivalent_latency_bound () =
  (* +20-cycle latency is where the fast paths do the most work:
     long quiescent spans, the single-core exclusive interpreter, deep
     sleep/jump arithmetic. *)
  let mem = Memsys.with_extra_latency Memsys.default_config 20 in
  List.iter
    (fun n_cores ->
      check_parity
        (Printf.sprintf "latency-bound db at %d cores" n_cores)
        ~mem ~n_cores (fun () ->
          Workloads.build_heap ~scale:0.03 ~seed:7 Workloads.db))
    [ 1; 4; 16 ]

(* ------------------------------------------------------------------ *)
(* Random graphs and machine configurations                            *)
(* ------------------------------------------------------------------ *)

let gen_plan_of rng n =
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
          Plan.link plan ~parent:id ~slot ~child:ids.(Hsgc_util.Rng.int rng n)
      done)
    ids;
  for _ = 1 to 1 + Hsgc_util.Rng.int rng 3 do
    Plan.add_root plan ids.(Hsgc_util.Rng.int rng n)
  done;
  plan

let qcheck_equivalent =
  QCheck.Test.make
    ~name:"default engine is bit-identical to naive on random graphs and \
           configs"
    ~count:60
    (QCheck.make
       ~print:(fun ((n, s), (nc, ca, el, bw, ff)) ->
         Printf.sprintf
           "graph(n=%d seed=%d) cores=%d cache=%d lat+%d bw=%d fifo=%d" n s nc
           ca el bw ff)
       QCheck.Gen.(
         let gen_plan =
           let* n = int_range 1 60 in
           let* seed = small_nat in
           return (n, seed)
         in
         (* No [scan_unit] dimension: sub-object scanning keeps the
            fast paths off, and its skip/naive parity has its own tests
            (kernel, checkpoint). *)
         let gen_config =
           let* n_cores = int_range 1 16 in
           let* cache = oneofl [ 0; 8; 1024 ] in
           let* extra_latency = oneofl [ 0; 3; 20 ] in
           let* bandwidth = oneofl [ 1; 4; 8 ] in
           let* fifo = oneofl [ 2; 64; 32768 ] in
           return (n_cores, cache, extra_latency, bandwidth, fifo)
         in
         pair gen_plan gen_config))
    (fun ((n, seed), (n_cores, cache, extra_latency, bandwidth, fifo)) ->
      let plan = gen_plan_of (Hsgc_util.Rng.create (seed + 1)) n in
      let mem =
        Memsys.with_extra_latency
          {
            Memsys.default_config with
            Memsys.bandwidth;
            fifo_capacity = fifo;
            header_cache_entries = cache;
          }
          extra_latency
      in
      check_parity "random config" ~mem ~n_cores (fun () ->
          Plan.materialize plan);
      true)

let qcheck_with_faults =
  QCheck.Test.make
    ~name:
      "default engine under delay-class faults is bit-identical to naive \
       (1..16 cores)"
    ~count:40
    (QCheck.make
       ~print:(fun ((n, s), (nc, intensity)) ->
         Printf.sprintf "graph(n=%d seed=%d) cores=%d intensity=%.2f" n s nc
           intensity)
       QCheck.Gen.(
         let gen_plan =
           let* n = int_range 1 50 in
           let* seed = small_nat in
           return (n, seed)
         in
         let gen_config =
           let* n_cores = int_range 1 16 in
           let* intensity = oneofl [ 0.1; 0.4; 0.8 ] in
           return (n_cores, intensity)
         in
         pair gen_plan gen_config))
    (fun ((n, seed), (n_cores, intensity)) ->
      (* A fault plan keeps the fast paths off (the injector's per-retry
         fault stream needs per-cycle stepping); the event-driven path
         must still match naive stepping on every statistic, including
         the injected-fault counts drawn from the RNG stream. *)
      let plan = gen_plan_of (Hsgc_util.Rng.create (seed + 1)) n in
      let faults =
        Hsgc_fault.Injector.delay_class ~seed:(seed + 3) ~intensity ()
      in
      check_parity "delay faults" ~mem:Memsys.default_config ~faults ~n_cores
        (fun () -> Plan.materialize plan);
      true)


(* ------------------------------------------------------------------ *)
(* The fast paths engage by default                                    *)
(* ------------------------------------------------------------------ *)

let test_fast_path_engages_by_default () =
  (* An enabled profiler keeps the fast paths off, so the same
     configuration runs once with them and once without, through the
     stepped interface. Every statistic must agree; without the fast
     paths each [step] is one cycle or one fast-forward, while the lone
     core's exclusive segments retire many cycles per call. *)
  let mem = Memsys.with_extra_latency Memsys.default_config 20 in
  let cfg = Coprocessor.config ~mem ~n_cores:1 () in
  let run ?prof () =
    let heap = Workloads.build_heap ~scale:0.05 ~seed:7 Workloads.db in
    let sim = Coprocessor.start ?prof cfg heap in
    let steps = ref 0 in
    while not (Coprocessor.halted sim) do
      Coprocessor.step sim;
      incr steps
    done;
    (Coprocessor.finalize sim, !steps)
  in
  let plain, plain_steps = run () in
  let prof = Profiler.create ~n_cores:1 () in
  Profiler.enable prof;
  let profiled, profiled_steps = run ~prof () in
  check_stats_equal "db/1 +20" ~ref_name:"profiled" ~other_name:"plain"
    profiled plain;
  if plain_steps >= profiled_steps then
    Alcotest.failf "plain run took %d step calls, profiled %d: fast paths off"
      plain_steps profiled_steps

(* A bank of the banked machine takes the fast paths too. The bank owns
   the lower half of the occupied fromspace, so its copy runs meet
   foreign pointers, which must leave through the outbox exactly as the
   per-cycle path sends them. *)
let test_fast_path_engages_on_a_bank () =
  let mem = Memsys.with_extra_latency Memsys.default_config 20 in
  let cfg = Coprocessor.config ~mem ~n_cores:1 () in
  let run ?prof () =
    let heap = Workloads.build_heap ~scale:0.05 ~seed:7 Workloads.db in
    let from = Hsgc_heap.Heap.from_space heap in
    let lo = from.Hsgc_heap.Semispace.base in
    let hi = lo + ((from.Hsgc_heap.Semispace.free - lo) / 2) in
    let remote = Coprocessor.remote_create ~bank:0 ~lo ~hi in
    remote.Coprocessor.rm_allow_finish <- true;
    let sim = Coprocessor.start ?prof ~remote cfg heap in
    let steps = ref 0 in
    while not (Coprocessor.halted sim) do
      Coprocessor.step sim;
      incr steps
    done;
    let outbox =
      ( Array.sub remote.Coprocessor.rm_slots 0 remote.Coprocessor.rm_n,
        Array.sub remote.Coprocessor.rm_children 0 remote.Coprocessor.rm_n )
    in
    (Coprocessor.finalize sim, outbox, !steps)
  in
  let plain, plain_outbox, plain_steps = run () in
  let prof = Profiler.create ~n_cores:1 () in
  Profiler.enable prof;
  let profiled, profiled_outbox, profiled_steps = run ~prof () in
  check_stats_equal "db/1 bank +20" ~ref_name:"profiled" ~other_name:"plain"
    profiled plain;
  if Array.length (fst plain_outbox) = 0 then
    Alcotest.fail "the bank routed no foreign pointer";
  if plain_outbox <> profiled_outbox then
    Alcotest.fail "the outboxes differ between the two runs";
  if plain_steps >= profiled_steps then
    Alcotest.failf "plain bank took %d step calls, profiled %d: fast paths off"
      plain_steps profiled_steps

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume                                                   *)
(* ------------------------------------------------------------------ *)

(* Snapshot a default-engine run mid-flight at each of [fractions] of
   its length (which must flush the fast path's transient scheduling
   state — parked spinners, deferred watchdog progress — to the
   canonical representation), resume onto a fresh machine, and demand
   the resumed run end bit-identical to a straight-through run, which
   itself matches naive stepping. *)
let check_resume ctx ~mem ~n_cores ~fractions build =
  let cfg = Coprocessor.config ~mem ~n_cores () in
  let straight_heap = build () in
  let straight = Coprocessor.collect cfg straight_heap in
  let naive =
    Coprocessor.collect (Coprocessor.config ~mem ~skip:false ~n_cores ())
      (build ())
  in
  check_stats_equal ctx ~ref_name:"naive" ~other_name:"default" naive
    straight;
  List.iter
    (fun frac ->
      let ctx = Printf.sprintf "%s resumed at %.2f" ctx frac in
      let sim1 = Coprocessor.start cfg (build ()) in
      let target =
        int_of_float (frac *. float_of_int straight.Coprocessor.total_cycles)
      in
      while (not (Coprocessor.halted sim1)) && Coprocessor.now sim1 < target do
        Coprocessor.step ~horizon:target sim1
      done;
      if Coprocessor.halted sim1 then
        Alcotest.failf "%s: run halted before the checkpoint target" ctx;
      let snap =
        Checkpoint.of_string
          (Checkpoint.to_string
             (Coprocessor.Snapshot.save sim1 ~fingerprint:"t"))
      in
      let heap2 = build () in
      let sim2 = Coprocessor.start cfg heap2 in
      Coprocessor.Snapshot.restore sim2 snap;
      while not (Coprocessor.halted sim2) do
        Coprocessor.step sim2
      done;
      check_stats_equal ctx ~ref_name:"straight" ~other_name:"resumed"
        straight (Coprocessor.finalize sim2);
      if
        not
          (Verify.equal_snapshot
             (Verify.snapshot straight_heap)
             (Verify.snapshot heap2))
      then Alcotest.failf "%s: post-heap differs from straight-through" ctx)
    fractions

let test_checkpoint_resume () =
  let lat20 = Memsys.with_extra_latency Memsys.default_config 20 in
  (* Contended: a two-entry FIFO sends most grabs to memory, so the
     scan lock is held across the header-load latency while the other
     seven cores park on it — snapshots land among parked spinners. *)
  check_resume "contended db/8" ~n_cores:8
    ~mem:{ lat20 with Memsys.fifo_capacity = 2 }
    ~fractions:[ 0.25; 0.5; 0.75 ]
    (fun () -> Workloads.build_heap ~scale:0.05 ~seed:11 Workloads.db);
  (* Single core: nearly every step is one exclusive segment. *)
  check_resume "exclusive db/1" ~n_cores:1 ~mem:lat20 ~fractions:[ 0.5 ]
    (fun () -> Workloads.build_heap ~scale:0.05 ~seed:11 Workloads.db)

(* ------------------------------------------------------------------ *)
(* Traced runs                                                         *)
(* ------------------------------------------------------------------ *)

let test_traced_runs_match_naive () =
  (* An attached tracer keeps the fast paths off (batching would swallow
     the per-cycle events), so a traced default run must produce the
     event stream of a traced naive run — the byte-stable digest the
     golden corpus pins. *)
  let digest skip =
    let heap = Workloads.build_heap ~scale:0.05 ~seed:7 Workloads.cup in
    let obs = Tracer.create ~n_cores:4 () in
    Tracer.enable obs;
    let stats =
      Coprocessor.collect ~obs (Coprocessor.config ~skip ~n_cores:4 ()) heap
    in
    (Tracer.digest obs, stats.Coprocessor.total_cycles)
  in
  let d_naive, c_naive = digest false in
  let d_default, c_default = digest true in
  Alcotest.(check int) "cycle counts equal" c_naive c_default;
  Alcotest.(check string) "trace digests equal" d_naive d_default;
  (* A per-step signal trace on every other step: each traced step
     leaves the fast path (flushing parked spinners back to due cores),
     the next re-enters it. *)
  let mem =
    {
      (Memsys.with_extra_latency Memsys.default_config 20) with
      Memsys.fifo_capacity = 2;
    }
  in
  let build () = Workloads.build_heap ~scale:0.05 ~seed:11 Workloads.db in
  let naive =
    Coprocessor.collect (Coprocessor.config ~mem ~skip:false ~n_cores:8 ())
      (build ())
  in
  let sim = Coprocessor.start (Coprocessor.config ~mem ~n_cores:8 ()) (build ()) in
  let tr = Trace.create () in
  let k = ref 0 in
  while not (Coprocessor.halted sim) do
    if !k land 1 = 0 then Coprocessor.step ~trace:tr sim
    else Coprocessor.step sim;
    incr k
  done;
  check_stats_equal "trace toggled per step" ~ref_name:"naive"
    ~other_name:"toggled" naive (Coprocessor.finalize sim)

(* ------------------------------------------------------------------ *)
(* Concurrent mode                                                     *)
(* ------------------------------------------------------------------ *)

let test_concurrent_parity () =
  (* The mutator caps every step at its next operation ([~horizon]),
     which the fast paths must honour: exclusive segments and parked
     spinners stop exactly where per-cycle stepping would hand the
     cycle to the main processor. *)
  List.iter
    (fun w ->
      List.iter
        (fun n_cores ->
          List.iter
            (fun seed ->
              let ctx =
                Printf.sprintf "%s/%d seed %d" w.Workloads.name n_cores seed
              in
              (* Even seeds run memory-bound (+20 latency), with the
                 mutator slowed to match so tospace is not exhausted. *)
              let mem, period =
                if seed mod 2 = 0 then
                  (Memsys.with_extra_latency Memsys.default_config 20, 40)
                else (Memsys.default_config, 4)
              in
              let run skip =
                let heap = Workloads.build_heap ~scale:0.03 ~seed w in
                let cfg = Concurrent.default_config ~n_cores () in
                let cfg =
                  {
                    cfg with
                    Concurrent.seed;
                    mutator_period = period;
                    gc = { cfg.Concurrent.gc with Coprocessor.skip; mem };
                  }
                in
                let st = Concurrent.collect cfg heap in
                (st, Verify.snapshot heap)
              in
              let naive, heap_naive = run false in
              let default, heap_default = run true in
              check_stats_equal ctx ~ref_name:"naive" ~other_name:"default"
                naive.Concurrent.gc default.Concurrent.gc;
              let chk name f =
                Alcotest.(check int) (ctx ^ " " ^ name) (f naive) (f default)
              in
              chk "pause cycles" (fun s -> s.Concurrent.pause_cycles);
              chk "barrier evacuations" (fun s ->
                  s.Concurrent.barrier_evacuations);
              chk "mutator reads" (fun s -> s.Concurrent.mutator_reads);
              chk "mutator allocs" (fun s -> s.Concurrent.mutator_allocs);
              chk "mutator busy" (fun s -> s.Concurrent.mutator_busy_cycles);
              chk "mutator waits" (fun s -> s.Concurrent.mutator_wait_cycles);
              if naive.Concurrent.new_objects <> default.Concurrent.new_objects
              then Alcotest.failf "%s: new objects differ" ctx;
              if not (Verify.equal_snapshot heap_naive heap_default) then
                Alcotest.failf "%s: post-heap differs" ctx)
            [ 1; 2; 3 ])
        [ 1; 4; 8 ])
    [ Workloads.db; Workloads.jlisp; Workloads.javac ]

let suite =
  [
    Alcotest.test_case "default equivalent on workload grid" `Slow
      test_equivalent_on_workloads;
    Alcotest.test_case "default equivalent latency-bound" `Quick
      test_equivalent_latency_bound;
    QCheck_alcotest.to_alcotest qcheck_equivalent;
    QCheck_alcotest.to_alcotest qcheck_with_faults;
    Alcotest.test_case "fast path engages by default" `Quick
      test_fast_path_engages_by_default;
    Alcotest.test_case "fast path engages on a bank" `Quick
      test_fast_path_engages_on_a_bank;
    Alcotest.test_case "checkpoint/resume bit-identical" `Quick
      test_checkpoint_resume;
    Alcotest.test_case "traced runs match naive" `Quick
      test_traced_runs_match_naive;
    Alcotest.test_case "concurrent mutator parity naive vs default" `Quick
      test_concurrent_parity;
  ]
