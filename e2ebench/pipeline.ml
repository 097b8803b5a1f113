(* One verified collection through the user-visible pipeline —
   generate -> materialize -> snapshot -> collect -> verify -> render —
   and the benchmark's named workloads. *)

module C = Hsgc_coproc.Coprocessor
module Banked = Hsgc_coproc.Banked
module Counters = Hsgc_coproc.Counters
module Workloads = Hsgc_objgraph.Workloads
module Plan = Hsgc_objgraph.Plan
module Heap = Hsgc_heap.Heap
module Verify = Hsgc_heap.Verify
module Memsys = Hsgc_memsim.Memsys
module Profiler = Hsgc_obs.Profiler
module Table = Hsgc_util.Table

(* Every simulated-hardware parameter is fixed here, per point; none is
   derived from the host. *)
type machine =
  | Dense  (** the paper's machine, default skip engine, stepped sequentially *)
  | Banked of { banks : int; lanes : int }

type point = {
  workload : Workloads.t;
  scale : float;  (** graph scale *)
  cores : int;
  extra_latency : int;
  machine : machine;
}

type workload = {
  name : string;
  why : string;
  points : point array;  (** one pass = one collection of each, in order *)
}

let dense ?(scale = 1.0) w cores extra_latency =
  { workload = w; scale; cores; extra_latency; machine = Dense }

(* The banked points pass [banks] and [lanes] explicitly on purpose:
   [gcsim run --banked] without [--par-domains] takes its bank count from
   the host's recommended domain count, so the same command would
   simulate a different machine on a different host. *)
let banked w =
  { workload = w; scale = 1.0; cores = 16; extra_latency = 0;
    machine = Banked { banks = 4; lanes = 2 } }

let workloads =
  [
    {
      name = "dense-contended";
      (* javac's hot shared symbols stall on header locks, cup's gray
         backlog overflows the header FIFO and stalls on the scan lock,
         jflex saturates near 8 cores. At 8-16 cores the step loop
         executes nearly every cycle (skipped_frac <= 0.002), so this
         workload exposes per-cycle engine cost and verify cost; the wake
         queue does little. cup needs full scale for its backlog to
         overflow the FIFO (it stops below 0.9); javac and jflex run at
         half scale, which keeps their collections near 0.1 s, short
         against a shared host's slow phases. *)
      why =
        "dense machine, default latency, 8-16 cores: contended sync block \
         and FIFO, nearly every cycle executed; per-cycle engine and \
         verify cost";
      points =
        [|
          dense ~scale:0.5 Workloads.javac 16 0; dense Workloads.cup 8 0;
          dense ~scale:0.5 Workloads.jflex 16 0;
        |];
    };
    {
      name = "latency-bound";
      (* +20 memory latency on 1-4 cores: most cycles are skipped, so the
         kernel's idle-cycle skipping and wake queue carry the loop and the
         sync block is uncontended; db's graph generation is a large share
         of the wall. Exposes skip and object-graph costs. *)
      why =
        "dense machine, +20 memory latency, 1-4 cores: most cycles skipped, \
         uncontended sync block; skip, wake-queue and graph-generation cost";
      points =
        [|
          dense Workloads.db 1 20; dense Workloads.compress 2 20;
          dense Workloads.javacc 4 20;
        |];
    };
    {
      name = "banked";
      (* The same microprogram run by Banked.collect: remote
         diversion, superstep barriers, arbitration, stitch and
         Domain_pool lanes — code the other two workloads never execute.
         A change to the dense path must show no regression here, and
         the reverse. *)
      why =
        "banked machine, 16 cores in 4 banks on 2 lanes: superstep \
         barriers, remote routing, arbitration and stitch";
      points = [| banked Workloads.db; banked Workloads.javacc |];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* A distinct graph seed for every collection, derived from the workload
   seed (splitmix64 finalizer), so no generated graph repeats within a
   run and caching one between collections cannot pay off. Warm-up
   collections use negative pass numbers. *)
let collection_seed ~seed ~pass ~point =
  let mix z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL) in
    Int64.(logxor z (shift_right_logical z 31))
  in
  let z =
    Int64.(
      add (mul (of_int seed) 0x9e3779b97f4a7c15L)
        (add (mul (of_int pass) 0x632be59bd9b4e019L) (of_int point)))
  in
  Int64.to_int (mix z) land 0x3fff_ffff

let config p =
  C.config
    ~mem:(Memsys.with_extra_latency Memsys.default_config p.extra_latency)
    ~skip:true ~n_cores:p.cores ()

type sample = {
  stats : C.gc_stats;
  bank : Banked.stats option;
  objects : int;  (** objects in the generated graph *)
  step_minor_words : float;  (** minor words allocated by the step loop *)
  prof : Profiler.t option;
}

exception Verify_failed of string

(* The operator-facing per-collection report, rendered to a string: a
   copy of [gcsim run]'s [print_stats] (bin/gcsim.ml), followed for the
   banked machine by the [Banked.pp_stats] block [gcsim run --banked]
   prints. [print_stats] lives in the executable, where the benchmark
   cannot call it, so a change to gcsim's rendering does not move
   [report.render_s] until this copy is changed with it. *)
let render (s : C.gc_stats) bank =
  let b = Buffer.create 1024 in
  let total = s.C.total_cycles in
  let frac n = Table.pct (float_of_int n /. float_of_int total) in
  Printf.bprintf b "total cycles        %d\n" total;
  Printf.bprintf b "kernel              executed=%d skipped=%d (%s of total)\n"
    s.C.executed_cycles s.C.skipped_cycles (frac s.C.skipped_cycles);
  if s.C.wall_seconds > 0.0 then
    Printf.bprintf b "kernel throughput   %.2f Mcycles/s (%.4f s wall)\n"
      (float_of_int total /. s.C.wall_seconds /. 1e6)
      s.C.wall_seconds;
  Printf.bprintf b "root phase cycles   %d\n" s.C.root_cycles;
  Printf.bprintf b "worklist empty      %s\n" (frac s.C.empty_worklist_cycles);
  Printf.bprintf b "live objects        %d\n" s.C.live_objects;
  Printf.bprintf b "live words          %d\n" s.C.live_words;
  Printf.bprintf b "header FIFO         hits=%d misses=%d overflows=%d\n"
    s.C.fifo_hits s.C.fifo_misses s.C.fifo_overflows;
  if s.C.header_cache_hits + s.C.header_cache_misses > 0 then
    Printf.bprintf b "header cache        hits=%d misses=%d\n"
      s.C.header_cache_hits s.C.header_cache_misses;
  Printf.bprintf b
    "memory              loads=%d stores=%d bw-rejects=%d order-holds=%d\n"
    s.C.mem_loads s.C.mem_stores s.C.mem_rejected_bandwidth
    s.C.mem_rejected_order;
  let mean = C.stalls_mean_per_core s in
  Buffer.add_string b "stalls (mean per core):\n";
  List.iter
    (fun st ->
      Printf.bprintf b "  %-20s %s\n" (Counters.stall_name st)
        (Table.count_with_pct ~total (Counters.get mean st)))
    Counters.all_stalls;
  Option.iter (fun bs -> Buffer.add_string b (Format.asprintf "%a@." Banked.pp_stats bs)) bank;
  Buffer.contents b

(* Run one collection of [p] on the graph generated from [seed] ([scale]
   overrides the point's graph scale; tests shrink it). Raises
   what the program raises ([C.Heap_overflow], [C.Stall_diagnosis],
   [C.Simulation_diverged], ...) and [Verify_failed] when the collected
   heap fails verification; the caller counts both as failures. [tamper]
   runs on the collected heap before verification (tests corrupt it). *)
let collect ?(spans = Spans.create ~on:false) ?(profile = false) ?lanes
    ?tamper ?scale p ~seed =
  let scale = Option.value ~default:p.scale scale in
  let sp name f = Spans.span spans name f in
  let plan =
    sp "objgraph.gen" (fun () -> p.workload.Workloads.build ~scale ~seed)
  in
  let heap = sp "heap.materialize" (fun () -> Plan.materialize plan) in
  let pre = sp "heap.snapshot" (fun () -> Verify.snapshot heap) in
  let cfg = config p in
  let stats, bank, step_minor_words, prof =
    match p.machine with
    | Dense ->
      let prof =
        if profile then begin
          let pr = Profiler.create ~n_cores:p.cores () in
          Profiler.enable pr;
          Some pr
        end
        else None
      in
      let sim = sp "coproc.start" (fun () -> C.start ?prof cfg heap) in
      let w0 = if spans.Spans.on then Gc.minor_words () else 0.0 in
      sp "coproc.step" (fun () ->
          while not (C.halted sim) do
            C.step sim
          done);
      let words = if spans.Spans.on then Gc.minor_words () -. w0 else 0.0 in
      let stats = sp "coproc.finalize" (fun () -> C.finalize sim) in
      (stats, None, words, prof)
    | Banked { banks; lanes = l } ->
      let lanes = Option.value ~default:l lanes in
      let stats, bs =
        sp "banked.collect" (fun () -> Banked.collect ~lanes ~banks cfg heap)
      in
      (stats, Some bs, 0.0, None)
  in
  Option.iter (fun f -> f heap) tamper;
  sp "heap.verify" (fun () ->
      (match Verify.check_collection ~pre heap with
      | Ok () -> ()
      | Error f ->
        raise (Verify_failed (Format.asprintf "%a" Verify.pp_failure f)));
      match bank with
      | Some bs when bs.Banked.fixups_applied <> bs.Banked.remote_requests ->
        raise
          (Verify_failed
             (Printf.sprintf "banked arbitration: %d fixups for %d remote requests"
                bs.Banked.fixups_applied bs.Banked.remote_requests))
      | _ -> ());
  ignore (sp "report.render" (fun () -> render stats bank));
  { stats; bank; objects = Plan.n_objects plan; step_minor_words; prof }

(* Every simulated counter of one collection, as text: the machine's
   statistics and, for the banked machine, Banked.collect's. Host-dependent
   fields (wall time, lane count) and the kernel's executed/skipped
   split (stepping accounting, not machine state) are left out. *)
let fingerprint s =
  let b = Buffer.create 512 in
  let add n = Buffer.add_string b (string_of_int n); Buffer.add_char b ' ' in
  let add_stats (g : C.gc_stats) =
    List.iter add
      [
        g.C.total_cycles; g.C.root_cycles; g.C.empty_worklist_cycles;
        g.C.live_objects; g.C.live_words; g.C.fifo_hits; g.C.fifo_misses;
        g.C.fifo_overflows; g.C.mem_loads; g.C.mem_stores;
        g.C.mem_rejected_bandwidth; g.C.mem_rejected_order;
        g.C.header_cache_hits; g.C.header_cache_misses;
      ];
    Array.iter
      (fun (k : Counters.t) ->
        List.iter (fun st -> add (Counters.get k st)) Counters.all_stalls;
        List.iter add
          [
            k.Counters.objects_scanned; k.Counters.objects_evacuated;
            k.Counters.words_copied; k.Counters.busy_cycles;
          ])
      g.C.per_core
  in
  add_stats s.stats;
  Option.iter
    (fun (bs : Banked.stats) ->
      List.iter add
        [
          bs.Banked.banks; bs.Banked.quantum; bs.Banked.supersteps;
          bs.Banked.arb_rounds; bs.Banked.remote_requests; bs.Banked.remote_hits;
          bs.Banked.arb_evacuations; bs.Banked.root_routes; bs.Banked.requeues;
          bs.Banked.arb_cycles; bs.Banked.root_cycles; bs.Banked.stitch_cycles;
          bs.Banked.parked_steps; bs.Banked.fixups_applied;
          bs.Banked.max_bank_cycles;
        ];
      Array.iter add bs.Banked.bank_cycles;
      Array.iter add_stats bs.Banked.per_bank)
    s.bank;
  Buffer.contents b
