(* The benchmark loop: a closed loop of one client, one collection at a
   time in one process, repeating whole passes over a workload's points
   until the run length is reached, and the metrics derived from it.

   The untraced run ([trace = false]) gives the end-to-end metrics. The
   traced run runs every pass twice on the same seeds, once untraced and
   once with host-time spans (alternating which goes first), and one
   more, untimed pass with the stall-attribution profiler attached; it
   checks that all three simulate exactly the same machine, and reports
   the per-layer metrics and the tracing overhead. *)

module C = Hsgc_coproc.Coprocessor
module Banked = Hsgc_coproc.Banked
module Counters = Hsgc_coproc.Counters
module Profiler = Hsgc_obs.Profiler
module P = Pipeline

type config = {
  workload : P.workload;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float option;  (** overrides the workload's graph scale *)
  lanes : int option;  (** overrides the banked points' lane count *)
  min_passes : int;
      (** passes to execute before stopping (a traced run's untraced and
          traced pass each count); [peak_rss_mb] is read after this many,
          and with at least 11 per point the tail percentile lies inside
          the slowest point's samples *)
  tamper : (int -> Hsgc_heap.Heap.t -> unit) option;
      (** applied to the heap of the timed collection with the given
          id (0-based), after collection and before verification *)
}

let config ?scale ?lanes ?(min_passes = 60) ?tamper ~seed ~seconds ~trace
    workload =
  { workload; seed; seconds; trace; scale; lanes; min_passes; tamper }

(* Set-up is measured from outside, by a probe that starts a separate
   process doing everything a run does before its first timed
   collection, and returns its wall time from start to exit (or an
   error). [setup_s] is the median of [setups] probes spread evenly over
   the first [min_passes] passes, so that it does not rest on a single
   moment of a shared host. *)
let setups = 5

(* Each number is labelled with its time base: host wall clock, the
   simulated machine, or a correctness count. *)
type base = Host | Simulated | Check

let base_name = function
  | Host -> "host"
  | Simulated -> "simulated"
  | Check -> "check"

type metric = { name : string; value : float; unit_ : string; base : base }

type result = {
  attempted : int;
  failed : int;  (** failed collections *)
  checks_failed : int;  (** failed run-level checks *)
  failures : string list;  (** first few failure messages *)
  metrics : metric list;
      (** the benchmark's gated set — untraced: the end-to-end metrics;
          traced: the per-layer ones *)
  extra : metric list;
      (** reported alongside but not gated *)
  samples : int;  (** timed collections behind the timing metrics *)
  tail_pct : float;  (** percentile reported as [collection_tail_s] *)
  passes : int;
  digest : string;  (** MD5 over every simulated counter of pass 0 *)
  sim_mcycles : float;
  lanes : int;
  spans : Spans.t;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let now_s () = float_of_int (Spans.now_ns ()) *. 1e-9

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it, and that
   percentile; the maximum when there are fewer than eleven samples. *)
let tail a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else if n < 11 then (a.(n - 1), 100.0)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

(* Peak resident set of this process (Linux), in MB. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
          | _ -> go ()
        in
        go ())
  in
  try from_proc ()
  with _ ->
    let words = (Gc.quick_stat ()).Gc.top_heap_words in
    float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* [n] counts failed collections; [checks] counts failed run-level
   checks (profiler identity, span identity), which fail the run but are
   not collections. *)
type failures = {
  mutable n : int;
  mutable checks : int;
  mutable msgs : string list;
}

let note fl msg = if List.length fl.msgs < 5 then fl.msgs <- fl.msgs @ [ msg ]

let fail fl msg =
  fl.n <- fl.n + 1;
  note fl msg

let fail_check fl msg =
  fl.checks <- fl.checks + 1;
  note fl msg

(* One collection: its wall time and sample, or [None] after counting a
   failure. *)
let one cfg fl ~spans ~profile ~coll ~pass ~i =
  let w = cfg.workload in
  let p = w.P.points.(i) in
  let seed = P.collection_seed ~seed:cfg.seed ~pass ~point:i in
  let tamper =
    match cfg.tamper with
    | Some f when coll >= 0 -> Some (f coll)
    | _ -> None
  in
  let t0 = now_s () in
  let r =
    try
      Ok
        (Spans.collection spans coll (fun () ->
             P.collect ~spans ~profile ?lanes:cfg.lanes ?tamper ?scale:cfg.scale p ~seed))
    with
    | P.Verify_failed m -> Error ("verify failed: " ^ m)
    | C.Heap_overflow -> Error "heap overflow"
    | C.Stall_diagnosis d ->
      Error (Printf.sprintf "stall diagnosis at cycle %d" d.C.at_cycle)
    | C.Simulation_diverged m -> Error ("simulation diverged: " ^ m)
    | e -> Error (Printexc.to_string e)
  in
  let wall = now_s () -. t0 in
  match r with
  | Ok s -> Some (wall, s)
  | Error m ->
    fail fl
      (Printf.sprintf "%s/%d cores seed %d: %s" p.P.workload.Hsgc_objgraph.Workloads.name
         p.P.cores seed m);
    None

(* One pass over the workload's points. *)
let pass cfg fl ~spans ~profile ~first_coll ~pass =
  Array.init (Array.length cfg.workload.P.points) (fun i ->
      let coll = if first_coll < 0 then -1 else first_coll + i in
      one cfg fl ~spans ~profile ~coll ~pass ~i)

let digest samples =
  Digest.to_hex
    (Digest.string (String.concat "|" (List.map P.fingerprint samples)))

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let sumi f l = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 l)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Simulated core-cycles of a collection: every core over the whole
   modelled collection time. *)
let core_cycles (s : P.sample) =
  Array.length s.P.stats.C.per_core * s.P.stats.C.total_cycles

let stall_total st (s : P.sample) =
  Array.fold_left (fun acc k -> acc + Counters.get k st) 0 s.P.stats.C.per_core

(* Busy / stall / idle shares of the simulated core-cycles. Dense: the
   Profiler's attribution, whose per-core rows must sum to the total
   cycles (checked). Banked: Banked.collect takes no profiler, so the
   split is derived from its counters — stall cycles exactly (the
   Profiler's stall columns equal the stall counters by construction),
   idle as the cycles cores of early-halted banks wait for the slowest
   bank plus the serial arbitration and stitch cycles, busy as the rest
   (it therefore includes in-bank cycles spent seeking work). *)
let profile_shares fl samples =
  let busy = ref 0 and stall = ref 0 and idle = ref 0 in
  List.iter
    (fun (s : P.sample) ->
      let total = s.P.stats.C.total_cycles in
      match (s.P.prof, s.P.bank) with
      | Some pr, _ ->
        for c = 0 to Profiler.n_cores pr - 1 do
          if Profiler.row_sum pr ~core:c <> total then
            fail_check fl
              (Printf.sprintf "profiler row %d sums to %d, not %d cycles" c
                 (Profiler.row_sum pr ~core:c) total)
        done;
        busy := !busy + Profiler.column pr ~bucket:Profiler.bucket_busy;
        idle := !idle + Profiler.column pr ~bucket:Profiler.bucket_idle;
        stall := !stall + Profiler.total_stall_cycles pr
      | None, Some bs ->
        let per_bank = Array.length s.P.stats.C.per_core / bs.Banked.banks in
        let st = List.fold_left (fun a k -> a + stall_total k s) 0 Counters.all_stalls in
        let wait =
          Array.fold_left
            (fun a c -> a + (per_bank * (bs.Banked.max_bank_cycles - c)))
            0 bs.Banked.bank_cycles
          + (Array.length s.P.stats.C.per_core * (total - bs.Banked.max_bank_cycles))
        in
        stall := !stall + st;
        idle := !idle + wait;
        busy := !busy + core_cycles s - st - wait
      | None, None -> ())
    samples;
  let d = float_of_int (!busy + !stall + !idle) in
  (ratio (float_of_int !busy) d, ratio (float_of_int !stall) d,
   ratio (float_of_int !idle) d)

(* The untimed warm-up pass that ends set-up, so that lazy
   initialisation and heap growth are paid before timing. Returns the
   collections it attempted. *)
let warm_up_pass cfg fl =
  ignore
    (pass cfg fl ~spans:(Spans.create ~on:false) ~profile:false
       ~first_coll:(-1) ~pass:(-1));
  Array.length cfg.workload.P.points

(* Set-up alone, for a set-up process: the failed collections and the
   first few failure messages. *)
let warm_up cfg =
  let fl = { n = 0; checks = 0; msgs = [] } in
  ignore (warm_up_pass cfg fl);
  (fl.n, fl.msgs)

let metric ?(base = Host) name unit_ value = { name; value; unit_; base }

let lanes_of (cfg : config) =
  Array.fold_left
    (fun acc p ->
      match p.P.machine with
      | P.Dense -> acc
      | P.Banked { lanes; _ } -> max acc (Option.value ~default:lanes cfg.lanes))
    1 cfg.workload.P.points

let run ?probe cfg =
  let fl = { n = 0; checks = 0; msgs = [] } in
  let setup_times = ref [] and probes = ref 0 in
  let probe_setup () =
    Option.iter
      (fun f ->
        incr probes;
        match f () with
        | Ok t -> setup_times := t :: !setup_times
        | Error e -> fail_check fl e)
      probe
  in
  let probe_every = max 1 (cfg.min_passes / (setups - 1)) in
  probe_setup ();
  let warm = warm_up_pass cfg fl in
  let spans = Spans.create ~on:cfg.trace in
  let n_points = Array.length cfg.workload.P.points in
  let walls = ref [] (* successful timed collections of the measured side *)
  and overheads = ref [] (* untraced over traced wall, per pass pair *)
  and attempted = ref warm
  and measured_s = ref 0.0 (* measured side *)
  and measured_cycles = ref 0
  and best_wall = Array.make n_points infinity (* fastest collection per point *)
  and best_cycles = Array.make n_points 0
  and elapsed = ref 0.0 (* both sides *)
  and pass0 = ref []
  and traced = ref []
  and passes = ref 0
  and rss_mb = ref 0.0 in
  let measured p ~spans ~profile ~first_coll =
    let t0 = now_s () in
    let r = pass cfg fl ~spans ~profile ~first_coll ~pass:p in
    let dt = now_s () -. t0 in
    attempted := !attempted + n_points;
    elapsed := !elapsed +. dt;
    (dt, r)
  in
  let keep (dt, r) =
    measured_s := !measured_s +. dt;
    Array.iteri
      (fun i -> function
        | Some (w, (s : P.sample)) ->
          walls := w :: !walls;
          measured_cycles := !measured_cycles + s.P.stats.C.total_cycles;
          if w < best_wall.(i) then begin
            best_wall.(i) <- w;
            best_cycles.(i) <- s.P.stats.C.total_cycles
          end
        | None -> ())
      r
  in
  let samples r = Array.to_list r |> List.filter_map (Option.map snd) in
  let same_machine what p a b =
    Array.iteri
      (fun i x ->
        match (x, b.(i)) with
        | Some (_, s), Some (_, t) when P.fingerprint s <> P.fingerprint t ->
          fail fl
            (Printf.sprintf "pass %d point %d: %s simulated a different machine"
               p i what)
        | _ -> ())
      a
  in
  (* The profiler gets a pass of its own, untimed and with spans off:
     attached, it can change which stepping engine the coprocessor uses,
     so the timed sides run without it. It repeats pass 0's seeds. *)
  let profiled =
    if not cfg.trace then [||]
    else begin
      attempted := !attempted + n_points;
      pass cfg fl ~spans:(Spans.create ~on:false) ~profile:true ~first_coll:(-1)
        ~pass:0
    end
  in
  let executed () = if cfg.trace then 2 * !passes else !passes in
  while executed () < cfg.min_passes || !elapsed < cfg.seconds do
    let p = !passes in
    (if not cfg.trace then begin
       let ((_, r) as m) =
         measured p ~spans ~profile:false ~first_coll:(p * n_points)
       in
       keep m;
       if p = 0 then pass0 := samples r
     end
     else begin
       (* Same seeds on both sides; alternate which runs first. *)
       let plain () =
         measured p ~spans:(Spans.create ~on:false) ~profile:false ~first_coll:(-1)
       in
       let traced_pass () =
         measured p ~spans ~profile:false ~first_coll:(p * n_points)
       in
       let (dt_u, ru), ((dt_t, rt) as t) =
         if p mod 2 = 0 then
           let u = plain () in
           (u, traced_pass ())
         else
           let t = traced_pass () in
           (plain (), t)
       in
       overheads := (dt_u /. dt_t) :: !overheads;
       keep t;
       traced := samples rt @ !traced;
       if p = 0 then begin
         pass0 := samples rt;
         same_machine "the profiled pass" p profiled rt
       end;
       same_machine "the traced side" p ru rt
     end);
    incr passes;
    if !probes < setups && executed () mod probe_every = 0 then probe_setup ();
    (* Read at a fixed amount of work, so that a faster host running more
       passes (and so more, and more varied, graphs) does not raise it. *)
    if executed () = cfg.min_passes then rss_mb := peak_rss_mb ()
  done;
  let walls = Array.of_list !walls in
  let pass0 = !pass0 in
  let sim_mcycles = sumi (fun s -> s.P.stats.C.total_cycles) pass0 /. 1e6 in
  let p50 = median walls and tail_s, tail_pct = tail walls in
  let cps = float_of_int (!passes * n_points) /. !measured_s in
  (* The gated throughputs use each point's fastest collection. A shared
     host's interference only ever slows a collection, and it comes in
     phases, from tens of milliseconds to minutes long, during which the
     host runs up to 1.5x slower; the fraction of a run spent in them
     moves from run to run, which moves a run's mean by 10-20% and flips
     its median between the fast and slow modes. The fastest of many
     collections of a point is the steadiest estimate of the pipeline's
     own cost. *)
  let best_s = Array.fold_left ( +. ) 0.0 best_wall in
  let best_cps = if Float.is_finite best_s then float_of_int n_points /. best_s else 0.0 in
  let best_mcps =
    if Float.is_finite best_s then
      float_of_int (Array.fold_left ( + ) 0 best_cycles) /. best_s /. 1e6
    else 0.0
  in
  let metrics =
    if not cfg.trace then
      [
        metric "best_collections_per_s" "1/s" best_cps;
        metric "best_sim_mcycles_per_s" "Mcycles/s" best_mcps;
        metric ~base:Simulated "sim_mcycles" "Mcycles" sim_mcycles;
        metric "setup_s" "s" (median (Array.of_list !setup_times));
        metric "peak_rss_mb" "MB" !rss_mb;
      ]
    else begin
      let traced = !traced in
      let ntr = float_of_int (List.length traced) in
      let self = Spans.self_by_name spans in
      let per_coll name = ratio (self name) ntr in
      let dense = List.filter (fun s -> s.P.bank = None) traced in
      let exec_dense = sumi (fun s -> s.P.stats.C.executed_cycles) dense in
      let sim f = sumi f pass0 in
      let core_cyc = sim core_cycles in
      let stall_frac st = ratio (sim (stall_total st)) core_cyc in
      let total = sim (fun s -> s.P.stats.C.total_cycles) in
      let banks = List.filter_map (fun s -> s.P.bank) pass0 in
      let bsum f = sumi f banks in
      let busy, stall, idle = profile_shares fl (samples profiled) in
      let unattributed, identity_ok = Spans.identity spans ~rel:0.02 ~abs_ns:50_000 in
      if not identity_ok then
        fail_check fl "span identity: layer self times do not sum to the collection span";
      let count = metric ~base:Simulated in
      [
        metric "objgraph.gen_s" "s" (per_coll "objgraph.gen");
        count "objgraph.objects" "count" (sim (fun s -> s.P.objects));
        metric "heap.materialize_s" "s" (per_coll "heap.materialize");
        metric "heap.snapshot_s" "s" (per_coll "heap.snapshot");
        metric "heap.verify_s" "s" (per_coll "heap.verify");
        metric "coproc.start_s" "s" (per_coll "coproc.start");
        metric "coproc.step_s" "s" (per_coll "coproc.step");
        metric "coproc.finalize_s" "s" (per_coll "coproc.finalize");
        metric "coproc.ns_per_executed_cycle" "ns/cycle"
          (ratio (self "coproc.step" *. 1e9) exec_dense);
        metric "coproc.minor_words_per_executed_cycle" "words/cycle"
          (ratio (sum (fun s -> s.P.step_minor_words) dense) exec_dense);
        count "sim.executed_cycles" "cycles" (sim (fun s -> s.P.stats.C.executed_cycles));
        count "sim.skipped_frac" "frac"
          (ratio
             (sim (fun s -> s.P.stats.C.skipped_cycles))
             (sim (fun s -> s.P.stats.C.executed_cycles + s.P.stats.C.skipped_cycles)));
        count "hwsync.scan_lock_stall_frac" "frac" (stall_frac Counters.Scan_lock);
        count "hwsync.free_lock_stall_frac" "frac" (stall_frac Counters.Free_lock);
        count "hwsync.header_lock_stall_frac" "frac" (stall_frac Counters.Header_lock);
        count "coproc.empty_worklist_frac" "frac"
          (ratio (sim (fun s -> s.P.stats.C.empty_worklist_cycles)) total);
        count "memsim.loads" "count" (sim (fun s -> s.P.stats.C.mem_loads));
        count "memsim.stores" "count" (sim (fun s -> s.P.stats.C.mem_stores));
        count "memsim.bw_rejects" "count" (sim (fun s -> s.P.stats.C.mem_rejected_bandwidth));
        count "memsim.order_holds" "count" (sim (fun s -> s.P.stats.C.mem_rejected_order));
        count "memsim.fifo_hit_frac" "frac"
          (ratio
             (sim (fun s -> s.P.stats.C.fifo_hits))
             (sim (fun s -> s.P.stats.C.fifo_hits + s.P.stats.C.fifo_misses)));
        count "memsim.fifo_overflows" "count" (sim (fun s -> s.P.stats.C.fifo_overflows));
        count "memsim.header_load_stall_frac" "frac" (stall_frac Counters.Header_load);
        count "memsim.body_load_stall_frac" "frac" (stall_frac Counters.Body_load);
        metric "banked.collect_s" "s" (per_coll "banked.collect");
        count "banked.supersteps" "count" (bsum (fun b -> b.Banked.supersteps));
        count "banked.remote_per_object" "requests/object"
          (ratio
             (bsum (fun b -> b.Banked.remote_requests))
             (sumi (fun s -> if s.P.bank = None then 0 else s.P.stats.C.live_objects) pass0));
        count "banked.requeues" "count" (bsum (fun b -> b.Banked.requeues));
        count "banked.parked_frac" "frac"
          (ratio
             (bsum (fun b -> b.Banked.parked_steps))
             (bsum (fun b -> b.Banked.supersteps * b.Banked.banks)));
        count "banked.arb_stitch_frac" "frac"
          (ratio
             (bsum (fun b -> b.Banked.arb_cycles + b.Banked.stitch_cycles))
             (sumi (fun s -> if s.P.bank = None then 0 else s.P.stats.C.total_cycles) pass0));
        count "banked.bank_imbalance" "ratio"
          (ratio
             (bsum (fun b -> b.Banked.max_bank_cycles * b.Banked.banks))
             (bsum (fun b -> Array.fold_left ( + ) 0 b.Banked.bank_cycles)));
        metric "report.render_s" "s" (per_coll "report.render");
        count "profile.busy_frac" "frac" busy;
        count "profile.stall_frac" "frac" stall;
        count "profile.idle_frac" "frac" idle;
        metric "trace.overhead" "ratio" (median (Array.of_list !overheads));
        metric "trace.unattributed_frac" "frac" unattributed;
      ]
    end
  in
  let extra =
    metric ~base:Check "failed_frac" "frac"
      (ratio (float_of_int fl.n) (float_of_int !attempted))
    :: metric "collections_per_s" "1/s" cps
    ::
    (if cfg.trace then []
     else
       [
         metric "collection_p50_s" "s" p50;
         metric "collection_tail_s" "s" tail_s;
         metric "sim_mcycles_per_s" "Mcycles/s"
           (float_of_int !measured_cycles /. !measured_s /. 1e6);
       ])
  in
  {
    attempted = !attempted;
    failed = fl.n;
    checks_failed = fl.checks;
    failures = fl.msgs;
    metrics;
    extra;
    samples = Array.length walls;
    tail_pct;
    passes = !passes;
    digest = digest pass0;
    sim_mcycles;
    lanes = lanes_of cfg;
    spans;
  }
