module H = Hsgc_heap.Heap
module Hdr = Hsgc_heap.Header
module Semispace = Hsgc_heap.Semispace
module SB = Hsgc_hwsync.Sync_block
module Mem = Hsgc_memsim.Memsys
module Port = Hsgc_memsim.Port
module Fifo = Hsgc_memsim.Header_fifo
module Kernel = Hsgc_sim.Kernel
module Wake_queue = Hsgc_sim.Wake_queue
module Injector = Hsgc_fault.Injector
module Hooks = Hsgc_sanitizer.Hooks
module Diag = Hsgc_sanitizer.Diag
module San = Hsgc_sanitizer.Sanitizer
module Obs = Hsgc_obs.Tracer
module Prof = Hsgc_obs.Profiler

(* Hot-loop status probes. [Port] and [Sync_block] expose their records
   precisely so that the per-cycle loop can poll status with direct
   field loads: without flambda, [port_idle] and friends are real
   cross-module calls, and the machine makes several of them per core
   per cycle. These same-module wrappers are small enough for the
   closure backend to inline. *)
let port_idle (p : Port.t) = p.Port.st = Port.st_idle
let port_ready (p : Port.t) = p.Port.st = Port.st_ready

type config = {
  n_cores : int;
  mem : Mem.config;
  max_cycles : int;
  scan_unit : int option;
      (* paper Section VII future work: when [Some u], an object whose
         body exceeds [u] words is handed out in [u]-word pieces so that
         several cores can copy one large object concurrently. [None]
         (the default) is the published object-granularity design. *)
  skip : bool;
      (* idle-cycle skipping: event-driven per-core sleeps plus
         fast-forward over globally skippable cycles. All reported
         statistics stay bit-identical; only wall time changes. *)
  faults : Injector.spec option;
      (* fault-injection plan; each simulator instance builds a private
         injector from it, so sweep points stay domain-safe and exactly
         reproducible. [None] = no injector at all (bit-identical to a
         build without the hooks). *)
  cycle_budget : int option;
      (* watchdog: hard bound on total simulated cycles; exceeding it
         raises [Stall_diagnosis] with a machine dump (unlike
         [max_cycles], which indicates simulator divergence). *)
  stall_window : int;
      (* watchdog: executed cycles without any global progress (no
         buffer transition, scan/free frozen) before declaring a stall. *)
  sanitize : San.mode;
      (* machine sanitizer: [Off] (default) attaches nothing — hook
         call sites reduce to one load-and-branch; [Check] records
         findings into [gc_stats]; [Strict] raises [Diag.Violation] on
         the first finding. *)
}

let default_stall_window = 1_000_000

let default_config =
  {
    n_cores = 8;
    mem = Mem.default_config;
    max_cycles = 2_000_000_000;
    scan_unit = None;
    skip = true;
    faults = None;
    cycle_budget = None;
    stall_window = default_stall_window;
    sanitize = San.Off;
  }

let config ?(mem = Mem.default_config) ?scan_unit ?(skip = true) ?faults
    ?cycle_budget ?(stall_window = default_stall_window) ?(sanitize = San.Off)
    ~n_cores () =
  {
    default_config with
    n_cores;
    mem;
    scan_unit;
    skip;
    faults;
    cycle_budget;
    stall_window;
    sanitize;
  }

exception Heap_overflow
exception Simulation_diverged of string

(* ------------------------------------------------------------------ *)
(* Banked-machine attachment (the [Banked] driver's half of the
   machine-variant contract; see docs/PARALLEL.md).

   A machine started with a [remote] record is one *bank* of the banked
   machine: it owns the fromspace home range [rm_lo, rm_hi) and runs a
   private sync block, memory lane and header FIFO. Pointer slots whose
   child lies outside the home range are *not* chased (no header lock,
   no evacuation): the stale fromspace address is stored verbatim and
   the slot is recorded in the bank's outbox, which the driver drains
   at every superstep barrier and routes through the global FIFO
   arbitration step to the child's home bank. Local termination is
   suppressed until the driver observes global quiescence and sets
   [rm_allow_finish]. *)
(* ------------------------------------------------------------------ *)

type remote = {
  rm_bank : int;
  rm_lo : int;  (* home fromspace range [rm_lo, rm_hi) *)
  rm_hi : int;
  mutable rm_allow_finish : bool;
      (* the scan-lock termination probe is a no-op until the driver
         grants it: a bank's worklist can be refilled from outside at
         any barrier, so only the driver can observe termination *)
  (* Outbox of bank-crossing pointer slots, as two parallel flat arrays
     (live prefix [0, rm_n)): the tospace slot address that received
     the stale pointer, and the foreign fromspace child it names. The
     driver drains and resets it at each barrier. *)
  mutable rm_slots : int array;
  mutable rm_children : int array;
  mutable rm_n : int;
  mutable rm_requests : int;  (* total pushes over the run *)
}

let remote_create ~bank ~lo ~hi =
  if lo > hi then invalid_arg "Coprocessor.remote_create: lo > hi";
  {
    rm_bank = bank;
    rm_lo = lo;
    rm_hi = hi;
    rm_allow_finish = false;
    rm_slots = Array.make 16 0;
    rm_children = Array.make 16 0;
    rm_n = 0;
    rm_requests = 0;
  }

(* Dense machines share one inert sentinel: its home range is the whole
   address space (the foreign test [v < rm_lo || v >= rm_hi] is never
   true) and termination is always allowed, so the dense hot path pays
   two integer compares and no option branch. Nothing ever mutates it. *)
let remote_disabled =
  {
    rm_bank = -1;
    rm_lo = min_int;
    rm_hi = max_int;
    rm_allow_finish = true;
    rm_slots = [||];
    rm_children = [||];
    rm_n = 0;
    rm_requests = 0;
  }

let remote_push r ~slot ~child =
  let n = r.rm_n in
  if n = Array.length r.rm_slots then begin
    let cap = if n = 0 then 16 else 2 * n in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 n;
      b
    in
    r.rm_slots <- grow r.rm_slots;
    r.rm_children <- grow r.rm_children
  end;
  r.rm_slots.(n) <- slot;
  r.rm_children.(n) <- child;
  r.rm_n <- n + 1;
  r.rm_requests <- r.rm_requests + 1

(* Stall diagnosis: everything a deadlock post-mortem needs, captured at
   the moment the watchdog tripped. *)

type core_dump = {
  core_id : int;
  microstate : string;
  busy : bool;
  header_lock : int option;
  ports : (string * string) list;  (* buffer name, Port.describe *)
}

type diagnosis = {
  trip : Kernel.Watchdog.trip;
  at_cycle : int;
  d_scan : int;
  d_free : int;
  scan_lock : int option;
  free_lock : int option;
  fifo_depth : int;
  pending_header_stores : int;
  worklist_nonempty : bool;
  core_dumps : core_dump list;
}

exception Stall_diagnosis of diagnosis

let pp_owner ppf = function
  | None -> Format.pp_print_string ppf "free"
  | Some c -> Format.fprintf ppf "held by core %d" c

let pp_diagnosis ppf d =
  Format.fprintf ppf "@[<v>stall at cycle %d: %a@," d.at_cycle
    Kernel.Watchdog.pp_trip d.trip;
  Format.fprintf ppf "scan=%d free=%d (worklist %s)@," d.d_scan d.d_free
    (if d.worklist_nonempty then "nonempty" else "empty");
  Format.fprintf ppf "scan lock: %a   free lock: %a@," pp_owner d.scan_lock
    pp_owner d.free_lock;
  Format.fprintf ppf "header FIFO depth: %d   pending header stores: %d@,"
    d.fifo_depth d.pending_header_stores;
  List.iter
    (fun c ->
      Format.fprintf ppf "core %d: %-17s %s%s@," c.core_id c.microstate
        (if c.busy then "[busy] " else "")
        (match c.header_lock with
        | None -> ""
        | Some a -> Printf.sprintf "[header lock @%d] " a);
      List.iter
        (fun (name, st) ->
          if st <> "idle" then Format.fprintf ppf "  %s: %s@," name st)
        c.ports)
    d.core_dumps;
  Format.fprintf ppf "@]"

let () =
  Printexc.register_printer (function
    | Stall_diagnosis d -> Some (Format.asprintf "%a" pp_diagnosis d)
    | _ -> None)

type gc_stats = {
  total_cycles : int;
  executed_cycles : int;
  skipped_cycles : int;
  wall_seconds : float;
  root_cycles : int;
  empty_worklist_cycles : int;
  per_core : Counters.t array;
  live_objects : int;
  live_words : int;
  fifo_hits : int;
  fifo_misses : int;
  fifo_overflows : int;
  mem_loads : int;
  mem_stores : int;
  mem_rejected_bandwidth : int;
  mem_rejected_order : int;
  header_cache_hits : int;
  header_cache_misses : int;
  faults_injected : int;
  corruptions_injected : int;
  sanitizer_findings : Diag.t list;
      (* kept (deduplicated, capped) sanitizer findings; [] when the
         sanitizer was off or silent *)
  sanitizer_total : int;
      (* all sanitizer findings including deduplicated repeats *)
}

let stalls_total stats =
  Array.fold_left Counters.add (Counters.create ()) stats.per_core

let stalls_mean_per_core stats =
  let n = Array.length stats.per_core in
  Counters.scale (stalls_total stats) (1.0 /. float_of_int n)

(* Where the evacuation sub-machine returns once both header stores of the
   freshly grayed object have been issued. *)
type return_point = Ret_slot | Ret_root

type state =
  | Init  (* core 0: initialize scan and free *)
  | Root_next  (* core 0: evacuate the next root slot *)
  | Root_header_wait
  | Start_barrier
  | Try_lock_scan
  | Scan_header_wait  (* scan lock held, gray header load in flight *)
  | Body_issue_load
  | Body_wait
  | Lock_child
  | Child_header_wait
  | Lock_free
  | Evac_store_fwd
  | Evac_store_gray
  | Store_slot
  | Piece_done  (* sub-object mode: retire one piece of a split frame *)
  | Blacken
  | Flush
  | End_barrier
  | Halt

type core = {
  id : int;
  mutable state : state;
  (* register file *)
  mutable obj_to : int;  (* tospace frame of the object being scanned *)
  mutable obj_from : int;  (* its fromspace original (via backlink) *)
  mutable h0 : int;  (* header word 0 of the object being scanned *)
  mutable slot : int;  (* body word index within the object *)
  mutable slot_limit : int;  (* exclusive end of this work item *)
  mutable whole : bool;  (* item covers the whole object (usual case) *)
  mutable child : int;  (* pointer value under translation *)
  mutable child_h0 : int;
  mutable value : int;  (* word about to be stored into the copy *)
  mutable evac_new : int;  (* frame claimed for an evacuation *)
  mutable root_idx : int;
  mutable ret : return_point;
  (* the four memory buffers *)
  hl : Port.t;
  hs : Port.t;
  bl : Port.t;
  bs : Port.t;
  counters : Counters.t;
  (* Stall latch for bulk crediting during whole-machine idle-cycle
     skips: the cycle number of the most recent stall and its category.
     A core whose latch carries the just-executed cycle would stall
     identically in every skipped replay of it. *)
  mutable stall_cycle : int;
  mutable stall_kind : Counters.stall;
  (* Event-driven scheduling: the earliest cycle at which this core must
     be stepped again. Awake cores carry [cycle + 1] (with skipping off,
     0 — always stepped); a sleeping core carries the wake time it armed
     in the wake queue; a halted core carries [max_int]. *)
  mutable wake : int;
  (* Sync-block parking (see "Parking sync-block waiters"): while this
     core's bit is set in [parked_mask], what it waits on ([park_kind])
     and the first parked cycle not yet credited to its counters. The
     stalls are bulk-credited when the change it waits for wakes it. *)
  mutable park_cycle : int;
  mutable park_kind : int;
  (* The core holding the header lock this core's last failed
     [Lock_child] acquire ran into: the header-lock waiter's wake
     source. *)
  mutable blocker : int;
}

type t = {
  cfg : config;
  (* The fast path's guards hold (see "The fast path" below).
     Determined once at [start]; a per-[step] trace still drops out of
     it for that step. *)
  fast : bool;
  (* No fault plan or tracer can observe a port: [tick_ports] and the
     body-buffer issue take their inlined fast paths. *)
  plain_ports : bool;
  (* Deferred watchdog progress observation of the exclusive
     interpreter: the cycle of the latest progressed cycle not yet
     reported to the watchdog, or -1. Always flushed (-1) outside
     [step], so snapshots never see a pending deferral. *)
  mutable wd_defer : int;
  (* Parked sync-block waiters, as a bit per core id: every parked
     core, then the three wait kinds — scan-lock spinners, header-lock
     waiters grouped by the holding core (with the address they wait
     on), and empty-worklist waiters. A parked core is
     indistinguishable from a per-cycle waiter except in host work:
     its failed attempts read nothing another core can change until
     the change that wakes it, so they are replayed in bulk. Always
     empty off the parking path ([unpark_all] flushes on any
     fallback), so per-cycle stepping and snapshots never observe a
     parked core. *)
  mutable parked_mask : int;
  mutable scan_waiters : int;
  hdr_waiters : int array;
  hdr_wait_addr : int array;
  mutable empty_waiters : int;
  (* Empty-worklist waiters parked during the current cycle: their
     first replayed probe is the next cycle's. *)
  mutable empty_fresh : int;
  (* The scan-lock and empty-worklist waiters woken and not yet
     stepped, or -1: those two kinds are woken one at a time. *)
  mutable scan_pending : int;
  mutable empty_pending : int;
  (* Set when a wake hands some core a turn in the current cycle. *)
  mutable woke_due : bool;
  (* Stepping scratch (no per-cycle allocation): ids of the cores
     due this cycle, and ids of the cores left awake for the next cycle
     (wake = now + 1 after stepping). The awake list bounds the quiet
     fast-forward scan and the bulk skip credit to the cores that can
     actually act, instead of rescanning the whole array. *)
  due_ids : int array;
  awake_ids : int array;
  heap : H.t;
  sb : SB.t;
  mem : Mem.t;
  fifo : Fifo.t;
  (* Banked-machine attachment; [remote_disabled] (physically shared)
     for the paper's dense machine. *)
  remote : remote;
  (* One hook record shared by the SB, the memory system, every port
     and the microprogram call sites below. Always present — even with
     the sanitizer off it carries the current cycle, so structured
     protocol diagnostics get cycle context in plain runs too. *)
  hooks : Hooks.t;
  san : San.t;
  mutable san_seen : int;  (* findings already annotated into the trace *)
  (* Observability: the event/span tracer and the stall-attribution
     profiler. Both default to shared never-enabled instances, so in
     plain runs every instrumentation site reduces to one
     load-and-branch (the Hooks discipline). *)
  obs : Obs.t;
  prof : Prof.t;
  cores : core array;
  tospace_limit : int;
  clock : Kernel.t;
  faults : Injector.t;
  watchdog : Kernel.Watchdog.t;
  (* Transition counter shared with every memory buffer: zeroed at the
     top of each cycle, bumped by any buffer status change and by the
     few core transitions that touch no buffer and no shared register
     ([mark] below). A cycle that ends with it still at zero — and with
     scan/free unmoved — was a pure replay and is skippable. *)
  events : int ref;
  (* Wake queue for event-driven stepping: sleeping cores arm their wake
     time here; re-arms supersede lazily (no heap deletion). *)
  wakeq : Wake_queue.t;
  mutable n_halted : int;
  mutable finished : bool;  (* termination detected, broadcast to all cores *)
  mutable saw_empty : bool;  (* set during the current cycle *)
  mutable parallel_phase : bool;
  mutable parallel_start : int;
  mutable empty_cycles : int;
  (* Sub-object mode: the frame currently being handed out in pieces.
     All four registers are guarded by the scan lock. *)
  mutable cur_frame : int;  (* 0 = none *)
  mutable cur_h0 : int;
  mutable cur_from : int;
  mutable cur_next_slot : int;
  (* Outstanding pieces per split frame, indexed by [frame -
     pieces_base] (the tospace base): a flat array instead of a hash
     table keeps the piece-retire path allocation-free. Only allocated
     at heap size in sub-object mode. *)
  pieces : int array;
  pieces_base : int;
}

type sim = t

let now t = t.clock.Kernel.now

let make_core ~events ~faults ~hooks ~obs id =
  {
    id;
    state = (if id = 0 then Init else Start_barrier);
    obj_to = 0;
    obj_from = 0;
    h0 = 0;
    slot = 0;
    slot_limit = 0;
    whole = true;
    child = 0;
    child_h0 = 0;
    value = 0;
    evac_new = 0;
    root_idx = 0;
    ret = Ret_slot;
    hl = Port.create ~events ~faults ~hooks ~obs ~owner:id Port.Header_load;
    hs = Port.create ~events ~faults ~hooks ~obs ~owner:id Port.Header_store;
    bl = Port.create ~events ~faults ~hooks ~obs ~owner:id Port.Body_load;
    bs = Port.create ~events ~faults ~hooks ~obs ~owner:id Port.Body_store;
    counters = Counters.create ();
    stall_cycle = -1;
    stall_kind = Counters.Scan_lock;
    wake = 0;
    park_cycle = 0;
    park_kind = 0;
    blocker = -1;
  }

let busy_buffer () =
  failwith "coprocessor: issued into a busy buffer (microprogram bug)"

let issue_exn port mem ~now ~addr =
  if not (Port.issue port mem ~now ~addr) then busy_buffer ()

(* Issue into a body-class buffer ([bl] with [load], else [bs]). With
   [t.plain_ports] the [Port.issue] → [Memsys.accept_*] chain is
   inlined: a body transaction never touches the header cache, the
   comparator array or the FIFO, so its acceptance is exactly the
   bandwidth check, and no fault can delay it. *)
let issue_body t (p : Port.t) ~load ~addr =
  if not t.plain_ports then issue_exn p t.mem ~now:t.clock.Kernel.now ~addr
  else if p.Port.st <> Port.st_idle then busy_buffer ()
  else begin
    let m = t.mem and now = t.clock.Kernel.now in
    p.Port.issued_at <- now;
    p.Port.addr <- addr;
    incr t.events;
    let cfgm = m.Mem.config in
    if m.Mem.accepted_this_cycle < cfgm.Mem.bandwidth then begin
      m.Mem.accepted_this_cycle <- m.Mem.accepted_this_cycle + 1;
      if load then begin
        m.Mem.loads <- m.Mem.loads + 1;
        p.Port.done_at <- now + cfgm.Mem.body_load_latency
      end
      else begin
        m.Mem.stores <- m.Mem.stores + 1;
        p.Port.done_at <- now + cfgm.Mem.store_latency
      end;
      p.Port.st <- Port.st_in_flight;
      incr t.events
    end
    else begin
      m.Mem.rejected_bandwidth <- m.Mem.rejected_bandwidth + 1;
      p.Port.st <- Port.st_waiting
    end
  end

let stall t core kind =
  (* [Counters.bump] inlined (a stalled core runs this every cycle; the
     cross-module call was measurable in dense legs). *)
  let c = core.counters in
  (match kind with
  | Counters.Scan_lock -> c.Counters.scan_lock <- c.Counters.scan_lock + 1
  | Counters.Free_lock -> c.Counters.free_lock <- c.Counters.free_lock + 1
  | Counters.Header_lock ->
    c.Counters.header_lock <- c.Counters.header_lock + 1
  | Counters.Body_load -> c.Counters.body_load <- c.Counters.body_load + 1
  | Counters.Body_store -> c.Counters.body_store <- c.Counters.body_store + 1
  | Counters.Header_load ->
    c.Counters.header_load <- c.Counters.header_load + 1
  | Counters.Header_store ->
    c.Counters.header_store <- c.Counters.header_store + 1);
  core.stall_cycle <- t.clock.Kernel.now;
  core.stall_kind <- kind

(* A core transition that touches no memory buffer and no shared
   register still disqualifies the cycle from skipping. *)
let mark t = incr t.events

(* [Port.consume] for a load buffer the caller has just seen ready. *)
let consume_ready t (p : Port.t) =
  p.Port.st <- Port.st_idle;
  incr t.events

(* Write one body word into the tospace copy and advance the slot loop.
   Issues the body store and, when another slot remains, the next body
   load in the same cycle (the cores can initiate several memory
   operations per cycle). *)
let store_and_advance t core v =
  if t.hooks.Hooks.on then
    t.hooks.Hooks.word_written ~core:core.id ~base:core.obj_to
      ~addr:(core.obj_to + Hdr.header_words + core.slot);
  (* Corruption-class fault: flip one bit of the word as written to the
     tospace copy. Control flow below uses the clean [v] (and the copy
     is never re-read during a stop-the-world cycle), so the collection
     still terminates — only the verifier can notice, which is exactly
     the detection-coverage question the harness measures. *)
  t.heap.H.mem.(core.obj_to + Hdr.header_words + core.slot) <-
    Injector.corrupt_body t.faults v;
  issue_body t core.bs ~load:false
    ~addr:(core.obj_to + Hdr.header_words + core.slot);
  core.counters.words_copied <- core.counters.words_copied + 1;
  core.slot <- core.slot + 1;
  if core.slot >= core.slot_limit then
    core.state <- (if core.whole then Blacken else Piece_done)
  else if port_idle core.bl then begin
    issue_body t core.bl ~load:true
      ~addr:(core.obj_from + Hdr.header_words + core.slot);
    core.state <- Body_wait
  end
  else core.state <- Body_issue_load

(* Take the gray object whose frame sits at [scan]: record its registers,
   advance [scan] past it, release the scan lock and raise the busy bit.
   The caller has already obtained the frame's header (FIFO or memory).
   In sub-object mode a large object is only partially taken: [scan]
   advances by one piece and the frame's registers stay latched in the
   synchronization block for the next grabber. *)
let rec begin_object t core ~frame =
  (* The grab is the handoff point of the protocol: the scan-lock holder
     takes over the frame the evacuator produced. Claiming the header
     words before reading them starts a fresh lockset epoch, so the
     evacuator's earlier (free-claim-protected) header writes never
     falsely intersect with the grabber's scan-locked reads — this is
     the same-cycle release→acquire handoff the sanitizer must accept. *)
  if t.hooks.Hooks.on then begin
    t.hooks.Hooks.range_claimed ~core:core.id ~lo:frame
      ~hi:(frame + Hdr.header_words);
    t.hooks.Hooks.word_read ~core:core.id ~base:frame ~addr:frame
  end;
  let h0 = t.heap.H.mem.(frame) in
  if Hdr.state h0 = Black then begin
    (* A frame allocated black by the main processor during a concurrent
       cycle: nothing to scan, step over it. *)
    SB.advance_scan t.sb ~core:core.id (Hdr.size h0);
    SB.unlock_scan t.sb ~core:core.id;
    core.state <- Try_lock_scan
  end
  else begin_gray_object t core ~frame ~h0

and begin_gray_object t core ~frame ~h0 =
  let body = Hdr.pi h0 + Hdr.delta h0 in
  let split_over =
    match t.cfg.scan_unit with
    | Some u when body > u -> Some u
    | Some _ | None -> None
  in
  core.h0 <- h0;
  core.obj_to <- frame;
  if t.hooks.Hooks.on then
    t.hooks.Hooks.word_read ~core:core.id ~base:frame ~addr:(frame + 1);
  core.obj_from <- t.heap.H.mem.(frame + 1);
  core.slot <- 0;
  (match split_over with
  | None ->
    core.slot_limit <- body;
    core.whole <- true;
    (* Scan-latency histogram: grab-to-blacken, whole objects only
       (pieces of a split frame have no single owner interval). *)
    if t.obs.Obs.on then Obs.object_begun t.obs ~core:core.id;
    SB.advance_scan t.sb ~core:core.id (Hdr.size h0);
    if t.hooks.Hooks.on then begin
      (* The whole work item: the tospace copy under construction and
         the fromspace body it is copied from. *)
      t.hooks.Hooks.range_claimed ~core:core.id ~lo:frame
        ~hi:(frame + Hdr.size h0);
      t.hooks.Hooks.range_claimed ~core:core.id
        ~lo:(core.obj_from + Hdr.header_words)
        ~hi:(core.obj_from + Hdr.size h0)
    end
  | Some u ->
    core.slot_limit <- u;
    core.whole <- false;
    t.cur_frame <- frame;
    t.cur_h0 <- h0;
    t.cur_from <- core.obj_from;
    t.cur_next_slot <- u;
    t.pieces.(frame - t.pieces_base) <- ((body - 1) / u) + 1;
    (* the first piece carries the two header words *)
    SB.advance_scan t.sb ~core:core.id (Hdr.header_words + u);
    if t.hooks.Hooks.on then begin
      t.hooks.Hooks.range_claimed ~core:core.id ~lo:frame
        ~hi:(frame + Hdr.header_words + u);
      t.hooks.Hooks.range_claimed ~core:core.id
        ~lo:(core.obj_from + Hdr.header_words)
        ~hi:(core.obj_from + Hdr.header_words + u)
    end);
  SB.unlock_scan t.sb ~core:core.id;
  SB.set_busy t.sb ~core:core.id true;
  core.counters.objects_scanned <- core.counters.objects_scanned + 1;
  if body = 0 then core.state <- Blacken else core.state <- Body_issue_load

(* Hand out the next piece of the frame latched in [cur_frame]; the
   caller holds the scan lock. Costs one cycle and no header access. *)
let begin_piece t core =
  let u = Option.get t.cfg.scan_unit in
  let body = Hdr.pi t.cur_h0 + Hdr.delta t.cur_h0 in
  let start = t.cur_next_slot in
  let stop = min body (start + u) in
  core.h0 <- t.cur_h0;
  core.obj_to <- t.cur_frame;
  core.obj_from <- t.cur_from;
  core.slot <- start;
  core.slot_limit <- stop;
  core.whole <- false;
  SB.advance_scan t.sb ~core:core.id (stop - start);
  if t.hooks.Hooks.on then begin
    t.hooks.Hooks.range_claimed ~core:core.id
      ~lo:(core.obj_to + Hdr.header_words + start)
      ~hi:(core.obj_to + Hdr.header_words + stop);
    t.hooks.Hooks.range_claimed ~core:core.id
      ~lo:(core.obj_from + Hdr.header_words + start)
      ~hi:(core.obj_from + Hdr.header_words + stop)
  end;
  t.cur_next_slot <- stop;
  if stop = body then t.cur_frame <- 0;
  SB.unlock_scan t.sb ~core:core.id;
  SB.set_busy t.sb ~core:core.id true;
  core.state <- Body_issue_load

let step_init t core =
  let base = (H.to_space t.heap).Semispace.base in
  SB.set_scan t.sb base;
  SB.set_free t.sb base;
  core.root_idx <- 0;
  core.state <- Root_next;
  mark t

let step_root_next t core =
  let roots = t.heap.H.roots in
  if core.root_idx >= Array.length roots then begin
    core.state <- Start_barrier;
    mark t
  end
  else begin
    let r = roots.(core.root_idx) in
    if r = H.null then begin
      core.root_idx <- core.root_idx + 1;
      mark t
    end
    else begin
      (* Uncontended during the root phase, but the protocol is kept
         identical to the scanning loop. *)
      if not (SB.try_lock_header t.sb ~core:core.id ~addr:r) then stall t core Header_lock
      else if port_idle core.hl then begin
        issue_exn core.hl t.mem ~now:(now t) ~addr:r;
        core.state <- Root_header_wait
      end
      else begin
        SB.unlock_header t.sb ~core:core.id;
        stall t core Header_load
      end
    end
  end

let step_root_header_wait t core =
  if not (port_ready core.hl) then stall t core Header_load
  else begin
    consume_ready t core.hl;
    let r = t.heap.H.roots.(core.root_idx) in
    if t.hooks.Hooks.on then
      t.hooks.Hooks.word_read ~core:core.id ~base:r ~addr:r;
    let w0 = t.heap.H.mem.(r) in
    match Hdr.state w0 with
    | White | Black ->
      (* Black here is a survivor of the previous cycle: only Gray means
         "evacuated in this cycle", so states never need resetting
         between cycles. *)
      core.child <- r;
      core.child_h0 <- w0;
      core.ret <- Ret_root;
      core.state <- Lock_free
    | Gray ->
      (* Another root slot already evacuated this object: follow the
         forwarding pointer installed in its header. *)
      if t.hooks.Hooks.on then
        t.hooks.Hooks.word_read ~core:core.id ~base:r ~addr:(r + 1);
      t.heap.H.roots.(core.root_idx) <- t.heap.H.mem.(r + 1);
      SB.unlock_header t.sb ~core:core.id;
      core.root_idx <- core.root_idx + 1;
      core.state <- Root_next
  end

let step_start_barrier t core =
  if SB.barrier_arrive t.sb ~core:core.id then begin
    if not t.parallel_phase then begin
      t.parallel_phase <- true;
      t.parallel_start <- now t
    end;
    core.state <- Try_lock_scan;
    mark t
  end

let step_try_lock_scan t core =
  if t.finished then begin
    core.state <- Flush;
    mark t
  end
  else if
    (* Fast-fail: a lock visibly held by another core loses without the
       cross-module call (contended spins run this every cycle). Owner =
       self still goes through [SB.try_lock_scan] so the re-entry
       protocol check fires. *)
    (let o = t.sb.SB.scan_owner in
     o >= 0 && o <> core.id)
    || not (SB.try_lock_scan t.sb ~core:core.id)
  then begin
    stall t core Scan_lock;
    if t.sb.SB.scan = t.sb.SB.free then t.saw_empty <- true
  end
  else if t.sb.SB.scan = t.sb.SB.free then begin
    t.saw_empty <- true;
    (* Termination: the worklist is empty and no core is scanning an
       object (its evacuations could refill the worklist). Checked while
       holding the scan lock, so no evacuation can race with it. A bank
       of the banked machine must additionally hold the driver's grant
       ([rm_allow_finish]): its worklist can be refilled from another
       bank at any superstep barrier. *)
    if t.remote.rm_allow_finish && SB.none_busy_except t.sb ~core:core.id
    then begin
      t.finished <- true;
      SB.unlock_scan t.sb ~core:core.id;
      core.state <- Flush;
      mark t
    end
    else
      (* The probe failed: the lock is released with nothing changed, so
         the cycle replays identically — deliberately no [mark]. *)
      SB.unlock_scan t.sb ~core:core.id
  end
  else if t.cur_frame <> 0 then begin_piece t core
  else begin
    let frame = t.sb.SB.scan in
    if Fifo.try_pop t.fifo frame then begin_object t core ~frame
    else begin
      issue_exn core.hl t.mem ~now:(now t) ~addr:frame;
      core.state <- Scan_header_wait
    end
  end

let step_scan_header_wait t core =
  if port_ready core.hl then begin
    consume_ready t core.hl;
    begin_object t core ~frame:(t.sb.SB.scan)
  end
  else stall t core Header_load

let step_body_issue_load t core =
  if port_idle core.bl then begin
    issue_body t core.bl ~load:true
      ~addr:(core.obj_from + Hdr.header_words + core.slot);
    core.state <- Body_wait
  end
  else stall t core Body_load

let step_body_wait t core =
  if not (port_ready core.bl) then stall t core Body_load
  else begin
    if t.hooks.Hooks.on then
      t.hooks.Hooks.word_read ~core:core.id ~base:core.obj_from
        ~addr:(core.obj_from + Hdr.header_words + core.slot);
    let v = t.heap.H.mem.(core.obj_from + Hdr.header_words + core.slot) in
    if
      core.slot < Hdr.pi core.h0
      && v <> H.null
      && v >= t.remote.rm_lo
      && v < t.remote.rm_hi
    then begin
      consume_ready t core.bl;
      core.child <- v;
      core.state <- Lock_child
    end
    else if port_idle core.bs then begin
      (* Data word (or null pointer): copied verbatim. Store of this word
         and load of the next are initiated in the same cycle. A
         bank-crossing pointer (banked machine only) takes this path
         too — stored stale and recorded in the outbox, to be patched by
         the driver's FIFO arbitration step at a superstep barrier. *)
      consume_ready t core.bl;
      if core.slot < Hdr.pi core.h0 && v <> H.null then
        remote_push t.remote
          ~slot:(core.obj_to + Hdr.header_words + core.slot)
          ~child:v;
      store_and_advance t core v
    end
    else stall t core Body_store
  end

let step_lock_child t core =
  let owner = SB.acquire_header t.sb ~core:core.id ~addr:core.child in
  if owner >= 0 then begin
    core.blocker <- owner;
    stall t core Header_lock
  end
  else begin
    (* Acquisition is free in the uncontended case: the header load is
       initiated in the same cycle. *)
    issue_exn core.hl t.mem ~now:(now t) ~addr:core.child;
    core.state <- Child_header_wait
  end

let step_child_header_wait t core =
  if not (port_ready core.hl) then stall t core Header_load
  else begin
    consume_ready t core.hl;
    if t.hooks.Hooks.on then
      t.hooks.Hooks.word_read ~core:core.id ~base:core.child ~addr:core.child;
    let w0 = t.heap.H.mem.(core.child) in
    match Hdr.state w0 with
    | White | Black ->
      (* Not yet evacuated in this cycle (Black = survivor of the
         previous cycle). *)
      core.child_h0 <- w0;
      core.ret <- Ret_slot;
      core.state <- Lock_free
    | Gray ->
      (* Already evacuated: take the forwarding pointer. *)
      if t.hooks.Hooks.on then
        t.hooks.Hooks.word_read ~core:core.id ~base:core.child
          ~addr:(core.child + 1);
      core.value <- t.heap.H.mem.(core.child + 1);
      SB.unlock_header t.sb ~core:core.id;
      core.state <- Store_slot
  end

let step_lock_free t core =
  if
    (let o = t.sb.SB.free_owner in
     o >= 0 && o <> core.id)
    || not (SB.try_lock_free t.sb ~core:core.id)
  then stall t core Free_lock
  else begin
    (* One-cycle critical section: the lock only guards the read-increment
       of the free register. The header stores happen outside it; the
       comparator array orders any subsequent load behind them. *)
    let size = Hdr.size core.child_h0 in
    let addr = SB.claim_free t.sb ~core:core.id size in
    if t.sb.SB.free > t.tospace_limit then raise Heap_overflow;
    (* The gray tospace header is captured into the on-chip FIFO before
       [free] is incremented becomes visible (the paper installs the
       backlink inside the free critical section for exactly this
       ordering), so a frame below [free] always has its FIFO entry — a
       grabber never takes the slow memory path unless the FIFO
       overflowed. The header's memory store is issued afterwards
       (Evac_store_gray) and only models timing. *)
    if t.hooks.Hooks.on then begin
      (* [claim_free] granted this core ownership of the fresh frame's
         header words (reported through the SB hook), so these stores
         carry the owner protection. *)
      t.hooks.Hooks.word_written ~core:core.id ~base:addr ~addr;
      t.hooks.Hooks.word_written ~core:core.id ~base:addr ~addr:(addr + 1)
    end;
    H.set_header0 t.heap addr
      (Hdr.encode ~state:Gray ~pi:(Hdr.pi core.child_h0)
         ~delta:(Hdr.delta core.child_h0));
    H.set_header1 t.heap addr core.child;
    ignore (Fifo.push t.fifo addr);
    SB.unlock_free t.sb ~core:core.id;
    core.evac_new <- addr;
    core.counters.objects_evacuated <- core.counters.objects_evacuated + 1;
    core.state <- Evac_store_fwd
  end

let step_evac_store_fwd t core =
  if not (port_idle core.hs) then stall t core Header_store
  else begin
    (* Gray the fromspace original: mark + forwarding pointer. *)
    if t.hooks.Hooks.on then begin
      t.hooks.Hooks.word_written ~core:core.id ~base:core.child
        ~addr:core.child;
      t.hooks.Hooks.word_written ~core:core.id ~base:core.child
        ~addr:(core.child + 1);
      t.hooks.Hooks.forward_installed ~core:core.id ~from_:core.child
        ~to_:core.evac_new
    end;
    H.set_header0 t.heap core.child (Hdr.with_state core.child_h0 Gray);
    H.set_header1 t.heap core.child core.evac_new;
    issue_exn core.hs t.mem ~now:(now t) ~addr:core.child;
    core.state <- Evac_store_gray
  end

let step_evac_store_gray t core =
  if not (port_idle core.hs) then stall t core Header_store
  else begin
    (* Gray tospace frame store: contents were captured at claim time;
       this transaction carries the timing (and arms the comparator array
       for readers that missed the FIFO). *)
    issue_exn core.hs t.mem ~now:(now t) ~addr:core.evac_new;
    SB.unlock_header t.sb ~core:core.id;
    match core.ret with
    | Ret_slot ->
      core.value <- core.evac_new;
      core.state <- Store_slot
    | Ret_root ->
      t.heap.H.roots.(core.root_idx) <- core.evac_new;
      core.root_idx <- core.root_idx + 1;
      core.state <- Root_next
  end

let step_store_slot t core =
  if port_idle core.bs then store_and_advance t core core.value
  else stall t core Body_store

let step_piece_done t core =
  (* Retire one piece: the outstanding-piece count of the frame is
     decremented under the frame's header lock (the hardware keeps it in
     the header word); the last piece blackens the object. *)
  if not (SB.try_lock_header t.sb ~core:core.id ~addr:core.obj_to) then
    stall t core Header_lock
  else begin
    let idx = core.obj_to - t.pieces_base in
    let left = t.pieces.(idx) in
    if left = 0 then failwith "coprocessor: piece accounting lost (bug)";
    t.pieces.(idx) <- left - 1;
    (* The retirer of the last piece blackens the header; it takes over
       the frame's header words here, while still holding the header
       lock (piece bodies were claimed piecewise at grab time). *)
    if left = 1 && t.hooks.Hooks.on then
      t.hooks.Hooks.range_claimed ~core:core.id ~lo:core.obj_to
        ~hi:(core.obj_to + Hdr.header_words);
    SB.unlock_header t.sb ~core:core.id;
    mark t;
    if left = 1 then core.state <- Blacken
    else begin
      SB.set_busy t.sb ~core:core.id false;
      core.state <- Try_lock_scan
    end
  end

let step_blacken t core =
  if not (port_idle core.hs) then stall t core Header_store
  else begin
    if t.hooks.Hooks.on then begin
      t.hooks.Hooks.word_written ~core:core.id ~base:core.obj_to
        ~addr:core.obj_to;
      t.hooks.Hooks.word_written ~core:core.id ~base:core.obj_to
        ~addr:(core.obj_to + 1)
    end;
    (* Corruption-class fault: the blackened header is behind [scan] and
       never re-read during this cycle, so a flipped state/π/δ bit is
       invisible to the machine — the wall-to-wall verification parse
       must catch it. *)
    H.set_header0 t.heap core.obj_to
      (Injector.corrupt_header t.faults
         (Hdr.encode ~state:Black ~pi:(Hdr.pi core.h0)
            ~delta:(Hdr.delta core.h0)));
    H.set_header1 t.heap core.obj_to 0;
    issue_exn core.hs t.mem ~now:(now t) ~addr:core.obj_to;
    SB.set_busy t.sb ~core:core.id false;
    if t.obs.Obs.on && core.whole then Obs.object_done t.obs ~core:core.id;
    if t.hooks.Hooks.on && core.whole then begin
      (* The finished work item: ownership of the copy and of the
         consumed fromspace body ends here. *)
      t.hooks.Hooks.range_released ~core:core.id ~lo:core.obj_to
        ~hi:(core.obj_to + Hdr.size core.h0);
      if core.obj_from <> 0 then
        t.hooks.Hooks.range_released ~core:core.id
          ~lo:(core.obj_from + Hdr.header_words)
          ~hi:(core.obj_from + Hdr.size core.h0)
    end;
    core.state <- Try_lock_scan
  end

let step_flush t core =
  if
    port_idle core.hl && port_idle core.hs && port_idle core.bl
    && port_idle core.bs
  then begin
    core.state <- End_barrier;
    mark t
  end

let step_end_barrier t core =
  if SB.barrier_arrive t.sb ~core:core.id then begin
    SB.assert_no_locks t.sb ~core:core.id;
    core.state <- Halt;
    core.wake <- max_int;
    t.n_halted <- t.n_halted + 1;
    (* A halted core leaves the stepping paths; the profiler pads the
       rest of the collection as idle at [close] time. *)
    if t.prof.Prof.on then
      Prof.note_halt t.prof ~core:core.id ~cycle:(now t);
    mark t
  end

(* One-character activity code per core for the signal trace. *)
let state_code = function
  | Init -> 'I'
  | Root_next | Root_header_wait -> 'R'
  | Start_barrier | End_barrier -> 'B'
  | Try_lock_scan -> '.'
  | Scan_header_wait -> 's'
  | Body_issue_load | Body_wait | Store_slot -> 'c'
  | Lock_child -> 'l'
  | Child_header_wait -> 'h'
  | Lock_free | Evac_store_fwd | Evac_store_gray -> 'e'
  | Piece_done -> 'p'
  | Blacken -> 'k'
  | Flush -> 'f'
  | Halt -> ' '

let state_name = function
  | Init -> "init"
  | Root_next -> "root-next"
  | Root_header_wait -> "root-header-wait"
  | Start_barrier -> "start-barrier"
  | Try_lock_scan -> "try-lock-scan"
  | Scan_header_wait -> "scan-header-wait"
  | Body_issue_load -> "body-issue-load"
  | Body_wait -> "body-wait"
  | Lock_child -> "lock-child"
  | Child_header_wait -> "child-header-wait"
  | Lock_free -> "lock-free"
  | Evac_store_fwd -> "evac-store-fwd"
  | Evac_store_gray -> "evac-store-gray"
  | Store_slot -> "store-slot"
  | Piece_done -> "piece-done"
  | Blacken -> "blacken"
  | Flush -> "flush"
  | End_barrier -> "end-barrier"
  | Halt -> "halt"

(* --- observability classification --------------------------------- *)

(* Stall ids in [Counters.all_stalls] order — shared by the tracer's
   stall-span events and the profiler's buckets 1..7. *)
let stall_index = function
  | Counters.Scan_lock -> 0
  | Counters.Free_lock -> 1
  | Counters.Header_lock -> 2
  | Counters.Body_load -> 3
  | Counters.Body_store -> 4
  | Counters.Header_load -> 5
  | Counters.Header_store -> 6

(* Profiler attribution for a cycle without a stall latch, keyed on the
   core's post-step state. Wait-only states — seeking work, barrier
   waits, buffer draining, halted — are idle; everything else made
   forward progress. The same function classifies stepped cycles and
   their skipped replays, so the attribution is bit-identical under
   naive and event-driven stepping. *)
let prof_bucket_of_state = function
  | Try_lock_scan | Start_barrier | End_barrier | Flush | Halt ->
    Prof.bucket_idle
  | Init | Root_next | Root_header_wait | Scan_header_wait | Body_issue_load
  | Body_wait | Lock_child | Child_header_wait | Lock_free | Evac_store_fwd
  | Evac_store_gray | Store_slot | Piece_done | Blacken -> Prof.bucket_busy

(* Microprogram states folded to the tracer's algorithm-level phases. *)
let phase_of_state = function
  | Init -> Obs.phase_init
  | Root_next | Root_header_wait -> Obs.phase_roots
  | Start_barrier | End_barrier -> Obs.phase_barrier
  | Try_lock_scan | Scan_header_wait -> Obs.phase_scan
  | Body_issue_load | Body_wait | Lock_child | Child_header_wait | Lock_free
  | Evac_store_fwd | Evac_store_gray | Store_slot | Piece_done | Blacken ->
    Obs.phase_copy
  | Flush -> Obs.phase_flush
  | Halt -> Obs.phase_halt

(* One core step, then the busy-cycle bump. Hook and tracer sites in
   the step functions are one load-and-branch each when off. *)
let step_core t core =
  (match core.state with
  | Init -> step_init t core
  | Root_next -> step_root_next t core
  | Root_header_wait -> step_root_header_wait t core
  | Start_barrier -> step_start_barrier t core
  | Try_lock_scan -> step_try_lock_scan t core
  | Scan_header_wait -> step_scan_header_wait t core
  | Body_issue_load -> step_body_issue_load t core
  | Body_wait -> step_body_wait t core
  | Lock_child -> step_lock_child t core
  | Child_header_wait -> step_child_header_wait t core
  | Lock_free -> step_lock_free t core
  | Evac_store_fwd -> step_evac_store_fwd t core
  | Evac_store_gray -> step_evac_store_gray t core
  | Store_slot -> step_store_slot t core
  | Piece_done -> step_piece_done t core
  | Blacken -> step_blacken t core
  | Flush -> step_flush t core
  | End_barrier -> step_end_barrier t core
  | Halt -> ());
  if t.sb.SB.busy.(core.id) then
    core.counters.busy_cycles <- core.counters.busy_cycles + 1

let all_halted t = t.n_halted = Array.length t.cores

let start ?(obs = Obs.disabled) ?(prof = Prof.disabled) ?remote cfg heap =
  if cfg.n_cores < 1 then invalid_arg "Coprocessor.start: n_cores must be >= 1";
  if obs.Obs.on && Obs.n_cores obs < cfg.n_cores then
    invalid_arg "Coprocessor.start: tracer sized for fewer cores";
  if prof.Prof.on && Prof.n_cores prof < cfg.n_cores then
    invalid_arg "Coprocessor.start: profiler sized for fewer cores";
  if Option.is_some remote && Option.is_some cfg.scan_unit then
    (* Sub-object pieces would split one object's slots across
       arbitration rounds of the banked machine. *)
    invalid_arg
      "Coprocessor.start: a banked-machine bank does not support \
       sub-object scanning (scan_unit)";
  let faults =
    match cfg.faults with
    | None -> Injector.disabled
    | Some spec -> Injector.create spec
  in
  let hooks = Hooks.create () in
  let san =
    San.create ~mode:cfg.sanitize ~mem_words:(Array.length heap.H.mem)
      ~n_cores:cfg.n_cores ~header_words:Hdr.header_words hooks
  in
  let mem =
    Mem.create ~faults ~hooks ~obs
      ?lane:(match remote with None -> None | Some r -> Some r.rm_bank)
      cfg.mem
  in
  let events = ref 0 in
  let to_space = H.to_space heap in
  let pieces_base = to_space.Semispace.base in
  let pieces =
    match cfg.scan_unit with
    | None -> [||]
    | Some _ ->
      Array.make (max 1 (to_space.Semispace.limit - pieces_base)) 0
  in
  {
    cfg;
    fast =
      cfg.skip && Option.is_none cfg.faults
      && (not obs.Obs.on) && (not prof.Prof.on)
      && Option.is_none cfg.scan_unit
      (* The parked-core sets are one bit per core in an OCaml int. *)
      && cfg.n_cores <= 62;
    plain_ports = Option.is_none cfg.faults && not obs.Obs.on;
    wd_defer = -1;
    parked_mask = 0;
    scan_waiters = 0;
    hdr_waiters = Array.make cfg.n_cores 0;
    hdr_wait_addr = Array.make cfg.n_cores 0;
    empty_waiters = 0;
    empty_fresh = 0;
    scan_pending = -1;
    empty_pending = -1;
    woke_due = false;
    due_ids = Array.make cfg.n_cores 0;
    awake_ids = Array.make cfg.n_cores 0;
    heap;
    sb =
      SB.create ~hooks ~obs
        ?bank:(match remote with None -> None | Some r -> Some r.rm_bank)
        ~n_cores:cfg.n_cores ();
    mem;
    fifo = Mem.fifo mem;
    remote = (match remote with None -> remote_disabled | Some r -> r);
    hooks;
    san;
    san_seen = 0;
    obs;
    prof;
    cores = Array.init cfg.n_cores (make_core ~events ~faults ~hooks ~obs);
    tospace_limit = to_space.Semispace.limit;
    clock = Kernel.create ~skip:cfg.skip ~obs ();
    faults;
    watchdog =
      Kernel.Watchdog.create ?budget:cfg.cycle_budget
        ~window:(max 1 cfg.stall_window) ();
    events;
    wakeq = Wake_queue.create ~n:cfg.n_cores;
    n_halted = 0;
    finished = false;
    saw_empty = false;
    parallel_phase = false;
    parallel_start = 0;
    empty_cycles = 0;
    cur_frame = 0;
    cur_h0 = 0;
    cur_from = 0;
    cur_next_slot = 0;
    pieces;
    pieces_base;
  }

let halted = all_halted
let roots_done t = t.parallel_phase
let executed_cycles t = Kernel.executed_cycles t.clock
let skipped_cycles t = Kernel.skipped_cycles t.clock

let pieces_outstanding t = Array.fold_left ( + ) 0 t.pieces

(* Bank-parking probe for the banked driver: the machine can make no
   transition until something external (an arbitration-step evacuation
   into its worklist, or the termination grant) changes its inputs.
   Every core spins in [Try_lock_scan] on an empty worklist with all
   four buffers drained, no lock is held and no busy bit set — so not
   stepping it is observationally equivalent to stepping it, except
   that its clock does not advance (per-bank cycle counts are active
   cycles). A pure read. *)
let quiescent t =
  t.parallel_phase
  && (not t.finished)
  && t.sb.SB.scan = t.sb.SB.free
  && t.sb.SB.busy_count = 0
  && t.sb.SB.scan_owner < 0
  && t.sb.SB.free_owner < 0
  && t.sb.SB.hdr_locked_count = 0
  && t.cur_frame = 0
  &&
  let n = Array.length t.cores in
  let rec all i =
    i >= n
    ||
    let c = t.cores.(i) in
    c.state = Try_lock_scan
    && port_idle c.hl && port_idle c.hs && port_idle c.bl && port_idle c.bs
    && all (i + 1)
  in
  all 0

(* ------------------------------------------------------------------ *)
(* Event-driven core scheduling.

   A core may go to sleep when its next transition depends only on its
   own four memory buffers: every cycle until the earliest buffer event
   would replay identically (same stall, same rejected retries, no
   shared-state reads that another agent could change). A core blocked
   on the sync block (a lock, an empty worklist) has no such wake time
   — the block is combinational and publishes none ([SB.next_wake] =
   None) — so it is parked instead and woken by the core step that
   changes what it waits on (see "Parking sync-block waiters"). Barrier
   waits and the remaining poll-states stay awake.

   The wake time is the minimum over all four buffers' wake_after, not
   just the state's guard buffer: the core must be awake at every cycle
   where one of its buffers transitions, because those transitions bump
   the shared [events] counter and define global quiescence.

   Sleeping is gated on [cfg.skip]: with skipping off every core is
   stepped every cycle (pure naive stepping, the parity reference). *)
(* ------------------------------------------------------------------ *)

(* What the core's step would do on each replayed cycle of a sleep span,
   given its post-step state with all buffer statuses frozen. Encoded as
   an int to keep the hot path allocation-free:
   -1 = it would act (the core must not sleep);
    0 = it waits without recording a stall (Flush);
   >0 = the stall category recorded once per replayed cycle. *)
let rp_no_sleep = -1
let rp_quiet_wait = 0
let rp_header_load = 1
let rp_body_load = 2
let rp_body_store = 3
let rp_header_store = 4

let stall_of_rp = function
  | 1 -> Counters.Header_load
  | 2 -> Counters.Body_load
  | 3 -> Counters.Body_store
  | _ -> Counters.Header_store

(* [Counters.bump_n (stall_of_rp rp)] with the counter picked in place:
   every sleep books one. *)
let[@inline] credit_replay (k : Counters.t) rp span =
  if rp = rp_header_load then
    k.Counters.header_load <- k.Counters.header_load + span
  else if rp = rp_body_load then
    k.Counters.body_load <- k.Counters.body_load + span
  else if rp = rp_body_store then
    k.Counters.body_store <- k.Counters.body_store + span
  else k.Counters.header_store <- k.Counters.header_store + span

let replay_of t c =
  match c.state with
  | Root_header_wait | Scan_header_wait | Child_header_wait ->
    if port_ready c.hl then rp_no_sleep else rp_header_load
  | Body_issue_load ->
    if port_idle c.bl then rp_no_sleep else rp_body_load
  | Body_wait ->
    if not (port_ready c.bl) then rp_body_load
    else
      (* The loaded word is in the (frozen) fromspace body: a home
         pointer slot transitions to Lock_child, while a data word — or
         a bank-crossing pointer, stored stale like one — either stores
         immediately (bs idle) or stalls on the store buffer. *)
      let v = t.heap.H.mem.(c.obj_from + Hdr.header_words + c.slot) in
      if
        c.slot < Hdr.pi c.h0
        && v <> H.null
        && v >= t.remote.rm_lo
        && v < t.remote.rm_hi
      then rp_no_sleep
      else if port_idle c.bs then rp_no_sleep
      else rp_body_store
  | Store_slot -> if port_idle c.bs then rp_no_sleep else rp_body_store
  | Evac_store_fwd | Evac_store_gray | Blacken ->
    if port_idle c.hs then rp_no_sleep else rp_header_store
  | Flush ->
    if
      port_idle c.hl && port_idle c.hs && port_idle c.bl
      && port_idle c.bs
    then rp_no_sleep
    else rp_quiet_wait
  | Init | Root_next | Start_barrier | Try_lock_scan | Lock_child
  | Lock_free | Piece_done | End_barrier | Halt -> rp_no_sleep

(* Int-specialized [min]/[max]: the polymorphic [Stdlib.min] is a real
   call into the generic comparison on the sleep/jump hot paths. *)
let[@inline] imin (a : int) (b : int) = if a <= b then a else b
let[@inline] imax (a : int) (b : int) = if a >= b then a else b

let port_wake c mem ~now =
  let w = Port.wake_after c.hl mem ~now in
  let w = imin w (Port.wake_after c.hs mem ~now) in
  let w = imin w (Port.wake_after c.bl mem ~now) in
  imin w (Port.wake_after c.bs mem ~now)

(* The sleep span is bounded by the *guard* buffer's event — the one
   the replayed stall waits on — not by the earliest event on any of
   the four buffers. A non-guard buffer whose transfer completes
   mid-sleep merely flips its own status, which the waking core derives
   identically from [done_at] later; nothing it enables is read before
   the wake. The exception is a [Waiting] buffer: its per-cycle
   acceptance retries touch shared state (bandwidth budget, ordering
   counters, fault stream), so any waiting buffer forces the core to
   stay awake ({!Port.retry_wake}) — except the deterministic
   order-held header-load wait, which the guard's own {!Port.wake_after}
   already schedules at the blocking store's commit. *)
let guard_wake c guard mem ~now =
  (* [Port.wake_after] with its common in-flight case inlined. *)
  let w =
    if guard.Port.st = Port.st_in_flight then
      imax guard.Port.done_at (now + 1)
    else Port.wake_after guard mem ~now
  in
  (* [Port.retry_wake] inlined: a non-guard buffer only forces the core
     awake when it is [Waiting] (its acceptance retries touch shared
     state); direct status reads, same as the tick loop. *)
  let w =
    if c.hl != guard && c.hl.Port.st = Port.st_waiting then imin w (now + 1)
    else w
  in
  let w =
    if c.hs != guard && c.hs.Port.st = Port.st_waiting then imin w (now + 1)
    else w
  in
  let w =
    if c.bl != guard && c.bl.Port.st = Port.st_waiting then imin w (now + 1)
    else w
  in
  if c.bs != guard && c.bs.Port.st = Port.st_waiting then imin w (now + 1)
  else w

(* Flush waits for all four buffers to drain: with nothing waiting (and
   so nothing retrying), the state cannot transition before the *last*
   in-flight transfer completes. *)
let port_polls (p : Port.t) =
  let st = p.Port.st in
  st = Port.st_waiting || st = Port.st_ready

let in_flight_done (p : Port.t) =
  if p.Port.st = Port.st_in_flight then p.Port.done_at else min_int

let flush_wake c ~now =
  if port_polls c.hl || port_polls c.hs || port_polls c.bl || port_polls c.bs
  then now + 1
  else
    let w = in_flight_done c.hl in
    let w = imax w (in_flight_done c.hs) in
    let w = imax w (in_flight_done c.bl) in
    imax w (in_flight_done c.bs)

(* Decide whether the just-stepped core can sleep, and credit the
   statistics its replayed cycles would have accumulated: the replay
   stall once per cycle, busy cycles while its busy bit is set, and one
   comparator rejection per cycle for an order-held header load. The
   wake cycle itself is stepped normally, so the span excludes it. *)
let maybe_sleep t c ~now =
  match c.state with
  | Halt -> ()  (* wake already pinned at max_int *)
  | _ -> begin
    let rp = replay_of t c in
    if rp = rp_no_sleep then c.wake <- now + 1
    else begin
      let w =
        if rp = rp_quiet_wait then flush_wake c ~now
        else
          let guard =
            if rp = rp_header_load then c.hl
            else if rp = rp_body_load then c.bl
            else if rp = rp_body_store then c.bs
            else c.hs
          in
          guard_wake c guard t.mem ~now
      in
      if w > now + 1 && w < max_int then begin
        c.wake <- w;
        Wake_queue.arm t.wakeq ~id:c.id ~time:w;
        let span = w - now - 1 in
        if rp > 0 then credit_replay c.counters rp span;
        (* The slept cycles replay the same stall (or the quiet Flush
           wait); attribute and trace them exactly as naive stepping
           would have, one bulk credit instead of per-cycle bumps. *)
        if t.prof.Prof.on then
          Prof.add t.prof ~core:c.id
            ~bucket:
              (if rp > 0 then 1 + stall_index (stall_of_rp rp)
               else Prof.bucket_idle)
            span;
        if t.obs.Obs.on && rp > 0 then
          Obs.stall_run t.obs ~core:c.id
            ~kind:(stall_index (stall_of_rp rp))
            ~cycle:(now + 1) ~span;
        if t.sb.SB.busy.(c.id) then
          c.counters.busy_cycles <- c.counters.busy_cycles + span;
        if c.hl.Port.st = Port.st_waiting && Port.order_held c.hl t.mem then
          Mem.add_rejected_order t.mem span
      end
      else c.wake <- now + 1
    end
  end

(* Earliest future cycle at which any memory buffer can change status —
   the wake-up that bounds a whole-machine fast-forward. Sleeping cores
   are covered by the wake queue (their armed wake is the min of their
   buffer wakes, frozen for the duration of the sleep); the [count]
   cores the cycle just stepped left awake ([t.awake_ids], wake =
   [now + 1]) have their buffers scanned directly. Together they cover
   every core that can act: after a cycle no core's wake is <= [now],
   and a sleeper due at [now + 1] sits in the queue, which then answers
   [now + 1] (no skip). Parked waiters have no wake of their own — the
   change that frees them is an action of some awake or queued core
   (or of the driver between steps, bounded by the horizon).
   [max_int] means nothing is pending (a would-be deadlock spins cycle
   by cycle, exactly as naive stepping would, until the watchdog trips).
   Bails as soon as some buffer can wake next cycle (no skip possible
   then). *)
let next_wake t ~now ~count =
  let best = ref (Wake_queue.next_after t.wakeq ~now) in
  let ids = t.awake_ids and cores = t.cores in
  let limit = now + 1 in
  let i = ref 0 in
  while !i < count && !best > limit do
    let c = Array.unsafe_get cores (Array.unsafe_get ids !i) in
    let w = port_wake c t.mem ~now in
    if w < !best then best := w;
    incr i
  done;
  !best

(* A cycle was quiescent iff the shared transition counter never moved —
   no buffer status change, no marked core transition — and the shared
   scan/free registers held still. A lock acquired and released within
   the cycle (e.g. the termination probe under the scan lock) is
   deliberately invisible: it leaves no state behind and replays
   identically. *)
let cycle_was_quiet t ~scan0 ~free0 =
  !(t.events) = 0 && t.sb.SB.scan = scan0 && t.sb.SB.free = free0

(* Credit the statistics that [span] identical replays of the
   just-executed cycle would have accumulated for the [count] cores it
   left awake: each stalled core bumps its stall category once per
   cycle, set busy bits accrue busy cycles, an idle worklist accrues
   empty cycles, and every comparator-held header load is rejected once
   more each cycle. Sleeping cores were already credited through their
   whole sleep span when they went to sleep — and the fast-forward
   target never passes their wake, so there is no double count. *)
let credit_skipped t ~cycle ~span ~empty_delta ~count =
  let ids = t.awake_ids and cores = t.cores in
  for i = 0 to count - 1 do
    let c = Array.unsafe_get cores (Array.unsafe_get ids i) in
    if c.stall_cycle = cycle then begin
      Counters.bump_n c.counters c.stall_kind span;
      if t.obs.Obs.on then
        Obs.stall_run t.obs ~core:c.id
          ~kind:(stall_index c.stall_kind)
          ~cycle:(cycle + 1) ~span
    end;
    (* Profiler: the skipped cycles replay the just-executed one, so
       each awake core repeats the bucket it was attributed there. *)
    if t.prof.Prof.on then
      Prof.add t.prof ~core:c.id
        ~bucket:
          (if c.stall_cycle = cycle then 1 + stall_index c.stall_kind
           else prof_bucket_of_state c.state)
        span;
    if t.sb.SB.busy.(c.id) then
      c.counters.busy_cycles <- c.counters.busy_cycles + span;
    if Port.order_held c.hl t.mem then Mem.add_rejected_order t.mem span
  done;
  t.empty_cycles <- t.empty_cycles + (span * empty_delta)

let diagnose t trip =
  {
    trip;
    at_cycle = now t;
    d_scan = t.sb.SB.scan;
    d_free = t.sb.SB.free;
    scan_lock = SB.scan_lock_owner t.sb;
    free_lock = SB.free_lock_owner t.sb;
    fifo_depth = Fifo.length t.fifo;
    pending_header_stores = Mem.pending_store_count t.mem;
    worklist_nonempty = t.sb.SB.scan <> t.sb.SB.free;
    core_dumps =
      Array.to_list
        (Array.map
           (fun c ->
             {
               core_id = c.id;
               microstate = state_name c.state;
               busy = t.sb.SB.busy.(c.id);
               header_lock = SB.header_lock_of t.sb ~core:c.id;
               ports =
                 [
                   ("hl", Port.describe c.hl);
                   ("hs", Port.describe c.hs);
                   ("bl", Port.describe c.bl);
                   ("bs", Port.describe c.bs);
                 ];
             })
           t.cores);
  }

(* The core's published wake under the event-driven contract: [Some w] =
   it next acts (or observes a buffer event) at cycle [w], never later
   than the first cycle where one of its enabled events fires; [None] =
   no self-scheduled event (halted, or every buffer idle while the core
   waits on another agent). Poll-states publish [now + 1]. *)
let core_next_wake t ~core =
  let c = t.cores.(core) in
  if c.state = Halt then None
  else
    let now = now t in
    if replay_of t c = rp_no_sleep then Some (now + 1)
    else
      let w = port_wake c t.mem ~now in
      if w = max_int then None else Some w

(* ------------------------------------------------------------------ *)
(* The fast path.

   One stepping engine, with fast paths chosen at [start] from what the
   machine can observe about itself ([t.fast]): idle-cycle skipping on,
   no fault plan, no tracer or profiler, whole-object scanning, and at
   most 62 cores (each parked-core set is one bit per core in an OCaml
   int). Banks of the banked machine qualify too, and so do sanitized
   runs: a parked core skips only replays that emit no hook event, and
   an exclusive segment steps its core through [step_core], hooks
   included. Under those guards the engine additionally

   - parks sync-block waiters and credits their waits in bulk at the
     change that wakes them;
   - runs an exclusive awake core alone to the next foreign wake-up
     ([step_exclusive]), whose body-copy inner loop retires whole
     data-word runs in closed form ([data_run_macro]) — a strict
     generalization of idle-skipping, advancing the clock straight to
     the next semantic decision point. The macro copies words without
     reporting them, so it alone needs the sanitizer off.

   Port ticks and body-buffer issues take their flat-int fast paths
   ([tick_ports], [issue_body]) whenever no fault plan or tracer could
   observe them. A per-step trace drops out of the fast path for that
   step; naive stepping ([skip = false]) never enters it.

   The contract is the skipper's: every reported statistic is
   bit-identical to naive stepping; only wall time and the
   executed/skipped split move. *)
(* ------------------------------------------------------------------ *)

(* Buffer retry/completion for one due core, in the order (hl, hs, bl,
   bs) — acceptance order defines the bandwidth and ordering counters.
   [Port.tick] is a no-op unless the buffer is retrying acceptance or an
   in-flight transfer just completed, so the status is checked here
   with direct field reads first. With [t.plain_ports] (no fault plan
   or tracer can observe a port; the sanitizer has no port hook) the
   fast paths are inlined: body-class
   transactions never touch the header cache, the comparator array or
   the FIFO, so their acceptance is exactly the bandwidth check;
   header-class buffers keep the general [Port.tick] on any path that
   could consult shared structures. *)
let tick_ports t c ~now =
  let m = t.mem in
  if not t.plain_ports then begin
    let p = c.hl in
    let st = p.Port.st in
    if st = Port.st_waiting || (st = Port.st_in_flight && p.Port.done_at <= now)
    then Port.tick p m ~now;
    let p = c.hs in
    let st = p.Port.st in
    if st = Port.st_waiting || (st = Port.st_in_flight && p.Port.done_at <= now)
    then Port.tick p m ~now;
    let p = c.bl in
    let st = p.Port.st in
    if st = Port.st_waiting || (st = Port.st_in_flight && p.Port.done_at <= now)
    then Port.tick p m ~now;
    let p = c.bs in
    let st = p.Port.st in
    if st = Port.st_waiting || (st = Port.st_in_flight && p.Port.done_at <= now)
    then Port.tick p m ~now
  end
  else begin
    let bw = m.Mem.config.Mem.bandwidth in
    let p = c.hl in
    (let st = p.Port.st in
     if st = Port.st_waiting then begin
       (* Fast-reject only when provably pure: budget exhausted, no header
          cache configured, and the comparator presence mask clears the
          address (no pending store, hence no ordering rejection). *)
       if
         m.Mem.accepted_this_cycle >= bw
         && m.Mem.config.Mem.header_cache_entries = 0
         && m.Mem.ps_mask land (1 lsl (p.Port.addr land 31)) = 0
       then m.Mem.rejected_bandwidth <- m.Mem.rejected_bandwidth + 1
       else Port.tick p m ~now
     end
     else if st = Port.st_in_flight && p.Port.done_at <= now then begin
       p.Port.st <- Port.st_ready;
       incr t.events
     end);
    let p = c.hs in
    (let st = p.Port.st in
     if st = Port.st_waiting then begin
       if m.Mem.accepted_this_cycle >= bw then
         m.Mem.rejected_bandwidth <- m.Mem.rejected_bandwidth + 1
       else Port.tick p m ~now
     end
     else if st = Port.st_in_flight && p.Port.done_at <= now then begin
       p.Port.st <- Port.st_idle;
       incr t.events
     end);
    let p = c.bl in
    (let st = p.Port.st in
     if st = Port.st_waiting then begin
       if m.Mem.accepted_this_cycle >= bw then
         m.Mem.rejected_bandwidth <- m.Mem.rejected_bandwidth + 1
       else begin
         m.Mem.accepted_this_cycle <- m.Mem.accepted_this_cycle + 1;
         m.Mem.loads <- m.Mem.loads + 1;
         p.Port.st <- Port.st_in_flight;
         p.Port.done_at <- now + m.Mem.config.Mem.body_load_latency;
         incr t.events
       end
     end
     else if st = Port.st_in_flight && p.Port.done_at <= now then begin
       p.Port.st <- Port.st_ready;
       incr t.events
     end);
    let p = c.bs in
    let st = p.Port.st in
    if st = Port.st_waiting then begin
      if m.Mem.accepted_this_cycle >= bw then
        m.Mem.rejected_bandwidth <- m.Mem.rejected_bandwidth + 1
      else begin
        m.Mem.accepted_this_cycle <- m.Mem.accepted_this_cycle + 1;
        m.Mem.stores <- m.Mem.stores + 1;
        p.Port.st <- Port.st_in_flight;
        p.Port.done_at <- now + m.Mem.config.Mem.store_latency;
        incr t.events
      end
    end
    else if st = Port.st_in_flight && p.Port.done_at <= now then begin
      p.Port.st <- Port.st_idle;
      incr t.events
    end
  end

(* --- Parking sync-block waiters -------------------------------------

   The sync block grants in static core-index order and schedules
   nothing on its own, so a core blocked on it retries with no effect
   until another core changes what it waits on. The fast path parks
   such a core and credits the replayed retries in bulk at the change
   that wakes it (docs/PERFORMANCE.md, section 3):

   - scan lock held by another core: held across cycles only in
     [Scan_header_wait], so the worklist is non-empty and a retry only
     bumps [scan_lock]. Woken when a step leaves the lock free;
   - header lock on the child, held by core [j]: a retry bumps
     [header_lock] and [busy_cycles]. Only [j] can release it, so [j]'s
     own step wakes its waiters;
   - empty worklist, termination probe failing: the probe takes and
     drops the scan lock, earns no stall and counts the cycle in
     [empty_cycles]. Woken when the probe would do more
     ([empty_wait_over]); the mutator and the banked driver move [free]
     and the grant between steps, so this is also checked at step
     entry.

   When core [j]'s step at cycle [y] makes the change, a waiter [i > j]
   acts at [y] (woken due at [y], the phase-2 walk reaches it after
   [j]) and [i < j], whose replayed turn at [y] is spent, at [y + 1];
   the uncredited span is [wake - park_cycle]. Waiters are woken one at
   a time, the first in that turn order: every other waiter's turn
   comes after it, so the change is re-checked after its step
   ([scan_pending]/[empty_pending] hold further wakes until then).
   Header-lock waiters move to the woken waiter, whose step either takes
   the lock or meets the new holder, to whom they move.

   A cycle counts as an empty-worklist cycle when a waiter parked
   before it ([empty_fresh] holds this cycle's) is still parked at its
   end; the whole-machine jumps credit their spans likewise. A parked
   core has no buffer retrying acceptance (that touches the shared
   bandwidth budget); its in-flight transfers complete unobserved and
   its tick flips them on waking, except that on a bank an
   empty-worklist waiter must have all four buffers idle, so a parked
   bank reads as {!quiescent} exactly when a stepped one does. Every
   wake comes from a step that moved [events] or scan/free, so a cycle
   waking a core at [y + 1] is never fast-forwarded over. Nothing a
   parked core skips is a sanitizer event, so parking runs under the
   sanitizer. *)

let park_scan = 1
let park_header = 2
let park_empty = 3

(* An empty-worklist probe would now do more than replay: termination
   was detected, the worklist is non-empty, the scan lock is held (the
   prober would stall on it), or the termination probe would pass (a
   waiter's own busy bit is clear). *)
let empty_wait_over t =
  let sb = t.sb in
  t.finished || sb.SB.scan <> sb.SB.free || sb.SB.scan_owner >= 0
  || (t.remote.rm_allow_finish && sb.SB.busy_count = 0)

let no_port_waiting c =
  c.hl.Port.st <> Port.st_waiting
  && c.hs.Port.st <> Port.st_waiting
  && c.bl.Port.st <> Port.st_waiting
  && c.bs.Port.st <> Port.st_waiting

let park t c ~now kind =
  c.wake <- max_int;
  c.park_cycle <- now + 1;
  c.park_kind <- kind;
  t.parked_mask <- t.parked_mask lor (1 lsl c.id)

(* Park the core that just executed cycle [now] if its next turns would
   replay a failed sync-block attempt (see above). *)
let[@inline] try_park t c ~now =
  match c.state with
  | Try_lock_scan ->
    if c.stall_cycle = now then
      (let o = t.sb.SB.scan_owner in
       o >= 0 && o <> c.id)
      && no_port_waiting c
      && begin
           park t c ~now park_scan;
           t.scan_waiters <- t.scan_waiters lor (1 lsl c.id);
           true
         end
    else
      (* The next probe would fail: parked now, right after the step
         that brought the core here, its first replayed probe is next
         cycle's ([empty_fresh] keeps this one out of the count). *)
      no_port_waiting c
      && (t.remote == remote_disabled
         || port_idle c.hl && port_idle c.hs && port_idle c.bl
            && port_idle c.bs)
      && (not (empty_wait_over t))
      && begin
           park t c ~now park_empty;
           t.empty_waiters <- t.empty_waiters lor (1 lsl c.id);
           t.empty_fresh <- t.empty_fresh lor (1 lsl c.id);
           true
         end
  | Lock_child ->
    c.stall_cycle = now && no_port_waiting c
    && begin
         let j = c.blocker in
         park t c ~now park_header;
         t.hdr_waiters.(j) <- t.hdr_waiters.(j) lor (1 lsl c.id);
         t.hdr_wait_addr.(j) <- c.child;
         true
       end
  | _ -> false

(* Wake the parked cores in [m] from bit [i] up, as if core [after]
   just made the change they wait for at cycle [now], crediting the
   stalls their per-cycle replays would have counted. Cores waking at
   [now + 1] are appended to [t.awake_ids] from [count] (so the
   all-asleep fast-forward cannot jump over them); returns the new
   count. Cores waking at [now] set [t.woke_due]: the caller must still
   give them their turn this cycle, in index order. Top-level recursion
   over plain ints: nothing here allocates. *)
let rec wake_bits t m i ~now ~after count =
  if m lsr i = 0 then count
  else if m land (1 lsl i) = 0 then wake_bits t m (i + 1) ~now ~after count
  else begin
    let c = Array.unsafe_get t.cores i in
    let wake = if i > after then now else now + 1 in
    let span = wake - c.park_cycle in
    if span > 0 then begin
      let k = c.counters in
      if c.park_kind = park_scan then
        k.Counters.scan_lock <- k.Counters.scan_lock + span
      else if c.park_kind = park_header then
        k.Counters.header_lock <- k.Counters.header_lock + span;
      (* The busy bit is owned by the core itself, so it is frozen for
         the whole parked span. *)
      if t.sb.SB.busy.(i) then
        k.Counters.busy_cycles <- k.Counters.busy_cycles + span
    end;
    c.wake <- wake;
    t.parked_mask <- t.parked_mask land lnot (1 lsl i);
    if wake = now then begin
      t.woke_due <- true;
      wake_bits t m (i + 1) ~now ~after count
    end
    else begin
      Array.unsafe_set t.awake_ids count i;
      wake_bits t m (i + 1) ~now ~after (count + 1)
    end
  end

let rec lowest_bit m i = if m land (1 lsl i) <> 0 then i else lowest_bit m (i + 1)

(* The first core of the non-empty set [m] in turn order after core
   [after]: the lowest index above it, else (next cycle) the lowest. *)
let first_after m ~after =
  let above = m land (-1 lsl (after + 1)) in
  lowest_bit (if above <> 0 then above else m) 0

(* Whether the step of core [after] (or, at [-1], a change between
   steps) may have unblocked some parked waiter: the cheap screen in
   front of [wake_ready], which runs after every step while anything is
   parked. *)
let[@inline] may_wake t ~after =
  (t.scan_waiters <> 0 && t.scan_pending < 0 && t.sb.SB.scan_owner < 0)
  || (after >= 0 && Array.unsafe_get t.hdr_waiters after <> 0)
  || (t.empty_waiters <> 0 && t.empty_pending < 0 && empty_wait_over t)

(* Wake whatever the step of core [after] at cycle [now] unblocked
   ([after = -1]: a change made between steps, checked at step entry).
   Returns the new awake count as [wake_bits] does. *)
let wake_ready t ~now ~after ~count =
  let count =
    if t.scan_waiters <> 0 && t.scan_pending < 0 && t.sb.SB.scan_owner < 0
    then begin
      let m = t.scan_waiters in
      let i = first_after m ~after in
      t.scan_waiters <- m lxor (1 lsl i);
      t.scan_pending <- i;
      wake_bits t (1 lsl i) i ~now ~after count
    end
    else count
  in
  let count =
    if
      after >= 0
      && t.hdr_waiters.(after) <> 0
      && t.sb.SB.header_regs.(after) <> t.hdr_wait_addr.(after)
    then begin
      let m = t.hdr_waiters.(after) and addr = t.hdr_wait_addr.(after) in
      t.hdr_waiters.(after) <- 0;
      let o = SB.header_owner t.sb ~addr in
      if o >= 0 then begin
        t.hdr_waiters.(o) <- t.hdr_waiters.(o) lor m;
        t.hdr_wait_addr.(o) <- addr;
        count
      end
      else begin
        (* Free: the first waiter in turn order takes it, and the rest
           wait on that waiter instead; its step settles which. *)
        let w = first_after m ~after in
        let rest = m lxor (1 lsl w) in
        if rest <> 0 then begin
          t.hdr_waiters.(w) <- t.hdr_waiters.(w) lor rest;
          t.hdr_wait_addr.(w) <- addr
        end;
        wake_bits t (1 lsl w) w ~now ~after count
      end
    end
    else count
  in
  if t.empty_waiters <> 0 && t.empty_pending < 0 && empty_wait_over t then begin
    let m = t.empty_waiters in
    let i = first_after m ~after in
    t.empty_waiters <- m lxor (1 lsl i);
    t.empty_pending <- i;
    (* A waiter up to [after] had its replayed probe this cycle, unless
       it parked only this cycle. *)
    if i <= after && (Array.unsafe_get t.cores i).park_cycle <= now then
      t.saw_empty <- true;
    wake_bits t (1 lsl i) i ~now ~after count
  end
  else count

(* Flush parked cores before anything off the fast path can observe
   them: credit their waits up to (excluding) the current cycle and
   leave each core due now, exactly the state per-cycle stepping would
   show between cycles. Used when a traced step leaves the fast path
   and before snapshotting. *)
let unpark_all t =
  if t.parked_mask <> 0 then begin
    ignore
      (wake_bits t t.parked_mask 0 ~now:t.clock.Kernel.now ~after:(-1) 0);
    t.scan_waiters <- 0;
    t.empty_waiters <- 0;
    t.empty_fresh <- 0;
    Array.fill t.hdr_waiters 0 (Array.length t.hdr_waiters) 0
  end;
  t.scan_pending <- -1;
  t.empty_pending <- -1

(* Closed-form retirement of a data-word copy run — the paper's inner
   loop: consume the loaded word, store it and issue the next load in
   one cycle, then stall [L-1] cycles on the body-load buffer until the
   next word arrives ([L] = body load latency). Entered at a word cycle:
   the core in [Body_wait], the body-load buffer just flipped ready, the
   other three buffers idle, every other core asleep past [limit].

   Per full word the naive engine books: one executed copy cycle (busy,
   one store + one load accepted — bandwidth >= 2 guarantees both) and
   [L-1] body-load stall cycles (busy). The macro books those totals
   directly ([Kernel.retire] advances the clock in one call), performs
   the same word-at-a-time heap copy, and leaves the port registers
   exactly as per-cycle stepping would at the exit cycle. A pointer
   slot or the end of the work item ends the run with the clock just
   after the last processed word cycle and [c.wake] due, so the
   per-cycle loop resumes seamlessly; [limit] ends it with the core
   asleep on its next body load and the clock at [limit]. *)
(* Close out a data run: book the totals per-cycle stepping would
   have accumulated over the run's [exec] word cycles and [gaps]
   replayed stall cycles, advance the clock in one call, and leave the
   core due at the exit cycle. [w] is the run's last executed word
   cycle, recorded as one deferred watchdog progress observation (the
   state that leaves — quiet = 0, last progress = [w] — matches
   per-cycle stepping, and [limit] never exceeds the cycle budget, so
   the deferral cannot mask a budget trip). *)
let data_run_finish t c ~w ~slot ~words ~gaps ~exec ~next_loads =
  c.slot <- slot;
  let k = c.counters in
  k.Counters.words_copied <- k.Counters.words_copied + words;
  k.Counters.body_load <- k.Counters.body_load + gaps;
  (* Word cycles and their replayed gaps are all busy: [Body_wait]
     implies the busy bit is set for the whole run. *)
  k.Counters.busy_cycles <- k.Counters.busy_cycles + exec + gaps;
  let m = t.mem in
  m.Mem.loads <- m.Mem.loads + next_loads;
  m.Mem.stores <- m.Mem.stores + words;
  Kernel.retire t.clock ~executed:exec ~skipped:gaps;
  c.wake <- w + 1;
  (* The run's last executed cycle subsumes any older pending progress
     observation. *)
  t.wd_defer <- w

(* The run loop proper, as explicit tail recursion over plain ints: a
   [while] with [ref] accumulators would box them (classic ocamlopt
   only unboxes non-escaping references, and the stepping loop's
   allocation gate is 0.005 words per executed cycle). [w] is the word
   cycle being executed, [slot] the slot it consumes, [words]/[gaps]
   the data words copied and stall cycles replayed so far. Unsafe accesses are in bounds by construction: the
   microprogram has already validated [obj_from]/[obj_to] frames when
   it entered the copy loop, and the fast path never runs with a fault
   plan. *)
let rec data_run_go t c ~fromb ~tob ~pi ~slot_limit ~lat_l ~lat_s ~limit w
    slot words gaps =
  let heap = t.heap.H.mem in
  let v = Array.unsafe_get heap (fromb + slot) in
  let ptr = slot < pi && v <> H.null in
  if ptr && v >= t.remote.rm_lo && v < t.remote.rm_hi then begin
    (* Home pointer slot: this word cycle consumes it and turns to the
       child ([step_body_wait]'s first arm). Every copied word issued
       a next load ([next_loads = words]). *)
    c.bl.Port.st <- Port.st_idle;
    c.child <- v;
    c.state <- Lock_child;
    data_run_finish t c ~w ~slot ~words ~gaps ~exec:(words + 1)
      ~next_loads:words
  end
  else begin
    (* Data word, null pointer, or (banks only) a foreign pointer
       stored stale and recorded in the outbox, as in [step_body_wait]. *)
    if ptr then remote_push t.remote ~slot:(tob + slot) ~child:v;
    Array.unsafe_set heap (tob + slot) v;
    let slot = slot + 1 and words = words + 1 in
    if slot >= slot_limit then begin
      (* Work item complete: the last word's store is in flight, and
         that word issued no further load ([next_loads = words - 1]). *)
      c.bl.Port.st <- Port.st_idle;
      c.bs.Port.st <- Port.st_in_flight;
      c.bs.Port.addr <- tob + slot - 1;
      c.bs.Port.done_at <- w + lat_s;
      c.bs.Port.issued_at <- w;
      c.state <- (if c.whole then Blacken else Piece_done);
      data_run_finish t c ~w ~slot ~words ~gaps ~exec:words
        ~next_loads:(words - 1)
    end
    else if w + lat_l >= limit then begin
      (* The next word completes at or past [limit]: leave both
         transactions in flight for the per-cycle loop. *)
      c.bl.Port.st <- Port.st_in_flight;
      c.bl.Port.addr <- fromb + slot;
      c.bl.Port.done_at <- w + lat_l;
      c.bl.Port.issued_at <- w;
      c.bs.Port.st <- Port.st_in_flight;
      c.bs.Port.addr <- tob + slot - 1;
      c.bs.Port.done_at <- w + lat_s;
      c.bs.Port.issued_at <- w;
      c.state <- Body_wait;
      data_run_finish t c ~w ~slot ~words ~gaps ~exec:words ~next_loads:words;
      if lat_l > 1 then begin
        (* Per-cycle stepping puts the core to sleep on the body load
           after its last word cycle, crediting the slept stalls, and
           the whole machine is then asleep until [limit]: do both
           here, so the exit costs no extra executed cycle. *)
        let span = lat_l - 1 in
        let k = c.counters in
        k.Counters.body_load <- k.Counters.body_load + span;
        k.Counters.busy_cycles <- k.Counters.busy_cycles + span;
        c.wake <- w + lat_l;
        let clock = t.clock in
        clock.Kernel.skipped <- clock.Kernel.skipped + (limit - w - 1);
        clock.Kernel.now <- limit
      end
    end
    else
      data_run_go t c ~fromb ~tob ~pi ~slot_limit ~lat_l ~lat_s ~limit
        (w + lat_l) slot words
        (gaps + (lat_l - 1))
  end

let data_run_macro t c ~limit =
  let cfgm = t.mem.Mem.config in
  data_run_go t c
    ~fromb:(c.obj_from + Hdr.header_words)
    ~tob:(c.obj_to + Hdr.header_words)
    ~pi:(Hdr.pi c.h0) ~slot_limit:c.slot_limit
    ~lat_l:cfgm.Mem.body_load_latency ~lat_s:cfgm.Mem.store_latency ~limit
    t.clock.Kernel.now c.slot 0 0

(* Flush the deferred watchdog progress observation (see [t.wd_defer]).
   Consecutive progress observations are idempotent up to the last one,
   so reporting only the latest leaves bit-identical watchdog state;
   deferral cannot mask a budget trip because every deferred cycle is
   below [limit], which is capped at the cycle budget. *)
let wd_flush t =
  if t.wd_defer >= 0 then begin
    let n = t.wd_defer in
    t.wd_defer <- -1;
    match Kernel.Watchdog.observe t.watchdog ~now:n ~progressed:true with
    | Some trip -> raise (Stall_diagnosis (diagnose t trip))
    | None -> ()
  end

(* Exclusive-core interpreter: every other core is asleep until at
   least [limit], and a sleeping core's wake is frozen (nothing the
   running core does can reschedule it), so the segment needs no
   whole-machine scans — one core ticks, steps and sleeps, and global
   jumps reduce to its own wake arithmetic. The per-cycle machinery of
   [step_cycle] is specialized away:

   - sleeps credit their replay statistics inline and advance the clock
     directly to [min wake limit] (the whole machine is asleep, so the
     queue-mediated all-asleep jump collapses to one assignment);
   - the wake queue is not touched per sleep — the single exit arm
     below restores the queue invariant [step_cycle] relies on;
   - watchdog observations of progressed cycles are deferred and
     flushed in one call (at the next quiet cycle or segment exit),
     which leaves bit-identical watchdog state because consecutive
     progress observations are idempotent up to the last one, and
     [limit] never exceeds the cycle budget.

   Exits once the clock reaches [limit], the core's own wake passes
   the current cycle (the caller re-evaluates the machine shape), or
   the start barrier opened ([roots_done] is the phase at entry), or a
   bank went [quiescent]: a driver polling either between steps — the
   concurrent mutator's pause ends at the opening, the banked driver
   parks a quiescent bank — sees the same cycle as with per-cycle
   stepping. One exclusive cycle per call,
   tail-recursively (top-level recursion with plain arguments: a
   [while] over [ref] state would box the refs and a local flush
   closure would allocate per segment — the stepping loop's allocation
   gate forbids both). *)
let rec exclusive_loop ?horizon t c ~limit ~macro_ok ~roots_done =
  let clock = t.clock in
  let n0 = clock.Kernel.now in
  if
    n0 >= limit || c.wake > n0
    || t.parallel_phase <> roots_done
    || ((not t.remote.rm_allow_finish) && quiescent t)
  then ()
  else begin
    t.mem.Mem.cycle <- n0;
    t.mem.Mem.accepted_this_cycle <- 0;
    t.hooks.Hooks.cycle <- n0;
    let scan0 = t.sb.SB.scan and free0 = t.sb.SB.free in
    t.events := 0;
    tick_ports t c ~now:n0;
    if
      macro_ok
      && (match c.state with Body_wait -> true | _ -> false)
      && c.bl.Port.st = Port.st_ready
      && c.hl.Port.st = Port.st_idle
      && c.hs.Port.st = Port.st_idle
      && c.bs.Port.st = Port.st_idle
    then begin
      data_run_macro t c ~limit;
      exclusive_loop ?horizon t c ~limit ~macro_ok ~roots_done
    end
    else begin
      t.saw_empty <- false;
      t.empty_fresh <- 0;
      step_core t c;
      if c.id = t.scan_pending then t.scan_pending <- -1;
      if c.id = t.empty_pending then t.empty_pending <- -1;
      (* Executed cycle: inline [Kernel.tick]. *)
      clock.Kernel.now <- n0 + 1;
      clock.Kernel.executed <- clock.Kernel.executed + 1;
      let empty_delta =
        if t.parallel_phase && (not t.finished) && t.saw_empty then 1 else 0
      in
      t.empty_cycles <- t.empty_cycles + empty_delta;
      if (match c.state with Halt -> true | _ -> false) then begin
        (* Wake already pinned at max_int by the halt transition; the
           per-cycle path skips the watchdog when everyone halted, and a
           lone halt is a progressed cycle (events moved). The pinned
           wake ends the recursion at the next check. *)
        if not (all_halted t) then t.wd_defer <- n0
      end
      else if try_park t c ~now:n0 then begin
        (* Parked on a lock held by a sleeping foreign core, or on an
           empty worklist only a sleeping foreign core can refill: the
           cycle gets its watchdog observation, then the whole machine
           is asleep until [limit] (the earliest foreign wake, already
           capped like a sleep target) — jump there, exactly the
           all-asleep jump [step_cycle] makes after parking, unless a
           bank just went quiescent (its driver stops stepping it
           here). The wake at [max_int] ends the segment at the next
           recursion check. *)
        (if !(t.events) = 0 && t.sb.SB.scan = scan0 && t.sb.SB.free = free0
         then begin
           wd_flush t;
           match
             Kernel.Watchdog.observe t.watchdog ~now:n0 ~progressed:false
           with
           | Some trip -> raise (Stall_diagnosis (diagnose t trip))
           | None -> ()
         end
         else t.wd_defer <- n0);
        if
          limit > n0 + 1
          && not ((not t.remote.rm_allow_finish) && quiescent t)
        then begin
          let span = limit - n0 - 1 in
          clock.Kernel.skipped <- clock.Kernel.skipped + span;
          clock.Kernel.now <- limit;
          if t.empty_waiters <> 0 then t.empty_cycles <- t.empty_cycles + span
        end
      end
      else begin
        (* Inline [maybe_sleep]: same replay decision, but the credit
           skips the profiler/tracer branches (off by engine guard) and
           the clock jumps in place of the queue round-trip. *)
        let rp = replay_of t c in
        let w =
          if rp = rp_no_sleep then n0 + 1
          else if rp = rp_quiet_wait then flush_wake c ~now:n0
          else
            let guard =
              if rp = rp_header_load then c.hl
              else if rp = rp_body_load then c.bl
              else if rp = rp_body_store then c.bs
              else c.hs
            in
            guard_wake c guard t.mem ~now:n0
        in
        let slept = w > n0 + 1 && w < max_int in
        if slept then begin
          c.wake <- w;
          let span = w - n0 - 1 in
          if rp > 0 then credit_replay c.counters rp span;
          if t.sb.SB.busy.(c.id) then
            c.counters.busy_cycles <- c.counters.busy_cycles + span;
          if Port.order_held c.hl t.mem then Mem.add_rejected_order t.mem span;
          (* Whole machine asleep until [min w limit]: jump there
             directly ([limit] is already capped by the horizon, the
             divergence bound and the cycle budget). *)
          let target = if w < limit then w else limit in
          if target > n0 + 1 then begin
            clock.Kernel.skipped <- clock.Kernel.skipped + (target - n0 - 1);
            clock.Kernel.now <- target
          end
        end
        else c.wake <- n0 + 1;
        if !(t.events) = 0 && t.sb.SB.scan = scan0 && t.sb.SB.free = free0
        then begin
          (* Quiet cycle: flush deferred progress first so the
             no-progress window counts from the right cycle. *)
          wd_flush t;
          (match
             Kernel.Watchdog.observe t.watchdog ~now:n0 ~progressed:false
           with
          | Some trip -> raise (Stall_diagnosis (diagnose t trip))
          | None -> ());
          if not slept then begin
            (* Quiet spin (e.g. a poll-state replay): same global
               fast-forward as [step_cycle], but [c] is the only
               awake core, so the whole-machine scan collapses to its
               own buffer arithmetic and the bulk credit touches it
               alone (foreign sleepers wake past [limit] >= target). *)
            let wake =
              imin (Wake_queue.next_after t.wakeq ~now:n0)
                (port_wake c t.mem ~now:n0)
            in
            if wake < max_int then begin
              let target =
                imin (Wake_queue.bound ~horizon wake) (t.cfg.max_cycles + 1)
              in
              if target > n0 + 1 then begin
                let span = Kernel.fast_forward clock ~target in
                if c.stall_cycle = n0 then
                  Counters.bump_n c.counters c.stall_kind span;
                if t.sb.SB.busy.(c.id) then
                  c.counters.busy_cycles <- c.counters.busy_cycles + span;
                if Port.order_held c.hl t.mem then
                  Mem.add_rejected_order t.mem span;
                t.empty_cycles <- t.empty_cycles + (span * empty_delta)
              end
            end
          end
        end
        else t.wd_defer <- n0
      end;
      exclusive_loop ?horizon t c ~limit ~macro_ok ~roots_done
    end
  end

let step_exclusive ?horizon t c ~limit =
  (* Macro preconditions that are configuration-static: the same-cycle
     store + next-load pair always fits the bandwidth, and the store
     buffer has always drained by the next word cycle. *)
  let cfgm = t.mem.Mem.config in
  let macro_ok =
    cfgm.Mem.bandwidth >= 2
    && cfgm.Mem.store_latency <= cfgm.Mem.body_load_latency
    && t.cfg.sanitize = San.Off
  in
  exclusive_loop ?horizon t c ~limit ~macro_ok ~roots_done:t.parallel_phase;
  wd_flush t;
  (* Restore the queue invariant [step_cycle] relies on: a sleeping
     core's wake must be armed (stale earlier entries are filtered by
     [next_after]'s strictly-future check). *)
  if c.wake > t.clock.Kernel.now && c.wake < max_int then
    Wake_queue.arm t.wakeq ~id:c.id ~time:c.wake

(* Post-step bookkeeping for a core that just executed cycle [n0]:
   attribute the cycle to the profiler and the tracer (one
   load-and-branch each when off), then park the core on the sync block
   (only when [park]), put it to sleep, or keep it awake
   — an awake core is appended to [t.awake_ids] at [count]. Returns the
   new awake count. Naive stepping keeps every core due every cycle and
   never fast-forwards, so it needs no list. *)
let settle t c ~n0 ~park ~count =
  if c.id = t.scan_pending then t.scan_pending <- -1;
  if c.id = t.empty_pending then t.empty_pending <- -1;
  (* The stall latch carrying [n0] identifies the stall category (it
     was counted exactly once by the step); otherwise the post-step
     state says busy or idle. *)
  if t.prof.Prof.on then
    Prof.add t.prof ~core:c.id
      ~bucket:
        (if c.stall_cycle = n0 then 1 + stall_index c.stall_kind
         else prof_bucket_of_state c.state)
      1;
  if t.obs.Obs.on then begin
    if c.stall_cycle = n0 then
      Obs.stall_run t.obs ~core:c.id
        ~kind:(stall_index c.stall_kind)
        ~cycle:n0 ~span:1;
    Obs.set_phase t.obs ~core:c.id ~phase:(phase_of_state c.state) ~cycle:n0
  end;
  if
    (not t.cfg.skip)
    || (park && try_park t c ~now:n0)
  then count
  else begin
    maybe_sleep t c ~now:n0;
    (* Branch-free append, as in [step]'s due scan. *)
    Array.unsafe_set t.awake_ids count c.id;
    count + Bool.to_int (c.wake = n0 + 1)
  end

(* One executed cycle, then at most one whole-machine fast-forward. The
   two-phase structure — every due buffer retries before any core
   executes, both in core-index order — is the machine's static
   prioritization: the lowest index wins simultaneous claims, and a
   lock released by an earlier core is acquirable by a later core in
   the same cycle. Sleeping cores are not stepped at all: none of their
   buffers can transition before their wake, and their replayed cycles
   were bulk-credited when they went to sleep.

   Both phases walk [t.due_ids] (the [d] cores due this cycle, in index
   order) instead of rescanning the core array: a due core's wake
   cannot change before its own phase-2 turn (only its own step or a
   parked-core wake mutates it, and due cores are never parked). The
   one exception is a step waking a *parked* core due this same cycle
   (id past the waker): the walk then falls back to a raw index scan
   for the rest of the cycle, which hands both the woken waiters and
   the remaining due cores their turns in index order — exactly the
   per-cycle arbitration. *)
let step_cycle ?trace ?horizon t ~n0 ~d ~park =
  Mem.begin_cycle t.mem ~now:n0;
  (* Stamp the shared hook record so diagnostics and sanitizer findings
     raised anywhere this cycle carry the cycle number. *)
  t.hooks.Hooks.cycle <- n0;
  if t.obs.Obs.on then t.obs.Obs.cycle <- n0;
  let scan0 = t.sb.SB.scan and free0 = t.sb.SB.free in
  t.events := 0;
  let cores = t.cores and due = t.due_ids in
  for k = 0 to d - 1 do
    tick_ports t (Array.unsafe_get cores (Array.unsafe_get due k)) ~now:n0
  done;
  t.saw_empty <- false;
  t.empty_fresh <- 0;
  let awake = ref 0 in
  let raw_from = ref (-1) in
  let k = ref 0 in
  while !raw_from < 0 && !k < d do
    let c = Array.unsafe_get cores (Array.unsafe_get due !k) in
    incr k;
    step_core t c;
    awake := settle t c ~n0 ~park ~count:!awake;
    (* Any step may have made the change a parked waiter waits for;
       woken waiters re-enter the arbitration at exactly the cycle
       per-cycle stepping would let them. *)
    if t.parked_mask <> 0 && may_wake t ~after:c.id then begin
      t.woke_due <- false;
      awake := wake_ready t ~now:n0 ~after:c.id ~count:!awake;
      if t.woke_due then raw_from := c.id + 1
    end
  done;
  if !raw_from >= 0 then
    (* A step woke parked waiters due this cycle: finish with the raw
       scan (nested wakes further down re-enter it naturally). *)
    for i = !raw_from to Array.length cores - 1 do
      let c = Array.unsafe_get cores i in
      if c.wake <= n0 then begin
        step_core t c;
        awake := settle t c ~n0 ~park ~count:!awake;
        if t.parked_mask <> 0 && may_wake t ~after:i then
          awake := wake_ready t ~now:n0 ~after:i ~count:!awake
      end
    done;
  if t.obs.Obs.on && Obs.sample_due t.obs ~cycle:n0 then
    Obs.sample t.obs ~cycle:n0
      ~backlog:(t.sb.SB.free - t.sb.SB.scan)
      ~fifo_depth:(Fifo.length t.fifo);
  (* A waiter still parked at the end of the cycle, and not parked
     during it, probed the empty worklist in it (see "Parking
     sync-block waiters"). *)
  let empty_delta =
    if
      t.parallel_phase && (not t.finished)
      && (t.saw_empty || t.empty_waiters land lnot t.empty_fresh <> 0)
    then 1
    else 0
  in
  t.empty_cycles <- t.empty_cycles + empty_delta;
  (match trace with
  | Some tr ->
    if Trace.due tr ~cycle:n0 then begin
      let activity =
        String.init t.cfg.n_cores (fun i -> state_code t.cores.(i).state)
      in
      Trace.record tr ~cycle:n0 ~scan:(t.sb.SB.scan) ~free:(t.sb.SB.free)
        ~fifo_depth:(Fifo.length t.fifo) ~activity
    end;
    if t.hooks.Hooks.on then begin
      let fs = San.findings t.san in
      let n = List.length fs in
      if n > t.san_seen then begin
        List.iteri
          (fun i d ->
            if i >= t.san_seen then
              Trace.annotate tr ~cycle:n0 (Diag.to_string d))
          fs;
        t.san_seen <- n
      end
    end
  | None -> ());
  Kernel.tick t.clock;
  let quiet = cycle_was_quiet t ~scan0 ~free0 in
  if not (all_halted t) then begin
    (* Watchdog: a quiet cycle made no global progress. The no-progress
       window counts executed cycles only — skipped spans always end at
       a wake-up that produces a transition, so they cannot mask a
       deadlock (a true deadlock has no wake-up and spins cycle by
       cycle, exactly what the window measures). *)
    (match
       Kernel.Watchdog.observe t.watchdog ~now:n0 ~progressed:(not quiet)
     with
    | Some trip -> raise (Stall_diagnosis (diagnose t trip))
    | None -> ());
    (* Whole-machine fast-forward (disabled while tracing: a trace wants
       to sample the quiet cycles too). Two triggers: a quiescent cycle
       (the classic idle-cycle skip, bounded by every buffer wake), or
       every core asleep on a memory response, in which case nothing
       can happen before the earliest armed wake even though this cycle
       itself made progress. The skipped cycles are quiescent, so the
       counter samples a naive stepper would take in them carry today's
       (frozen) signal values — they are emitted before jumping so the
       event stream stays stepping-invariant. *)
    if t.cfg.skip && Option.is_none trace then
      if quiet then begin
        let wake = next_wake t ~now:n0 ~count:!awake in
        if wake < max_int then begin
          let target =
            imin (Wake_queue.bound ~horizon wake) (t.cfg.max_cycles + 1)
          in
          if target > n0 + 1 then begin
            if t.obs.Obs.on then
              Obs.catch_up_samples t.obs ~target
                ~backlog:(t.sb.SB.free - t.sb.SB.scan)
                ~fifo_depth:(Fifo.length t.fifo);
            let span = Kernel.fast_forward t.clock ~target in
            (* Every parked waiter probes in the replayed cycles. *)
            let empty_delta =
              if t.empty_waiters <> 0 && t.parallel_phase && not t.finished
              then 1
              else empty_delta
            in
            credit_skipped t ~cycle:n0 ~span ~empty_delta ~count:!awake
          end
        end
      end
      else if !awake = 0 then begin
        (* No awake core means no stall latch and no busy bit moving in
           the skipped span: sleeping cores were credited when they
           went to sleep, and parked ones are credited at their wake.
           Parked empty-worklist waiters probe in every skipped cycle. *)
        let wake = Wake_queue.next_after t.wakeq ~now:n0 in
        if wake < max_int then begin
          let target =
            imin (Wake_queue.bound ~horizon wake) (t.cfg.max_cycles + 1)
          in
          if target > n0 + 1 then begin
            if t.obs.Obs.on then
              Obs.catch_up_samples t.obs ~target
                ~backlog:(t.sb.SB.free - t.sb.SB.scan)
                ~fifo_depth:(Fifo.length t.fifo);
            let span = Kernel.fast_forward t.clock ~target in
            if t.empty_waiters <> 0 && t.parallel_phase && not t.finished
            then t.empty_cycles <- t.empty_cycles + span
          end
        end
      end
  end

let step ?trace ?horizon t =
  let n0 = t.clock.Kernel.now in
  if n0 > t.cfg.max_cycles then
    raise
      (Simulation_diverged
         (Printf.sprintf "exceeded %d cycles (scan=%d free=%d)" t.cfg.max_cycles
            (t.sb.SB.scan) (t.sb.SB.free)));
  let fast = t.fast && Option.is_none trace in
  (* A per-step trace leaves the fast path for this step: parked cores
     are its artifact, so flush them back to due waiters. *)
  if (not fast) && t.parked_mask <> 0 then unpark_all t;
  (* The concurrent mutator and the banked driver move [free] and the
     termination grant between steps. *)
  if t.parked_mask <> 0 && may_wake t ~after:(-1) then
    ignore (wake_ready t ~now:n0 ~after:(-1) ~count:0);
  let cores = t.cores in
  let n = Array.length cores in
  let due = t.due_ids in
  let d = ref 0 in
  (* Branch-free compaction: whether a core is due is close to random
     from cycle to cycle, so a branch here mispredicts often. *)
  for i = 0 to n - 1 do
    Array.unsafe_set due !d i;
    d := !d + Bool.to_int ((Array.unsafe_get cores i).wake <= n0)
  done;
  if fast && !d = 1 && t.parked_mask = 0 then begin
    (* Exactly one core due and nobody parked: run it alone up to the
       earliest foreign wake (capped by the resume horizon, the
       divergence bound and the cycle budget, so batched segments never
       overshoot a boundary the per-cycle engine observes). Parked cores
       are excluded because a wake inside the segment would have to
       hand them a same-cycle turn; the per-cycle walk handles that. *)
    let only = Array.unsafe_get due 0 in
    let limit = ref (t.cfg.max_cycles + 1) in
    (match horizon with Some h -> if h < !limit then limit := h | None -> ());
    (match t.cfg.cycle_budget with
    | Some b -> if b < !limit then limit := b
    | None -> ());
    for i = 0 to n - 1 do
      if i <> only then begin
        let w = (Array.unsafe_get cores i).wake in
        if w < !limit then limit := w
      end
    done;
    if !limit > n0 + 1 then
      step_exclusive ?horizon t (Array.unsafe_get cores only) ~limit:!limit
    else step_cycle ?horizon t ~n0 ~d:1 ~park:true
  end
  else step_cycle ?trace ?horizon t ~n0 ~d:!d ~park:fast

let finalize t =
  if not (all_halted t) then invalid_arg "Coprocessor.finalize: not halted";
  (* The sanitizer observes the stop-the-world collection only: detach
     before the mutator (concurrent mode, inter-cycle allocation) drives
     the same machine. *)
  San.detach t.san;
  if t.prof.Prof.on then Prof.close t.prof ~total:(now t);
  if t.obs.Obs.on then Obs.finish t.obs ~cycle:(now t);
  (* Commit the free register into the heap and swap the spaces. *)
  (H.to_space t.heap).Semispace.free <- t.sb.SB.free;
  H.flip t.heap;
  let live_objects =
    Array.fold_left (fun acc c -> acc + c.counters.objects_evacuated) 0 t.cores
  in
  {
    total_cycles = now t;
    executed_cycles = Kernel.executed_cycles t.clock;
    skipped_cycles = Kernel.skipped_cycles t.clock;
    wall_seconds = Kernel.wall_seconds t.clock;
    root_cycles = t.parallel_start;
    empty_worklist_cycles = t.empty_cycles;
    per_core = Array.map (fun c -> c.counters) t.cores;
    live_objects;
    live_words = Semispace.used (H.from_space t.heap);
    fifo_hits = Fifo.hits t.fifo;
    fifo_misses = Fifo.misses t.fifo;
    fifo_overflows = Fifo.overflows t.fifo;
    mem_loads = Mem.loads t.mem;
    mem_stores = Mem.stores t.mem;
    mem_rejected_bandwidth = Mem.rejected_bandwidth t.mem;
    mem_rejected_order = Mem.rejected_order t.mem;
    header_cache_hits = Mem.header_cache_hits t.mem;
    header_cache_misses = Mem.header_cache_misses t.mem;
    faults_injected = Injector.total t.faults;
    corruptions_injected = Injector.corruptions t.faults;
    sanitizer_findings = San.findings t.san;
    sanitizer_total = San.total t.san;
  }

let sanitizer_findings t = San.findings t.san
let sanitizer_total t = San.total t.san

let collect ?trace ?obs ?prof cfg heap =
  let t = start ?obs ?prof cfg heap in
  while not (all_halted t) do
    step ?trace t
  done;
  finalize t

(* ------------------------------------------------------------------ *)
(* Main-processor hooks for concurrent collection (paper Section VII:
   "allow the multicore coprocessor to run concurrently to the main
   processor"). Called between cycles, so within-cycle atomicity of the
   simulation makes the register manipulations safe; lock conflicts with
   the cores surface as [`Wait]. *)
(* ------------------------------------------------------------------ *)

let mutator_evacuate t addr =
  let w0 = H.header0 t.heap addr in
  match Hdr.state w0 with
  | Gray ->
    (* already evacuated: the read barrier just follows the forwarding
       pointer *)
    `Done (H.header1 t.heap addr, 2)
  | White | Black ->
    if SB.free_lock_owner t.sb <> None || SB.header_owner t.sb ~addr >= 0
    then `Wait
    else begin
      let size = Hdr.size w0 in
      let naddr = t.sb.SB.free in
      if naddr + size > t.tospace_limit then raise Heap_overflow;
      (* This interface is modeled hardware (the read barrier's
         evacuation port; the banked machine's FIFO arbitration step)
         acting between cycles — not a core, so the lockset protocol's
         register-poke rule does not apply to its free claim. The FIFO
         push below stays hooked: the shadow queue must see every
         buffered frame. *)
      let hooks = t.sb.SB.hooks in
      let hooks_were_on = hooks.Hsgc_sanitizer.Hooks.on in
      hooks.Hsgc_sanitizer.Hooks.on <- false;
      SB.set_free t.sb (naddr + size);
      hooks.Hsgc_sanitizer.Hooks.on <- hooks_were_on;
      H.set_header0 t.heap addr (Hdr.with_state w0 Gray);
      H.set_header1 t.heap addr naddr;
      H.set_header0 t.heap naddr
        (Hdr.encode ~state:Gray ~pi:(Hdr.pi w0) ~delta:(Hdr.delta w0));
      H.set_header1 t.heap naddr addr;
      ignore (Fifo.push t.fifo naddr);
      (* a read-barrier evacuation costs the main processor roughly what
         it costs a GC core: a header read, the free claim, two header
         stores *)
      `Done (naddr, 6)
    end

let mutator_alloc t ~pi ~delta =
  if SB.free_lock_owner t.sb <> None then `Wait
  else begin
    let size = Hdr.size_of ~pi ~delta in
    let naddr = t.sb.SB.free in
    if naddr + size > t.tospace_limit then raise Heap_overflow;
    SB.set_free t.sb (naddr + size);
    (* Allocated black: the scan loop skips it (its contents are already
       tospace-only by the allocation-invariant). *)
    H.set_header0 t.heap naddr (Hdr.encode ~state:Black ~pi ~delta);
    H.set_header1 t.heap naddr 0;
    for i = 0 to size - Hdr.header_words - 1 do
      H.write t.heap (naddr + Hdr.header_words + i) 0
    done;
    ignore (Fifo.push t.fifo naddr);
    `Done (naddr, 3 + size)
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint/restore: the complete machine state as a sectioned,
   CRC-guarded snapshot. One section per subsystem, so an integrity
   mutation test can flip a byte in each and watch the matching CRC
   catch it. Restore overwrites a freshly [start]ed machine of the same
   configuration in place. *)
(* ------------------------------------------------------------------ *)

module Snapshot = struct
  module Codec = Hsgc_util.Codec
  module Ckpt = Hsgc_checkpoint.Checkpoint

  (* Microprogram states, numbered in declaration order. The numeric
     code is a checkpoint artifact only — nothing else depends on it. *)
  let state_to_int = function
    | Init -> 0
    | Root_next -> 1
    | Root_header_wait -> 2
    | Start_barrier -> 3
    | Try_lock_scan -> 4
    | Scan_header_wait -> 5
    | Body_issue_load -> 6
    | Body_wait -> 7
    | Lock_child -> 8
    | Child_header_wait -> 9
    | Lock_free -> 10
    | Evac_store_fwd -> 11
    | Evac_store_gray -> 12
    | Store_slot -> 13
    | Piece_done -> 14
    | Blacken -> 15
    | Flush -> 16
    | End_barrier -> 17
    | Halt -> 18

  let state_of_int = function
    | 0 -> Init
    | 1 -> Root_next
    | 2 -> Root_header_wait
    | 3 -> Start_barrier
    | 4 -> Try_lock_scan
    | 5 -> Scan_header_wait
    | 6 -> Body_issue_load
    | 7 -> Body_wait
    | 8 -> Lock_child
    | 9 -> Child_header_wait
    | 10 -> Lock_free
    | 11 -> Evac_store_fwd
    | 12 -> Evac_store_gray
    | 13 -> Store_slot
    | 14 -> Piece_done
    | 15 -> Blacken
    | 16 -> Flush
    | 17 -> End_barrier
    | 18 -> Halt
    | n -> raise (Codec.Error (Printf.sprintf "unknown core state %d" n))

  let stall_of_int i =
    match List.nth_opt Counters.all_stalls i with
    | Some s -> s
    | None -> raise (Codec.Error (Printf.sprintf "unknown stall kind %d" i))

  (* --- config section ---------------------------------------------- *)
  (* The full configuration the machine was started under, so a resume
     can reconstruct it and a restore onto a mismatched machine fails
     with a structured error instead of corrupting state. *)

  let encode_config (cfg : config) w =
    Codec.W.int w cfg.n_cores;
    Codec.W.int w cfg.max_cycles;
    Codec.W.int w cfg.mem.Mem.header_load_latency;
    Codec.W.int w cfg.mem.Mem.body_load_latency;
    Codec.W.int w cfg.mem.Mem.store_latency;
    Codec.W.int w cfg.mem.Mem.bandwidth;
    Codec.W.int w cfg.mem.Mem.fifo_capacity;
    Codec.W.int w cfg.mem.Mem.header_cache_entries;
    (match cfg.scan_unit with
    | None -> Codec.W.bool w false
    | Some u ->
      Codec.W.bool w true;
      Codec.W.int w u);
    Codec.W.bool w cfg.skip;
    (match cfg.faults with
    | None -> Codec.W.bool w false
    | Some s ->
      Codec.W.bool w true;
      Codec.W.int w s.Injector.seed;
      Codec.W.float w s.Injector.delay_prob;
      Codec.W.int w s.Injector.delay_max;
      Codec.W.float w s.Injector.fifo_drop_prob;
      Codec.W.float w s.Injector.cache_invalidate_prob;
      Codec.W.float w s.Injector.busy_prob;
      Codec.W.float w s.Injector.corrupt_body_prob;
      Codec.W.float w s.Injector.corrupt_header_prob);
    (match cfg.cycle_budget with
    | None -> Codec.W.bool w false
    | Some b ->
      Codec.W.bool w true;
      Codec.W.int w b);
    Codec.W.int w cfg.stall_window

  let decode_config r =
    let n_cores = Codec.R.int r in
    let max_cycles = Codec.R.int r in
    let header_load_latency = Codec.R.int r in
    let body_load_latency = Codec.R.int r in
    let store_latency = Codec.R.int r in
    let bandwidth = Codec.R.int r in
    let fifo_capacity = Codec.R.int r in
    let header_cache_entries = Codec.R.int r in
    let scan_unit = if Codec.R.bool r then Some (Codec.R.int r) else None in
    let skip = Codec.R.bool r in
    let faults =
      if Codec.R.bool r then begin
        let seed = Codec.R.int r in
        let delay_prob = Codec.R.float r in
        let delay_max = Codec.R.int r in
        let fifo_drop_prob = Codec.R.float r in
        let cache_invalidate_prob = Codec.R.float r in
        let busy_prob = Codec.R.float r in
        let corrupt_body_prob = Codec.R.float r in
        let corrupt_header_prob = Codec.R.float r in
        Some
          {
            Injector.seed;
            delay_prob;
            delay_max;
            fifo_drop_prob;
            cache_invalidate_prob;
            busy_prob;
            corrupt_body_prob;
            corrupt_header_prob;
          }
      end
      else None
    in
    let cycle_budget = if Codec.R.bool r then Some (Codec.R.int r) else None in
    let stall_window = Codec.R.int r in
    {
      n_cores;
      mem =
        {
          Mem.header_load_latency;
          body_load_latency;
          store_latency;
          bandwidth;
          fifo_capacity;
          header_cache_entries;
        };
      max_cycles;
      scan_unit;
      skip;
      faults;
      cycle_budget;
      stall_window;
      sanitize = San.Off;
    }

  (* --- core register files ------------------------------------------ *)

  let encode_core c w =
    Codec.W.int w (state_to_int c.state);
    Codec.W.int w c.obj_to;
    Codec.W.int w c.obj_from;
    Codec.W.int w c.h0;
    Codec.W.int w c.slot;
    Codec.W.int w c.slot_limit;
    Codec.W.bool w c.whole;
    Codec.W.int w c.child;
    Codec.W.int w c.child_h0;
    Codec.W.int w c.value;
    Codec.W.int w c.evac_new;
    Codec.W.int w c.root_idx;
    Codec.W.int w (match c.ret with Ret_slot -> 0 | Ret_root -> 1);
    Codec.W.int w c.stall_cycle;
    Codec.W.int w (stall_index c.stall_kind);
    Codec.W.int w c.wake

  let restore_core c r =
    c.state <- state_of_int (Codec.R.int r);
    c.obj_to <- Codec.R.int r;
    c.obj_from <- Codec.R.int r;
    c.h0 <- Codec.R.int r;
    c.slot <- Codec.R.int r;
    c.slot_limit <- Codec.R.int r;
    c.whole <- Codec.R.bool r;
    c.child <- Codec.R.int r;
    c.child_h0 <- Codec.R.int r;
    c.value <- Codec.R.int r;
    c.evac_new <- Codec.R.int r;
    c.root_idx <- Codec.R.int r;
    (c.ret <-
       (match Codec.R.int r with
       | 0 -> Ret_slot
       | 1 -> Ret_root
       | n -> raise (Codec.Error (Printf.sprintf "unknown return point %d" n))));
    c.stall_cycle <- Codec.R.int r;
    c.stall_kind <- stall_of_int (Codec.R.int r);
    c.wake <- Codec.R.int r

  (* --- simulator-level scheduling state ----------------------------- *)

  let encode_sched t w =
    Kernel.encode t.clock w;
    Kernel.watchdog_encode t.watchdog w;
    Codec.W.int w t.hooks.Hooks.cycle;
    Codec.W.int w !(t.events);
    Codec.W.int w t.n_halted;
    Codec.W.bool w t.finished;
    Codec.W.bool w t.saw_empty;
    Codec.W.bool w t.parallel_phase;
    Codec.W.int w t.parallel_start;
    Codec.W.int w t.empty_cycles;
    Codec.W.int w t.cur_frame;
    Codec.W.int w t.cur_h0;
    Codec.W.int w t.cur_from;
    Codec.W.int w t.cur_next_slot;
    Codec.W.int_array w t.pieces

  let restore_sched t r =
    Kernel.restore t.clock r;
    Kernel.watchdog_restore t.watchdog r;
    t.hooks.Hooks.cycle <- Codec.R.int r;
    t.events := Codec.R.int r;
    t.n_halted <- Codec.R.int r;
    t.finished <- Codec.R.bool r;
    t.saw_empty <- Codec.R.bool r;
    t.parallel_phase <- Codec.R.bool r;
    t.parallel_start <- Codec.R.int r;
    t.empty_cycles <- Codec.R.int r;
    t.cur_frame <- Codec.R.int r;
    t.cur_h0 <- Codec.R.int r;
    t.cur_from <- Codec.R.int r;
    t.cur_next_slot <- Codec.R.int r;
    Codec.R.int_array_into r t.pieces ~what:"piece table"

  (* --- the snapshot ------------------------------------------------- *)

  let sec f =
    let w = Codec.W.create () in
    f w;
    Codec.W.contents w

  let save t ~fingerprint =
    if t.cfg.sanitize <> San.Off then
      invalid_arg
        "Coprocessor.Snapshot.save: sanitizer state is not checkpointable";
    if t.remote != remote_disabled then
      (* A bank's outbox, home range and termination grant live in the
         driver, not the config the restore path reconstructs from. *)
      invalid_arg
        "Coprocessor.Snapshot.save: banked-machine banks are not \
         snapshottable";
    (* Parked waiters are a scheduling artifact: flush them to plain
       due cores so the snapshot is engine-independent (each wait kind's
       credited stalls are exactly the per-cycle ones). *)
    unpark_all t;
    let wtr = Ckpt.writer ~fingerprint in
    Ckpt.add_section wtr "config" (sec (encode_config t.cfg));
    Ckpt.add_section wtr "heap" (sec (H.encode t.heap));
    Ckpt.add_section wtr "memsys" (sec (Mem.encode t.mem));
    Ckpt.add_section wtr "fifo" (sec (Fifo.encode t.fifo));
    Ckpt.add_section wtr "ports"
      (sec (fun w ->
           Array.iter
             (fun c ->
               Port.encode c.hl w;
               Port.encode c.hs w;
               Port.encode c.bl w;
               Port.encode c.bs w)
             t.cores));
    Ckpt.add_section wtr "sync" (sec (SB.encode t.sb));
    Ckpt.add_section wtr "cores"
      (sec (fun w -> Array.iter (fun c -> encode_core c w) t.cores));
    Ckpt.add_section wtr "counters"
      (sec (fun w -> Array.iter (fun c -> Counters.encode c.counters w) t.cores));
    Ckpt.add_section wtr "kernel" (sec (encode_sched t));
    Ckpt.add_section wtr "rng" (sec (Injector.encode t.faults));
    Ckpt.add_section wtr "obs"
      (sec (fun w ->
           Obs.encode t.obs w;
           Prof.encode t.prof w));
    wtr

  let config snap =
    let r = Codec.R.of_string (Ckpt.section snap "config") in
    try
      let cfg = decode_config r in
      if not (Codec.R.eof r) then
        raise (Ckpt.Corrupt "section \"config\": trailing bytes");
      cfg
    with Codec.Error m ->
      raise (Ckpt.Corrupt (Printf.sprintf "section \"config\": %s" m))

  let restore t snap =
    if t.cfg.sanitize <> San.Off then
      invalid_arg
        "Coprocessor.Snapshot.restore: sanitizer state is not checkpointable";
    let with_sec name f =
      let r = Codec.R.of_string (Ckpt.section snap name) in
      (try f r
       with Codec.Error m ->
         raise (Ckpt.Corrupt (Printf.sprintf "section %S: %s" name m)));
      if not (Codec.R.eof r) then
        raise (Ckpt.Corrupt (Printf.sprintf "section %S: trailing bytes" name))
    in
    with_sec "config" (fun r ->
        let enc = decode_config r in
        if enc <> { t.cfg with sanitize = San.Off } then
          raise (Codec.Error "snapshot taken under a different configuration"));
    with_sec "heap" (H.restore t.heap);
    with_sec "memsys" (Mem.restore t.mem);
    with_sec "fifo" (Fifo.restore t.fifo);
    with_sec "ports" (fun r ->
        Array.iter
          (fun c ->
            Port.restore c.hl r;
            Port.restore c.hs r;
            Port.restore c.bl r;
            Port.restore c.bs r)
          t.cores);
    with_sec "sync" (SB.restore t.sb);
    with_sec "cores" (fun r -> Array.iter (fun c -> restore_core c r) t.cores);
    with_sec "counters" (fun r ->
        Array.iter (fun c -> Counters.restore c.counters r) t.cores);
    with_sec "kernel" (restore_sched t);
    with_sec "rng" (Injector.restore t.faults);
    with_sec "obs" (fun r ->
        Obs.restore t.obs r;
        Prof.restore t.prof r);
    (* Rebuild the wake queue from the restored per-core wake times: a
       strictly-future wake is re-armed (the armed array is the queue's
       source of truth; stale entries are pruned lazily), everything
       else — awake, due, or halted — is disarmed, matching what the
       queue would answer in the original process. *)
    let now = t.clock.Kernel.now in
    Array.iter
      (fun c ->
        if c.wake > now && c.wake < max_int then
          Wake_queue.arm t.wakeq ~id:c.id ~time:c.wake
        else Wake_queue.disarm t.wakeq ~id:c.id)
      t.cores
end
