module Diag = Hsgc_sanitizer.Diag
module Hooks = Hsgc_sanitizer.Hooks
module Obs = Hsgc_obs.Tracer

type t = {
  n : int;
  bank : int; (* -1 = the dense machine's single block *)
  mutable scan : int;
  mutable free : int;
  mutable scan_owner : int; (* -1 = unlocked *)
  mutable free_owner : int;
  header_regs : int array; (* 0 = no header locked by that core *)
  busy : bool array;
  arrived : bool array;
  mutable release_count : int;
  (* Flat population counts shadowing the three register arrays, kept
     exactly in sync by the mutators below. They turn the per-cycle
     O(n_cores) probes — barrier completeness, the termination check's
     busy sweep, the header-lock comparator when no lock is held — into
     single int compares, which the stepping engines run every cycle. *)
  mutable busy_count : int;
  mutable arrived_count : int;
  mutable hdr_locked_count : int;
  hooks : Hooks.t;
  obs : Obs.t;
}

let create ?hooks ?(obs = Obs.disabled) ?(bank = -1) ~n_cores () =
  if n_cores <= 0 then invalid_arg "Sync_block.create";
  let hooks = match hooks with Some h -> h | None -> Hooks.create () in
  {
    n = n_cores;
    bank;
    scan = 0;
    free = 0;
    scan_owner = -1;
    free_owner = -1;
    header_regs = Array.make n_cores 0;
    busy = Array.make n_cores false;
    arrived = Array.make n_cores false;
    release_count = 0;
    busy_count = 0;
    arrived_count = 0;
    hdr_locked_count = 0;
    hooks;
    obs;
  }

let n_cores t = t.n
let bank t = t.bank

let locks_held t ~core =
  let b = Buffer.create 16 in
  Buffer.add_char b '{';
  let sep () = if Buffer.length b > 1 then Buffer.add_char b ',' in
  if t.scan_owner = core then (sep (); Buffer.add_string b "scan");
  if core >= 0 && core < t.n && t.header_regs.(core) <> 0 then begin
    sep ();
    Buffer.add_string b (Printf.sprintf "hdr:%d" t.header_regs.(core))
  end;
  if t.free_owner = core then (sep (); Buffer.add_string b "free");
  Buffer.add_char b '}';
  Buffer.contents b

let protocol_fail t ~core ?addr check detail =
  Diag.fail ~cycle:t.hooks.Hooks.cycle ~core ?addr ~locks:(locks_held t ~core)
    check detail

let scan t = t.scan
let free t = t.free

let set_scan t v =
  t.scan <- v;
  if t.hooks.Hooks.on then t.hooks.Hooks.reg_set ~scan:true ~value:v

let set_free t v =
  t.free <- v;
  if t.hooks.Hooks.on then t.hooks.Hooks.reg_set ~scan:false ~value:v

let check_core t core =
  if core < 0 || core >= t.n then invalid_arg "Sync_block: bad core index"

let try_lock_scan t ~core =
  check_core t core;
  if t.scan_owner = core then
    protocol_fail t ~core Diag.Lock_state "scan lock re-entry";
  (* Lock ordering scan < header < free: scan is the first lock taken. *)
  if t.header_regs.(core) <> 0 || t.free_owner = core then
    protocol_fail t ~core Diag.Lock_order
      "lock-order violation acquiring scan (scan < header < free)";
  if t.scan_owner = -1 then begin
    t.scan_owner <- core;
    if t.hooks.Hooks.on then
      t.hooks.Hooks.lock_acquired ~lock:Hooks.scan_lock ~core ~addr:(-1);
    if t.obs.Obs.on then Obs.lock_acquired t.obs ~lock:Obs.lock_scan ~core;
    true
  end
  else false

let unlock_scan t ~core =
  if t.scan_owner <> core then
    protocol_fail t ~core Diag.Lock_state "unlock_scan by non-owner";
  t.scan_owner <- -1;
  if t.hooks.Hooks.on then
    t.hooks.Hooks.lock_released ~lock:Hooks.scan_lock ~core ~addr:(-1);
  if t.obs.Obs.on then Obs.lock_released t.obs ~lock:Obs.lock_scan ~core

let advance_scan t ~core n =
  if t.scan_owner <> core then
    protocol_fail t ~core Diag.Scan_protocol "advance_scan without lock";
  let was = t.scan in
  t.scan <- t.scan + n;
  if t.hooks.Hooks.on then
    t.hooks.Hooks.scan_advanced ~core ~scan_was:was ~scan_now:t.scan
      ~free:t.free

let try_lock_free t ~core =
  check_core t core;
  if t.free_owner = core then
    protocol_fail t ~core Diag.Lock_state "free lock re-entry";
  if t.free_owner = -1 then begin
    t.free_owner <- core;
    if t.hooks.Hooks.on then
      t.hooks.Hooks.lock_acquired ~lock:Hooks.free_lock ~core ~addr:(-1);
    if t.obs.Obs.on then Obs.lock_acquired t.obs ~lock:Obs.lock_free ~core;
    true
  end
  else false

let unlock_free t ~core =
  if t.free_owner <> core then
    protocol_fail t ~core Diag.Lock_state "unlock_free by non-owner";
  t.free_owner <- -1;
  if t.hooks.Hooks.on then
    t.hooks.Hooks.lock_released ~lock:Hooks.free_lock ~core ~addr:(-1);
  if t.obs.Obs.on then Obs.lock_released t.obs ~lock:Obs.lock_free ~core

let claim_free t ~core n =
  if t.free_owner <> core then
    protocol_fail t ~core Diag.Free_protocol "claim_free without lock";
  let addr = t.free in
  t.free <- t.free + n;
  if t.hooks.Hooks.on then t.hooks.Hooks.free_claimed ~core ~addr ~size:n;
  addr

let scan_lock_owner t = if t.scan_owner = -1 then None else Some t.scan_owner
let free_lock_owner t = if t.free_owner = -1 then None else Some t.free_owner

(* The comparator array: the first core other than [skip] whose
   header-lock register holds [addr], or -1. Stops at the first match —
   at most one core can hold a given header. Top-level recursion over
   plain ints, so the lookup allocates nothing. *)
let rec match_from (regs : int array) ~(addr : int) ~skip i n =
  if i >= n then -1
  else if i <> skip && Array.unsafe_get regs i = addr then i
  else match_from regs ~addr ~skip (i + 1) n

let acquire_header t ~core ~addr =
  check_core t core;
  if addr = 0 then
    protocol_fail t ~core ~addr Diag.Null_header
      "cannot lock the null header";
  if t.header_regs.(core) <> 0 then
    protocol_fail t ~core ~addr Diag.Lock_state
      "header lock re-entry (one header lock per core)";
  if t.free_owner = core then
    protocol_fail t ~core ~addr Diag.Lock_order
      "lock-order violation acquiring header after free";
  (* With no header lock held anywhere the comparator cannot match; the
     count makes the common uncontended acquire O(1). *)
  let owner =
    if t.hdr_locked_count = 0 then -1
    else match_from t.header_regs ~addr ~skip:core 0 t.n
  in
  if owner < 0 then begin
    t.header_regs.(core) <- addr;
    t.hdr_locked_count <- t.hdr_locked_count + 1;
    if t.hooks.Hooks.on then
      t.hooks.Hooks.lock_acquired ~lock:Hooks.header_lock ~core ~addr;
    if t.obs.Obs.on then Obs.lock_acquired t.obs ~lock:Obs.lock_header ~core
  end;
  owner

let try_lock_header t ~core ~addr = acquire_header t ~core ~addr < 0

let unlock_header t ~core =
  if t.header_regs.(core) = 0 then
    protocol_fail t ~core Diag.Lock_state "unlock_header without lock";
  let addr = t.header_regs.(core) in
  t.header_regs.(core) <- 0;
  t.hdr_locked_count <- t.hdr_locked_count - 1;
  if t.hooks.Hooks.on then
    t.hooks.Hooks.lock_released ~lock:Hooks.header_lock ~core ~addr;
  if t.obs.Obs.on then Obs.lock_released t.obs ~lock:Obs.lock_header ~core

let header_lock_of t ~core =
  let a = t.header_regs.(core) in
  if a = 0 then None else Some a

let header_owner t ~addr =
  if t.hdr_locked_count = 0 then -1
  else match_from t.header_regs ~addr ~skip:(-1) 0 t.n

let set_busy t ~core b =
  check_core t core;
  if t.busy.(core) <> b then begin
    t.busy.(core) <- b;
    t.busy_count <- t.busy_count + (if b then 1 else -1)
  end

let busy t ~core = t.busy.(core)
let any_busy t = t.busy_count > 0

(* The termination probe: all busy bits clear, ignoring the probing
   core's own. Runs under the scan lock at every object grab, so the
   count (instead of an O(n_cores) sweep) is on the hot path. *)
let none_busy_except t ~core =
  t.busy_count = 0 || (t.busy_count = 1 && t.busy.(core))

let barrier_arrive t ~core =
  check_core t core;
  let passed =
    if t.release_count > 0 then
      if t.arrived.(core) then begin
        t.arrived.(core) <- false;
        t.arrived_count <- t.arrived_count - 1;
        t.release_count <- t.release_count - 1;
        true
      end
      else
        (* This core already passed and reached the next barrier; it must
           wait for the previous one to fully drain. *)
        false
    else begin
      if not t.arrived.(core) then begin
        t.arrived.(core) <- true;
        t.arrived_count <- t.arrived_count + 1
      end;
      (* Completeness is the arrival count reaching the core count — the
         per-arrival O(n_cores) sweep this replaces ran every cycle for
         every waiting core. *)
      if t.arrived_count = t.n then begin
        t.release_count <- t.n;
        t.arrived.(core) <- false;
        t.arrived_count <- t.arrived_count - 1;
        t.release_count <- t.release_count - 1;
        true
      end
      else false
    end
  in
  if passed && t.hooks.Hooks.on then t.hooks.Hooks.barrier_passed ~core;
  passed

(* The SB is combinational: locks, busy bits and the barrier all react
   to core actions within the same cycle and schedule nothing on their
   own, so it never publishes a wake time. A core blocked on SB state
   does not poll for it either: the coprocessor parks it and the core
   action that changes the state it waits on (a release, a [free]
   claim, a busy bit clearing) wakes it. *)
let next_wake (_ : t) : int option = None

let assert_no_locks t ~core =
  if t.scan_owner = core then
    protocol_fail t ~core Diag.Locks_at_barrier "core still holds scan lock";
  if t.free_owner = core then
    protocol_fail t ~core Diag.Locks_at_barrier "core still holds free lock";
  if t.header_regs.(core) <> 0 then
    protocol_fail t ~core
      ~addr:t.header_regs.(core)
      Diag.Locks_at_barrier "core still holds a header lock"

(* Checkpoint codec: the complete register file — scan/free, lock
   owners, per-core header-lock registers, busy bits, barrier arrival
   bits and the release counter. *)
module Codec = Hsgc_util.Codec

let encode t w =
  Codec.W.int w t.scan;
  Codec.W.int w t.free;
  Codec.W.int w t.scan_owner;
  Codec.W.int w t.free_owner;
  Codec.W.int_array w t.header_regs;
  Codec.W.bool_array w t.busy;
  Codec.W.bool_array w t.arrived;
  Codec.W.int w t.release_count

let restore t r =
  t.scan <- Codec.R.int r;
  t.free <- Codec.R.int r;
  t.scan_owner <- Codec.R.int r;
  t.free_owner <- Codec.R.int r;
  Codec.R.int_array_into r t.header_regs ~what:"header-lock registers";
  Codec.R.bool_array_into r t.busy ~what:"busy bits";
  Codec.R.bool_array_into r t.arrived ~what:"barrier arrival bits";
  t.release_count <- Codec.R.int r;
  (* The shadow counts are derived state: recompute from the restored
     arrays rather than trusting (or versioning) the snapshot. *)
  let count_true a =
    let n = ref 0 in
    Array.iter (fun b -> if b then incr n) a;
    !n
  in
  t.busy_count <- count_true t.busy;
  t.arrived_count <- count_true t.arrived;
  t.hdr_locked_count <- 0;
  Array.iter (fun a -> if a <> 0 then t.hdr_locked_count <- t.hdr_locked_count + 1) t.header_regs
