(** The synchronization block (SB) of the GC coprocessor (paper Section
    V-C).

    The SB holds the global synchronization state:

    - the [scan] and [free] registers, readable by every core in every
      cycle, each guarded by a dedicated lock;
    - one header-lock register per core — a core locks an object header by
      writing the header's address into its own register; the SB compares
      it against all other cores' registers in parallel and stalls the
      core on a match;
    - the [ScanState] register with one busy bit per core;
    - a barrier: a micro-instruction marked as synchronizing stalls its
      core until all cores have reached one.

    Contention resolution is a static prioritization: the lowest core
    index wins. Acquire/release cost no cycles when uncontended, and a
    lock released by one core can be re-acquired by another in the same
    clock cycle. The simulation obtains both properties by stepping cores
    in priority order within a cycle and resolving lock operations
    immediately.

    Lock ordering [scan < header < free] (paper Section IV) is asserted:
    a core acquiring [scan] must hold no other lock; a core acquiring a
    header lock must not hold [free]. Protocol violations raise
    {!Hsgc_sanitizer.Diag.Violation} carrying the cycle (stamped into the
    shared hook record by the coprocessor), core, and held lockset.

    When a sanitizer is attached (via the optional [hooks] record passed
    to {!create}) every successful lock transition, scan/free advance,
    register write and barrier pass is also reported to it; with no
    sanitizer the hooks are nops behind a single [hooks.on] branch. *)

(* The record is exposed so the simulator's per-cycle loop can read the
   registers (scan/free/busy bits) with direct field loads — without
   flambda each [val] accessor is a real cross-module call, and these
   reads happen several times per core per cycle. The fields model
   hardware registers: read them freely, but mutate only through the
   operations below, which enforce the locking protocol and priority
   rules. *)
type t = {
  n : int;
  bank : int;
      (** which sync-block bank this register file is, in a banked
          machine ({!Hsgc_coproc.Banked}): each bank is a complete
          private SB serving one partition of cores. [-1] (the
          default) is the paper's dense machine — one block shared by
          every core. A label only: it never changes protocol
          behavior, but stamps diagnostics so a banked stall dump
          names the bank. *)
  mutable scan : int;
  mutable free : int;
  mutable scan_owner : int;  (** -1 = unlocked *)
  mutable free_owner : int;  (** -1 = unlocked *)
  header_regs : int array;  (** 0 = no header locked by that core *)
  busy : bool array;
  arrived : bool array;  (** barrier arrival flags *)
  mutable release_count : int;
  mutable busy_count : int;
      (** population count of [busy] — flat shadow kept exact by
          [set_busy], turning the per-grab termination sweep into one
          int compare *)
  mutable arrived_count : int;  (** population count of [arrived] *)
  mutable hdr_locked_count : int;
      (** nonzero entries in [header_regs]: the header-lock comparator
          short-circuits when no lock is held anywhere *)
  hooks : Hsgc_sanitizer.Hooks.t;
  obs : Hsgc_obs.Tracer.t;
}

val create :
  ?hooks:Hsgc_sanitizer.Hooks.t ->
  ?obs:Hsgc_obs.Tracer.t ->
  ?bank:int ->
  n_cores:int -> unit -> t
(** [obs] (default disabled) feeds the tracer's lock hold-time
    histograms: every successful acquire stamps the cycle, every
    release observes the hold duration. [bank] (default [-1]) labels
    the register file as one bank of a banked machine. *)

val n_cores : t -> int
val bank : t -> int

(** {2 The scan and free registers} *)

val scan : t -> int
val free : t -> int
val set_scan : t -> int -> unit
(** Unsynchronized initialization (used by core 1 before the barrier). *)

val set_free : t -> int -> unit

val try_lock_scan : t -> core:int -> bool
(** Acquire the scan lock; [false] = already held by another core (the
    caller stalls this cycle). Re-acquiring a lock already held by the
    same core is an error (the microprogram never does it). *)

val unlock_scan : t -> core:int -> unit

val advance_scan : t -> core:int -> int -> unit
(** [advance_scan t ~core n] — add [n] to [scan]; the caller must hold the
    scan lock. *)

val try_lock_free : t -> core:int -> bool
val unlock_free : t -> core:int -> unit

val claim_free : t -> core:int -> int -> int
(** [claim_free t ~core n] — current [free], advancing it by [n]; the
    caller must hold the free lock. *)

val scan_lock_owner : t -> int option
val free_lock_owner : t -> int option

(** {2 Header locks} *)

val acquire_header : t -> core:int -> addr:int -> int
(** Write [addr] into the core's header-lock register unless another
    core's register already holds [addr]. Returns [-1] when the lock
    was taken, otherwise the index of the core holding it — one
    comparator pass answers both the grant and who to wait for. A core
    can hold at most one header lock; acquiring while holding one is an
    error. *)

val try_lock_header : t -> core:int -> addr:int -> bool
(** [acquire_header] as a bool: [true] = taken. *)

val unlock_header : t -> core:int -> unit

val header_lock_of : t -> core:int -> int option

val header_owner : t -> addr:int -> int
(** The core whose header-lock register holds [addr], or [-1] (also
    the main processor's read-barrier check in concurrent mode). *)

(** {2 Busy bits and termination} *)

val set_busy : t -> core:int -> bool -> unit
val busy : t -> core:int -> bool
val any_busy : t -> bool
val none_busy_except : t -> core:int -> bool
(** All busy bits clear, ignoring [core]'s own bit. *)

(** {2 Barrier} *)

val barrier_arrive : t -> core:int -> bool
(** Core reaches a synchronizing micro-instruction. Returns [true] once
    the barrier has opened (all cores arrived); until then the core calls
    this again every cycle and stalls. The barrier resets itself once all
    cores have passed. *)

(** {2 Event-driven scheduling} *)

val next_wake : t -> int option
(** Always [None]: the SB is combinational — locks, busy bits and the
    barrier change only in response to core actions in the same cycle,
    never on a self-scheduled future event. A core blocked on SB state
    therefore has no wake time of its own: the coprocessor parks it
    (scan lock, header lock, empty worklist) and the core action that
    changes the state it waits on wakes it. *)

(** {2 Invariant checking} *)

val assert_no_locks : t -> core:int -> unit
(** Raise {!Hsgc_sanitizer.Diag.Violation} if the core holds any lock —
    used at barrier boundaries. *)

(** {2 Checkpointing} *)

val encode : t -> Hsgc_util.Codec.W.t -> unit
val restore : t -> Hsgc_util.Codec.R.t -> unit
(** Checkpoint/reinstate the complete register file: scan/free, lock
    owners, header-lock registers, busy and barrier-arrival bits. *)
