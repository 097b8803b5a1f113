(** Static partition plan for the BSP kernel.

    A plan assigns each simulated GC core — and with it the core's four
    memory ports — to exactly one partition, as contiguous core-id
    blocks of near-equal size. The plan is computed once before the run
    (Manticore-style static partitioning): partitions never migrate, so
    partition ownership of any machine event is a single array load,
    and the superstep scheduler's awake-partition mask is one bit per
    partition.

    The plan also names the {e cross-partition interface set}: the
    shared structures through which partitions can observe each other.
    A {!plan} describes the paper's machine, whose set is dense — the
    synchronization block (scan/free registers, locks, barrier), the
    header FIFO, and the shared memory bus with its per-cycle bandwidth
    budget are all reachable from every core on any cycle — which is
    exactly why the superstep scheduler synchronizes conservatively
    (see docs/PARALLEL.md). A {!banking} plan describes the banked
    variant machine ({!Hsgc_coproc.Banked}): each partition owns a
    private sync-block bank and memory lane, and only the header FIFO
    arbitration step serializes partitions. *)

type t

(** The machine variant a plan describes. *)
type kind = Dense | Banked

val kind_name : kind -> string

val plan : n_cores:int -> n_partitions:int -> t
(** A {!Dense} plan: contiguous near-equal blocks; the remainder cores
    go to the leading partitions. Raises [Invalid_argument] when
    {!validate} rejects the pair. *)

val banking : n_cores:int -> n_partitions:int -> t
(** A {!Banked} plan: equal contiguous blocks (one per sync-block bank
    and memory lane). Raises [Invalid_argument] when {!validate_banked}
    rejects the pair. *)

val validate : n_cores:int -> n_partitions:int -> (unit, string) result
(** [Error msg] when either count is [< 1], when there are more
    partitions than cores, or when the partition count exceeds
    {!max_partitions}. The message is suitable for a CLI error. *)

val validate_banked : n_cores:int -> n_partitions:int -> (unit, string) result
(** {!validate} plus the banked-machine constraint: the partition count
    must divide the core count exactly (equal banks; covering it with
    one core per bank is the limit case). With 1 core only 1 bank is
    valid; more partitions than cores is always rejected. *)

val max_partitions : int
(** Largest supported partition count (awake masks are one bit per
    partition in a native [int]). *)

val default_partitions : n_cores:int -> int
(** [Domain.recommended_domain_count ()] clamped to [1 .. n_cores] (and
    {!max_partitions}) — the [--par-domains] auto default for dense
    plans, where the partition count is host lanes only and never
    changes a simulated result. Banked plans are simulated hardware; use
    {!default_banked_partitions} there. *)

val default_banked_partitions : n_cores:int -> int
(** Largest divisor of [n_cores] that is [<= 4] — the
    default bank count of the banked machine. It is a hardware constant:
    unlike {!default_partitions} it never depends on the host, so the
    same command simulates the same machine everywhere (the host lanes
    that step the banks are chosen separately). Always passes
    {!validate_banked}. *)

val n_cores : t -> int
val n_partitions : t -> int
val kind : t -> kind

val owner : t -> int array
(** Core id -> owning partition, one entry per core. The array is the
    plan's own storage — treat it as read-only. *)

val owner_of : t -> core:int -> int
val range : t -> partition:int -> int * int
(** Core-id half-open interval [(lo, hi)] owned by the partition. *)

(** Cross-partition interfaces of the simulated machine. *)
type interface = Sync_block | Header_fifo | Memory_bus

val interface_name : interface -> string

val interfaces : t -> interface list
(** Empty for a single partition. Dense plans share all three
    structures; banked plans share only the header FIFO (the
    per-superstep arbitration step). *)

val pp : Format.formatter -> t -> unit
