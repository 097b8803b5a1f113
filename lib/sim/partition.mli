(** Bank-count rules of the banked variant machine
    ({!Hsgc_coproc.Banked}).

    The banked machine splits its cores into equal contiguous banks,
    each with a private sync-block bank and memory lane; only the
    header-FIFO arbitration step serializes banks. The bank count is a
    simulated-hardware parameter, so it must split the cores exactly and
    its default must never depend on the host. *)

val validate_banked : n_cores:int -> n_partitions:int -> (unit, string) result
(** [Error msg] when either count is [< 1], when there are more banks
    than cores, or when the bank count does not divide the core count
    (equal banks; one core per bank is the limit case). With 1 core only
    1 bank is valid. The message is suitable for a CLI error and names
    the nearest valid count below. *)

val default_banked_partitions : n_cores:int -> int
(** Largest divisor of [n_cores] that is [<= 4] — the default bank
    count of the banked machine. It is a hardware constant: it never
    depends on the host, so the same command simulates the same machine
    everywhere (the host lanes that step the banks are chosen
    separately). Always passes {!validate_banked}. *)
