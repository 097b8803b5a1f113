type kind = Dense | Banked

type t = {
  cores : int;
  parts : int;
  owner : int array;
  ranges : (int * int) array;
  pkind : kind;
}

type interface = Sync_block | Header_fifo | Memory_bus

let interface_name = function
  | Sync_block -> "sync-block"
  | Header_fifo -> "header-fifo"
  | Memory_bus -> "memory-bus"

let kind_name = function Dense -> "dense" | Banked -> "banked"

(* Awake-partition masks are one bit per partition in a native int. *)
let max_partitions = Sys.int_size - 2

let validate ~n_cores ~n_partitions =
  if n_cores < 1 then
    Error (Printf.sprintf "core count must be >= 1 (got %d)" n_cores)
  else if n_partitions < 1 then
    Error (Printf.sprintf "partition count must be >= 1 (got %d)" n_partitions)
  else if n_partitions > n_cores then
    Error
      (Printf.sprintf "partition count (%d) exceeds the core count (%d)"
         n_partitions n_cores)
  else if n_partitions > max_partitions then
    Error
      (Printf.sprintf "partition count (%d) exceeds the supported maximum (%d)"
         n_partitions max_partitions)
  else Ok ()

let validate_banked ~n_cores ~n_partitions =
  match validate ~n_cores ~n_partitions with
  | Error _ as e -> e
  | Ok () ->
    if n_cores mod n_partitions <> 0 then
      Error
        (Printf.sprintf
           "banked mode requires the partition count to divide or cover the \
            core count: %d cores cannot be split into %d equal banks (try %d)"
           n_cores n_partitions
           (let rec down p = if n_cores mod p = 0 then p else down (p - 1) in
            down n_partitions))
    else Ok ()

let make ~kind ~n_cores ~n_partitions =
  (* Contiguous blocks of near-equal size, the remainder spread over the
     leading partitions: cores [lo, hi) belong to partition p. Contiguity
     matters — a partition owns a range of core ids and (with them) those
     cores' four memory ports, which is what makes the ownership check a
     single array load per core. In a banked plan the remainder is zero
     by validation, so every bank's machine is the same size. *)
  let base = n_cores / n_partitions and extra = n_cores mod n_partitions in
  let owner = Array.make n_cores 0 in
  let ranges = Array.make n_partitions (0, 0) in
  let lo = ref 0 in
  for p = 0 to n_partitions - 1 do
    let size = base + if p < extra then 1 else 0 in
    let hi = !lo + size in
    ranges.(p) <- (!lo, hi);
    for c = !lo to hi - 1 do
      owner.(c) <- p
    done;
    lo := hi
  done;
  { cores = n_cores; parts = n_partitions; owner; ranges; pkind = kind }

let plan ~n_cores ~n_partitions =
  (match validate ~n_cores ~n_partitions with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Partition.plan: " ^ msg));
  make ~kind:Dense ~n_cores ~n_partitions

let banking ~n_cores ~n_partitions =
  (match validate_banked ~n_cores ~n_partitions with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Partition.banking: " ^ msg));
  make ~kind:Banked ~n_cores ~n_partitions

let n_cores t = t.cores
let n_partitions t = t.parts
let owner t = t.owner
let owner_of t ~core = t.owner.(core)
let range t ~partition = t.ranges.(partition)
let kind t = t.pkind

let interfaces t =
  if t.parts <= 1 then []
  else
    match t.pkind with
    | Dense -> [ Sync_block; Header_fifo; Memory_bus ]
    | Banked ->
      (* Each bank owns a private sync block and a private memory
         arbitration lane; only cross-bank header traffic (routed
         through the per-superstep FIFO arbitration step) serializes
         partitions. *)
      [ Header_fifo ]

let default_partitions ~n_cores =
  max 1 (min n_cores (min max_partitions (Domain.recommended_domain_count ())))

let max_default_banks = 4

let default_banked_partitions ~n_cores =
  (* The bank count is simulated hardware, so it is a fixed function of
     the core count — never of the host. The largest divisor not above
     [max_default_banks] always passes [validate_banked]. *)
  let rec down p = if n_cores mod p = 0 then p else down (p - 1) in
  down (max 1 (min n_cores max_default_banks))

let pp ppf t =
  Format.fprintf ppf "%d %s partition%s over %d core%s:" t.parts
    (kind_name t.pkind)
    (if t.parts = 1 then "" else "s")
    t.cores
    (if t.cores = 1 then "" else "s");
  Array.iteri
    (fun p (lo, hi) -> Format.fprintf ppf " p%d=[%d,%d)" p lo hi)
    t.ranges;
  match interfaces t with
  | [] -> Format.fprintf ppf "; no cross-partition interfaces"
  | is ->
    Format.fprintf ppf "; interfaces: %s"
      (String.concat ", " (List.map interface_name is))
