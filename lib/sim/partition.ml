let validate_banked ~n_cores ~n_partitions =
  if n_cores < 1 then
    Error (Printf.sprintf "core count must be >= 1 (got %d)" n_cores)
  else if n_partitions < 1 then
    Error (Printf.sprintf "partition count must be >= 1 (got %d)" n_partitions)
  else if n_partitions > n_cores then
    Error
      (Printf.sprintf "partition count (%d) exceeds the core count (%d)"
         n_partitions n_cores)
  else if n_cores mod n_partitions <> 0 then
    Error
      (Printf.sprintf
         "banked mode requires the partition count to divide or cover the \
          core count: %d cores cannot be split into %d equal banks (try %d)"
         n_cores n_partitions
         (let rec down p = if n_cores mod p = 0 then p else down (p - 1) in
          down n_partitions))
  else Ok ()

let max_default_banks = 4

let default_banked_partitions ~n_cores =
  (* The bank count is simulated hardware, so it is a fixed function of
     the core count — never of the host. The largest divisor not above
     [max_default_banks] always passes [validate_banked]. *)
  let rec down p = if n_cores mod p = 0 then p else down (p - 1) in
  down (max 1 (min n_cores max_default_banks))
