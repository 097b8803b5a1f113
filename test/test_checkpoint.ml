(* Checkpoint/restore (Hsgc_checkpoint + Coprocessor.Snapshot + the
   Hsgc_core.Resume driver): container integrity under mutation, exact
   snapshot round-trips mid-collection, and the load-bearing property —
   resume equivalence. A run killed at any cycle and resumed from its
   latest snapshot must end in the same final state (verify result,
   total cycles, per-core counters, trace digest) as a run that was
   never interrupted, for every default workload across the core grid,
   with or without fault injection. *)

module Coprocessor = Hsgc_coproc.Coprocessor
module Workloads = Hsgc_objgraph.Workloads
module Verify = Hsgc_heap.Verify
module Tracer = Hsgc_obs.Tracer
module Injector = Hsgc_fault.Injector
module Checkpoint = Hsgc_checkpoint.Checkpoint
module Resume = Hsgc_core.Resume
module Interrupt = Hsgc_core.Chaos.Interrupt

let tmpdir () = Filename.temp_dir "hsgc-test-ckpt" ""

let rm_rf dir =
  (match Sys.readdir dir with
  | entries ->
    Array.iter
      (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
      entries
  | exception Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

let with_tmpdir f =
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Container: CRCs, mutation, fingerprint                              *)
(* ------------------------------------------------------------------ *)

(* A checkpoint taken mid-collection, so every section carries real
   machine state (not just initial zeros). *)
let write_midrun_checkpoint ~dir =
  let w = Workloads.db in
  let heap = Workloads.build_heap ~scale:0.05 ~seed:42 w in
  let cfg = Coprocessor.config ~n_cores:8 () in
  let sim = Coprocessor.start cfg heap in
  for _ = 1 to 400 do
    if not (Coprocessor.halted sim) then Coprocessor.step sim
  done;
  let meta =
    {
      Resume.workload = w.Workloads.name;
      scale = 0.05;
      seed = 42;
      obs_on = false;
      obs_capacity = 0;
      obs_interval = 0;
      prof_on = false;
    }
  in
  let path = Filename.concat dir "mid.ckpt" in
  Resume.save sim meta ~path;
  path

(* Satellite: snapshot-integrity mutation. Flip one byte in every
   section payload; every flip must be refused, and the refusal must
   name the mutated section. *)
let test_mutation_every_section_caught () =
  with_tmpdir @@ fun dir ->
  let path = write_midrun_checkpoint ~dir in
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let ranges = Checkpoint.payload_ranges path in
  if List.length ranges < 12 then
    Alcotest.failf "expected >= 12 sections, found %d (%s)"
      (List.length ranges)
      (String.concat ", " (List.map (fun (n, _, _) -> n) ranges));
  List.iter
    (fun (name, off, len) ->
      if len = 0 then Alcotest.failf "section %S has an empty payload" name;
      (* Flip the first, middle and last byte of the payload — CRC-32
         catches any single-byte change wherever it lands. *)
      List.iter
        (fun i ->
          let b = Bytes.of_string raw in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
          match Checkpoint.of_string (Bytes.to_string b) with
          | _ ->
            Alcotest.failf "flip at byte %d of section %S went undetected" i
              name
          | exception Checkpoint.Corrupt _ -> ())
        [ off; off + (len / 2); off + len - 1 ])
    ranges;
  (* Structural damage is refused too: bad magic, truncation. *)
  (match Checkpoint.of_string ("XXXX" ^ raw) with
  | _ -> Alcotest.fail "bad magic accepted"
  | exception Checkpoint.Corrupt _ -> ());
  match Checkpoint.of_string (String.sub raw 0 (String.length raw - 7)) with
  | _ -> Alcotest.fail "truncated snapshot accepted"
  | exception Checkpoint.Corrupt _ -> ()

let test_mutation_names_section () =
  with_tmpdir @@ fun dir ->
  let path = write_midrun_checkpoint ~dir in
  let raw = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun (name, off, len) ->
      let i = off + (len / 2) in
      let b = Bytes.of_string raw in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      match Checkpoint.of_string (Bytes.to_string b) with
      | _ -> Alcotest.failf "flip in %S undetected" name
      | exception Checkpoint.Corrupt msg ->
        let quoted = Printf.sprintf "%S" name in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        if not (contains msg quoted) then
          Alcotest.failf "corrupt %S reported as %S — does not name the section"
            name msg)
    (Checkpoint.payload_ranges path)

let test_fingerprint_mismatch_refused () =
  with_tmpdir @@ fun dir ->
  let w = Workloads.compress in
  let heap = Workloads.build_heap ~scale:0.05 ~seed:1 w in
  let sim = Coprocessor.start (Coprocessor.config ~n_cores:4 ()) heap in
  for _ = 1 to 100 do
    Coprocessor.step sim
  done;
  let meta =
    {
      Resume.workload = w.Workloads.name;
      scale = 0.05;
      seed = 1;
      obs_on = false;
      obs_capacity = 0;
      obs_interval = 0;
      prof_on = false;
    }
  in
  let path = Filename.concat dir "other-build.ckpt" in
  Resume.save ~fingerprint:"deadbeef-other-build" sim meta ~path;
  (match Resume.resume ~path () with
  | _ -> Alcotest.fail "snapshot from a different build accepted"
  | exception Checkpoint.Corrupt _ -> ());
  (* The explicit-override escape hatch still works. *)
  match Resume.resume ~fingerprint:"deadbeef-other-build" ~path () with
  | (_ : Resume.resumed) -> ()
  | exception Checkpoint.Corrupt msg ->
    Alcotest.failf "override fingerprint refused: %s" msg

let test_sanitizer_incompatible () =
  let heap = Workloads.build_heap ~scale:0.05 ~seed:1 Workloads.compress in
  let cfg =
    Coprocessor.config ~sanitize:Hsgc_sanitizer.Sanitizer.Check ~n_cores:4 ()
  in
  let sim = Coprocessor.start cfg heap in
  match Coprocessor.Snapshot.save sim ~fingerprint:"x" with
  | _ -> Alcotest.fail "snapshot of a sanitized machine accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Driver: boundary placement, latest, zero-cost off path              *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_boundaries_exact () =
  with_tmpdir @@ fun dir ->
  let w = Workloads.db in
  let every = 1000 in
  let heap = Workloads.build_heap ~scale:0.05 ~seed:42 w in
  let sim = Coprocessor.start (Coprocessor.config ~n_cores:8 ()) heap in
  let meta =
    {
      Resume.workload = w.Workloads.name;
      scale = 0.05;
      seed = 42;
      obs_on = false;
      obs_capacity = 0;
      obs_interval = 0;
      prof_on = false;
    }
  in
  (match Resume.drive ~every ~dir ~meta sim with
  | Resume.Finished _ -> ()
  | Resume.Stopped _ -> Alcotest.fail "run stopped without a stop condition");
  let files = Sys.readdir dir in
  Array.sort compare files;
  if Array.length files = 0 then Alcotest.fail "no checkpoints written";
  Array.iter
    (fun f ->
      match Scanf.sscanf f "ckpt-%d.ckpt" (fun c -> c) with
      | c ->
        if c mod every <> 0 then
          Alcotest.failf "checkpoint %s is off the %d-cycle boundary" f every
      | exception Scanf.Scan_failure _ ->
        Alcotest.failf "unexpected file %s" f)
    files;
  (* latest picks the highest cycle. *)
  match Resume.latest ~dir with
  | None -> Alcotest.fail "latest found nothing"
  | Some p ->
    Alcotest.(check string)
      "latest is the last file"
      (Filename.concat dir files.(Array.length files - 1))
      p

let test_drive_off_matches_collect () =
  (* With checkpointing off, the driver must be the plain stepping loop:
     same stats as Coprocessor.collect on an identical heap. *)
  let w = Workloads.javacc in
  let build () = Workloads.build_heap ~scale:0.05 ~seed:4 w in
  let cfg = Coprocessor.config ~n_cores:8 () in
  let reference = Coprocessor.collect cfg (build ()) in
  let sim = Coprocessor.start cfg (build ()) in
  let meta =
    {
      Resume.workload = w.Workloads.name;
      scale = 0.05;
      seed = 4;
      obs_on = false;
      obs_capacity = 0;
      obs_interval = 0;
      prof_on = false;
    }
  in
  match Resume.drive ~meta sim with
  | Resume.Stopped _ -> Alcotest.fail "stopped without a stop condition"
  | Resume.Finished stats ->
    Test_kernel.check_stats_equal "drive-off vs collect" reference stats

(* ------------------------------------------------------------------ *)
(* Resume equivalence                                                  *)
(* ------------------------------------------------------------------ *)

let check_point_result (r : Interrupt.point_result) ctx =
  if not r.Interrupt.equivalent then
    Alcotest.failf "%s: resumed run diverged: %s" ctx
      (Option.value r.Interrupt.mismatch ~default:"?");
  if r.Interrupt.corrupt_caught <> r.Interrupt.corrupt_flips then
    Alcotest.failf "%s: %d/%d corrupt flips caught" ctx
      r.Interrupt.corrupt_caught r.Interrupt.corrupt_flips;
  if r.Interrupt.checkpoints < 1 then
    Alcotest.failf "%s: no checkpoints written before the kill" ctx

(* Every default workload across the core grid: kill at a deterministic
   random cycle, resume, demand the final state is indistinguishable
   from an uninterrupted run's. *)
let test_resume_equivalence_grid () =
  List.iter
    (fun w ->
      List.iter
        (fun n_cores ->
          let p =
            { Interrupt.workload = w.Workloads.name; n_cores; seed = 42; draw = 0 }
          in
          let r = Interrupt.run_point ~scale:0.05 p in
          check_point_result r
            (Printf.sprintf "%s at %d cores" w.Workloads.name n_cores))
        [ 1; 4; 16 ])
    Workloads.all

(* Resume must also replay the fault injector's RNG mid-stream and the
   scan-unit sub-object machinery: a delay-faulted, scan-unit-enabled
   run killed mid-flight still ends bit-identical. *)
let test_resume_with_faults_and_scan_unit () =
  with_tmpdir @@ fun dir ->
  let w = Workloads.db in
  let scale = 0.05 and seed = 3 in
  let faults = Injector.delay_class ~seed:5 ~intensity:0.3 () in
  let cfg = Coprocessor.config ~faults ~scan_unit:8 ~n_cores:8 () in
  let capacity = 1 lsl 15 and interval = 64 in
  let mk_obs () =
    let o = Tracer.create ~capacity ~interval ~n_cores:8 () in
    Tracer.enable o;
    o
  in
  let base_stats, base_digest =
    let heap = Workloads.build_heap ~scale ~seed w in
    let obs = mk_obs () in
    let s = Coprocessor.collect ~obs cfg heap in
    (s, Tracer.digest obs)
  in
  let total = base_stats.Coprocessor.total_cycles in
  let meta =
    {
      Resume.workload = w.Workloads.name;
      scale;
      seed;
      obs_on = true;
      obs_capacity = capacity;
      obs_interval = interval;
      prof_on = false;
    }
  in
  let stop_at = total / 3 in
  let killed =
    let heap = Workloads.build_heap ~scale ~seed w in
    let sim = Coprocessor.start ~obs:(mk_obs ()) cfg heap in
    Resume.drive ~every:(max 1 (stop_at / 2)) ~dir ~stop_at ~meta
      sim
  in
  match killed with
  | Resume.Finished _ -> Alcotest.fail "run finished before its stop point"
  | Resume.Stopped { checkpoint = None; _ } ->
    Alcotest.fail "no final checkpoint"
  | Resume.Stopped { checkpoint = Some path; _ } -> (
    let r = Resume.resume ~path () in
    match Resume.drive ~meta:r.Resume.meta r.Resume.sim with
    | Resume.Stopped _ -> Alcotest.fail "resumed run stopped"
    | Resume.Finished stats ->
      Alcotest.(check int) "total cycles" total stats.Coprocessor.total_cycles;
      if stats.Coprocessor.per_core <> base_stats.Coprocessor.per_core then
        Alcotest.fail "per-core counters differ after faulted resume";
      Alcotest.(check int)
        "faults injected" base_stats.Coprocessor.faults_injected
        stats.Coprocessor.faults_injected;
      Alcotest.(check string)
        "trace digest" base_digest
        (Tracer.digest (Option.get r.Resume.obs));
      match Verify.check_collection ~pre:r.Resume.pre r.Resume.heap with
      | Ok () -> ()
      | Error f ->
        Alcotest.failf "resumed heap failed verification: %a" Verify.pp_failure
          f)

(* qcheck leg: random workload, seed and kill draw. *)
let qcheck_resume_equivalence =
  QCheck.Test.make
    ~name:
      "a run killed at a random cycle and resumed from its latest checkpoint \
       ends bit-identical to an uninterrupted run"
    ~count:12
    (QCheck.make
       ~print:(fun (wi, seed, draw) ->
         Printf.sprintf "workload=%d seed=%d draw=%d" wi seed draw)
       QCheck.Gen.(
         let* wi = int_range 0 (List.length Workloads.all - 1) in
         let* seed = int_range 0 1000 in
         let* draw = int_range 0 5 in
         return (wi, seed, draw)))
    (fun (wi, seed, draw) ->
      let w = List.nth Workloads.all wi in
      let r =
        Interrupt.run_point ~scale:0.03
          { Interrupt.workload = w.Workloads.name; n_cores = 4; seed; draw }
      in
      r.Interrupt.equivalent
      && r.Interrupt.corrupt_caught = r.Interrupt.corrupt_flips)

let suite =
  [
    Alcotest.test_case "mutation: every section flip caught" `Quick
      test_mutation_every_section_caught;
    Alcotest.test_case "mutation: refusal names the section" `Quick
      test_mutation_names_section;
    Alcotest.test_case "fingerprint mismatch refused" `Quick
      test_fingerprint_mismatch_refused;
    Alcotest.test_case "sanitizer incompatible with snapshots" `Quick
      test_sanitizer_incompatible;
    Alcotest.test_case "checkpoints land exactly on boundaries" `Quick
      test_checkpoint_boundaries_exact;
    Alcotest.test_case "driver with checkpointing off = plain collect" `Quick
      test_drive_off_matches_collect;
    Alcotest.test_case "resume equivalence: workloads x {1,4,16} cores" `Quick
      test_resume_equivalence_grid;
    Alcotest.test_case "resume with faults and scan-unit" `Quick
      test_resume_with_faults_and_scan_unit;
    QCheck_alcotest.to_alcotest qcheck_resume_equivalence;
  ]
