(* e2ebench: the end-to-end benchmark command.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints every metric by name with its unit and time base, writes the
   full record (metrics, run metadata, and for traced runs the spans) to
   e2ebench/results/, and prints as its last line one JSON object
   {correct, attempted, failed, metrics}. With --trace 0 the metrics are
   the end-to-end set of BENCHMARK.json, with --trace 1 its per-layer
   set. Exits 1 when any collection or check failed, 2 on a usage error.

   An untraced run measures set-up by starting itself with --setup-only
   a few times during the run, one process at a time while the run
   waits: such a process does everything a run does before its first
   timed collection and exits. *)

open E2ebench

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2ebench: " ^ s); exit 2) fmt

(* Start this executable with [args] and wait for it: the wall time
   from start to exit, or an error when it did not exit 0. *)
let run_setup_process args () =
  let t0 = Run.now_s () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin Unix.stdout Unix.stderr
  in
  let status = snd (Unix.waitpid [] pid) in
  let dt = Run.now_s () -. t0 in
  match status with
  | Unix.WEXITED 0 -> Ok dt
  | Unix.WEXITED c -> Error (Printf.sprintf "set-up process exited with code %d" c)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    Error (Printf.sprintf "set-up process stopped by signal %d" n)

(* The checkout's git revision, read from .git without running git;
   "unknown" outside a git checkout. *)
let git_revision () =
  let trim s = String.trim s in
  try
    let head = trim (Run.read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let r = String.sub head 5 (String.length head - 5) in
      if Sys.file_exists (".git/" ^ r) then trim (Run.read_file (".git/" ^ r))
      else
        let packed = String.split_on_char '\n' (Run.read_file ".git/packed-refs") in
        match
          List.find_opt
            (fun l ->
              match String.split_on_char ' ' l with
              | [ _; name ] -> name = r
              | _ -> false)
            packed
        with
        | Some l -> List.hd (String.split_on_char ' ' l)
        | None -> "unknown"
    end
    else head
  with _ -> "unknown"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 and setup_only = ref false in
  let out_dir = Filename.concat "e2ebench" "results" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured run length");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ("--setup-only", Arg.Set setup_only, " run set-up alone and exit (used to measure setup_s)");
    ]
    (fun a -> die "unexpected argument %S" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Pipeline.find !workload with
    | Some w -> w
    | None ->
      die "unknown workload %S (known: %s)" !workload
        (String.concat ", " (List.map (fun w -> w.Pipeline.name) Pipeline.workloads))
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let traced = !trace = 1 in
  let cfg = Run.config ~seed:!seed ~seconds:!seconds ~trace:traced w in
  if !setup_only then begin
    let failed, msgs = Run.warm_up cfg in
    List.iter (fun m -> prerr_endline ("e2ebench: set-up: " ^ m)) msgs;
    exit (if failed = 0 then 0 else 1)
  end;
  let probe =
    if traced then None
    else
      Some
        (run_setup_process
           [ "--workload"; !workload; "--seed"; string_of_int !seed; "--seconds";
             Json.float_repr !seconds; "--trace"; "0"; "--setup-only" ])
  in
  let r = Run.run ?probe cfg in
  let correct = r.Run.failed = 0 && r.Run.checks_failed = 0 in
  (* Human-readable report. *)
  Printf.printf
    "e2ebench %s seed %d (%s run): closed loop, one client, one collection \
     at a time; %d passes, %d timed collections, %d attempted in all\n"
    w.Pipeline.name !seed (if traced then "traced" else "untraced") r.Run.passes
    r.Run.samples r.Run.attempted;
  let line (m : Run.metric) =
    Printf.printf "  %-40s %-20s %-15s [%s]\n" m.Run.name
      (Json.float_repr m.Run.value) m.Run.unit_ (Run.base_name m.Run.base)
  in
  Printf.printf " gated (BENCHMARK.json %s):\n" (if traced then "per_layer" else "end_to_end");
  List.iter line r.Run.metrics;
  print_endline " reported, not gated:";
  List.iter line r.Run.extra;
  Printf.printf "  %-40s %-20s %-15s [simulated]\n" "sim_digest" r.Run.digest "md5";
  if not traced then
    Printf.printf "  collection_tail_s is p%.1f over %d samples\n" r.Run.tail_pct
      r.Run.samples;
  Printf.printf "  failed %d of %d collections; %d failed checks\n" r.Run.failed
    r.Run.attempted r.Run.checks_failed;
  List.iter (fun m -> Printf.printf "  FAILURE: %s\n" m) r.Run.failures;
  (* Full record on disk. *)
  let num v = Json.Num v and str s = Json.Str s in
  let metric_json (m : Run.metric) =
    ( m.Run.name,
      Json.Obj
        [ ("value", num m.Run.value); ("unit", str m.Run.unit_);
          ("base", str (Run.base_name m.Run.base)) ] )
  in
  let record =
    Json.Obj
      [
        ("workload", str w.Pipeline.name);
        ("why", str w.Pipeline.why);
        ("seed", num (float_of_int !seed));
        ("trace", Json.Bool traced);
        ("seconds", num !seconds);
        ( "points",
          Json.Arr
            (Array.to_list
               (Array.map
                  (fun (p : Pipeline.point) ->
                    str
                      (Printf.sprintf "%s/scale %g/%d cores/+%d latency/%s"
                         p.Pipeline.workload.Hsgc_objgraph.Workloads.name
                         p.Pipeline.scale p.Pipeline.cores p.Pipeline.extra_latency
                         (match p.Pipeline.machine with
                         | Pipeline.Dense -> "dense skip engine"
                         | Pipeline.Banked { banks; lanes } ->
                           Printf.sprintf "banked %d banks %d lanes" banks lanes)))
                  w.Pipeline.points)) );
        ("loop", str "closed: one client, one collection at a time, one process");
        ( "estimators",
          str
            "best_*: each point's fastest collection (host interference only \
             slows); collections_per_s, sim_mcycles_per_s: whole-run mean; \
             collection_p50_s: median; collection_tail_s: highest percentile \
             with 10 samples beyond it; setup_s: median over 5 set-up \
             processes spread over the first 60 passes, each timed from \
             start to exit (start-up and one warm-up pass); per-layer host times: mean self time per traced \
             collection, timed with no profiler attached; profile.*: a \
             separate untimed profiled pass on pass 0's seeds; simulated \
             counts: pass 0" );
        ("machine_state", str "every collection starts on a fresh machine: header FIFO, memory system and sync block empty");
        ( "metadata",
          Json.Obj
            [
              ("host", str (Unix.gethostname ()));
              ("recommended_domain_count", num (float_of_int (Domain.recommended_domain_count ())));
              ("lanes", num (float_of_int r.Run.lanes));
              ("ocaml_version", str Sys.ocaml_version);
              ("build_profile", str Build_info.profile);
              ("git_revision", str (git_revision ()));
              ("workload_seed", num (float_of_int !seed));
              ( "validation",
                str
                  "the modelled machine is checked only against the paper's \
                   published shapes (EXPERIMENTS.md), not against hardware; \
                   the benchmark gives no error figure" );
            ] );
        ("correct", Json.Bool correct);
        ("attempted", num (float_of_int r.Run.attempted));
        ("failed", num (float_of_int r.Run.failed));
        ("checks_failed", num (float_of_int r.Run.checks_failed));
        ("failures", Json.Arr (List.map str r.Run.failures));
        ("sim_digest", str r.Run.digest);
        ("sim_mcycles", num r.Run.sim_mcycles);
        ("samples", num (float_of_int r.Run.samples));
        ("tail_percentile", num r.Run.tail_pct);
        ("metrics", Json.Obj (List.map metric_json (r.Run.metrics @ r.Run.extra)));
      ]
  in
  (try
     if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
     let stem =
       Filename.concat out_dir
         (Printf.sprintf "%s-seed%d-trace%d" w.Pipeline.name !seed !trace)
     in
     let oc = open_out (stem ^ ".json") in
     output_string oc (Json.to_string record ^ "\n");
     close_out oc;
     if traced then Spans.write_csv r.Run.spans (stem ^ "-spans.csv")
   with Sys_error e -> Printf.eprintf "e2ebench: warning: result record not written: %s\n" e);
  (* The last line: the machine-readable result object. *)
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", num (float_of_int r.Run.attempted));
            ("failed", num (float_of_int r.Run.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m : Run.metric) ->
                     (m.Run.name, Json.Obj [ ("value", num m.Run.value); ("unit", str m.Run.unit_) ]))
                   r.Run.metrics) );
          ]));
  exit (if correct then 0 else 1)
