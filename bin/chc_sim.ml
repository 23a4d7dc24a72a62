(* chc_sim — command-line driver for single executions of Algorithm CC.

   Examples:
     dune exec bin/chc_sim.exe -- run -n 5 -f 1 -d 2 --eps 0.1 --seed 7
     dune exec bin/chc_sim.exe -- run -n 7 -f 2 -d 1 --scheduler lag --verbose
     dune exec bin/chc_sim.exe -- run --inputs "0.1,0.2;0.3,0.4;0.5,0.1;0.9,0.9;0.2,0.8"
     dune exec bin/chc_sim.exe -- trace -n 5 -f 1 -d 2 --seed 7 --out run.jsonl
     dune exec bin/chc_sim.exe -- bound -n 9 -f 2 -d 2 --eps 0.01 *)

open Cmdliner

module Q = Numeric.Q
module Polytope = Geometry.Polytope
module Cli = Chc.Cli
module Executor = Chc.Executor

(* The shared execution-shaping flags (-n/-f/-d/--eps/--lo/--hi/--seed/
   --scheduler/--naive-round0/--kernel/--inputs/--faulty) live in
   {!Chc.Cli.common_args}; only flags specific to one subcommand are
   defined here. *)

let recover_arg =
  Arg.(value & flag
       & info ["recover"]
           ~doc:"Crash-recovery mode: every sampled crash plan becomes a \
                 crash-$(i,recover) plan (same trigger budget) — the \
                 process keeps a write-ahead log, crashes, loses its \
                 unsynced log suffix, replays the survivor and rejoins.")

let recover_delay_arg =
  Arg.(value & opt int 10
       & info ["recover-delay"] ~docv:"STEPS"
           ~doc:"Scheduler steps until a crashed process revives \
                 (with --recover).")

let keep_arg =
  Arg.(value & opt int 0
       & info ["keep"] ~docv:"K"
           ~doc:"Disk-prefix adversary: unsynced WAL entries that survive \
                 the crash (with --recover).")

let wal_dir_arg =
  Arg.(value & opt (some string) None
       & info ["wal-dir"] ~docv:"DIR"
           ~doc:"Write each process's surviving write-ahead log to \
                 $(docv)/wal-I.jsonl (one JSON event per line).")

let verbose_arg =
  Arg.(value & flag
       & info ["verbose"; "v"]
           ~doc:"Print per-round history and the observability report \
                 (per-round metrics, cache and pool counters).")

let svg_arg =
  Arg.(value & opt (some string) None
       & info ["svg"] ~docv:"FILE"
           ~doc:"Write an SVG rendering of the execution (d = 2 only).")

let out_arg =
  Arg.(value & opt (some string) None
       & info ["out"; "o"] ~docv:"FILE"
           ~doc:"Write the JSONL transcript to $(docv) (default: stdout).")

let report_json_arg =
  Arg.(value & opt (some string) None
       & info ["report-json"] ~docv:"FILE"
           ~doc:"Write the observability report (sim counters, per-round \
                 rows, full metrics snapshot) as JSON to $(docv).")

let critical_path_arg =
  Arg.(value & flag
       & info ["critical-path"]
           ~doc:"Reconstruct the happens-before DAG from the trace and \
                 print, per process, the critical message chain to its \
                 decision plus per-round stabilization latency in \
                 scheduler steps. Pool-size invariant.")

(* --- helpers --------------------------------------------------------- *)

(* --- run command ------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let run_cmd (c : Cli.common) recover recover_delay keep wal_dir verbose svg
    report_json =
  Cli.with_kernel c.Cli.kernel @@ fun () ->
  match Cli.scenario_of_common c with
  | Error msg -> `Error (false, msg)
  | Ok spec ->
    let spec =
      if recover then Cli.recoverize ~delay:recover_delay ~keep spec else spec
    in
    match
      let trace =
        if verbose || report_json <> None then Some (Obs.Trace.create ())
        else None
      in
      (Executor.run ?trace spec, trace)
    with
    | exception (Failure msg | Invalid_argument msg) -> `Error (false, msg)
    | (r, trace) ->
      Printf.printf "config: n=%d f=%d d=%d eps=%s  t_end=%d  seed=%d\n"
        c.Cli.n c.Cli.f c.Cli.d c.Cli.eps r.Executor.result.Chc.Cc.t_end
        c.Cli.seed;
      Printf.printf "faulty set: {%s}\n"
        (String.concat "," (List.map string_of_int r.Executor.faulty));
      if r.Executor.recovered <> [] then
        Printf.printf "recovered:  {%s}  decision-stable=%b\n"
          (String.concat "," (List.map string_of_int r.Executor.recovered))
          r.Executor.decision_stable;
      Array.iteri
        (fun i o ->
           match o with
           | Some h ->
             Printf.printf "process %d decided (%d vertices)%s\n" i
               (List.length (Polytope.vertices h))
               (if verbose then ": " ^ Polytope.to_string h else "")
           | None -> Printf.printf "process %d crashed before deciding\n" i)
        r.Executor.result.Chc.Cc.outputs;
      if verbose then
        Array.iteri
          (fun i hist ->
             Printf.printf "history of process %d:\n" i;
             List.iter
               (fun (t, h) ->
                  Printf.printf "  h[%d] = %s\n" t (Polytope.to_string h))
               hist)
          r.Executor.result.Chc.Cc.history;
      Printf.printf "\nterminated   %b\nvalidity     %b\nagreement    %b"
        r.Executor.terminated r.Executor.valid r.Executor.agreement_ok;
      (match r.Executor.agreement2 with
       | Some a -> Printf.printf "  (max dH = %.6f)\n" (sqrt (Q.to_float a))
       | None -> print_newline ());
      Printf.printf "optimality   %b\n" r.Executor.optimal;
      (match r.Executor.min_output_volume with
       | Some v -> Printf.printf "min volume   %.6f\n" (Q.to_float v)
       | None -> ());
      let m = r.Executor.result.Chc.Cc.metrics in
      Printf.printf "messages     sent=%d delivered=%d dropped-by-crash=%d\n"
        m.Runtime.Sim.sent m.Runtime.Sim.delivered m.Runtime.Sim.dropped;
      if verbose then
        Obs.Report.print stdout (Executor.observe ?trace ~witnesses:c.Cli.n r);
      (match wal_dir with
       | None -> ()
       | Some dir ->
         (try mkdir_p dir with
          | Unix.Unix_error (e, _, _) ->
            raise (Obs.Sink.Write_error
                     { path = dir; message = Unix.error_message e })
          | Sys_error message ->
            raise (Obs.Sink.Write_error { path = dir; message }));
         Array.iteri
           (fun i evs ->
              if evs <> [] then begin
                let path =
                  Filename.concat dir (Printf.sprintf "wal-%d.jsonl" i)
                in
                (* write_file_exn: an I/O failure raises the typed
                   Sink.Write_error, which main maps to exit code 74. *)
                Obs.Sink.write_file_exn ~path (fun oc ->
                    List.iter
                      (fun e ->
                         output_string oc (Chc.Recovery.event_to_string e);
                         output_char oc '\n')
                      evs);
                Printf.printf "wal          process %d: %d events -> %s\n" i
                  (List.length evs) path
              end)
           r.Executor.result.Chc.Cc.wal_log);
      (match svg with
       | Some path when c.Cli.d = 2 ->
         Viz.Svg.render_to_file ~path ~report:r;
         Printf.printf "svg          written to %s\n" path
       | Some _ -> prerr_endline "warning: --svg only supported for d = 2"
       | None -> ());
      let json_status =
        match report_json with
        | None -> Ok ()
        | Some path ->
          let report = Executor.observe ?trace ~witnesses:c.Cli.n r in
          (match
             Obs.Sink.write_string ~path (Obs.Report.to_json report)
           with
           | Ok () ->
             Printf.printf "report       written to %s\n" path;
             Ok ()
           | Error msg -> Error msg)
      in
      (match json_status with
       | Error msg -> `Error (false, msg)
       | Ok () ->
         if r.Executor.terminated && r.Executor.valid && r.Executor.agreement_ok
         then `Ok ()
         else `Error (false, "a correctness property failed"))

let run_term =
  Term.(ret
          (const run_cmd $ Cli.common_args
           $ recover_arg $ recover_delay_arg $ keep_arg $ wal_dir_arg
           $ verbose_arg $ svg_arg $ report_json_arg))

let run_cmd_info =
  Cmd.info "run" ~doc:"Execute Algorithm CC once and grade the run."

(* --- trace command ---------------------------------------------------- *)

let trace_cmd (c : Cli.common) out critical_path =
  Cli.with_kernel c.Cli.kernel @@ fun () ->
  match Cli.scenario_of_common c with
  | Error msg -> `Error (false, msg)
  | Ok spec ->
    let trace = Obs.Trace.create () in
    match
      Chc.Cc.execute ~trace ~round0:spec.Executor.round0
        ~config:spec.Executor.config ~inputs:spec.Executor.inputs
        ~crash:spec.Executor.crash ~scheduler:spec.Executor.scheduler
        ~seed:c.Cli.seed ()
    with
    | exception (Failure msg | Invalid_argument msg) -> `Error (false, msg)
    | _result ->
      let write_status =
        match out with
        | None | Some "-" ->
          Obs.Trace.output stdout trace;
          Ok ()
        | Some path ->
          (match
             Obs.Sink.write_file ~path (fun oc -> Obs.Trace.output oc trace)
           with
           | Ok () ->
             Printf.printf "trace: %d events written to %s\n"
               (Obs.Trace.length trace) path;
             Ok ()
           | Error msg -> Error msg)
      in
      (match write_status with
       | Error msg -> `Error (false, msg)
       | Ok () ->
         if critical_path then
           print_string
             (Obs.Causal.to_string (Obs.Causal.analyze ~n:c.Cli.n trace));
         `Ok ())

let trace_term =
  Term.(ret (const trace_cmd $ Cli.common_args $ out_arg $ critical_path_arg))

let trace_cmd_info =
  Cmd.info "trace"
    ~doc:"Re-run a seed and dump the execution transcript as JSONL."
    ~man:
      [ `S Manpage.s_description;
        `P "Executions are pure functions of (config, inputs, seed, \
            adversary), so the transcript written here is a complete, \
            replayable artifact: re-running the same command reproduces \
            it byte-for-byte, whatever CHC_DOMAINS is set to.";
        `P "One JSON object per line: transport events (send, drop, \
            deliver, dead_letter, crash) interleaved in schedule order \
            with protocol milestones (round_enter, stable, decide)." ]

(* --- profile command -------------------------------------------------- *)

let prof_out_arg =
  Arg.(value & opt string "prof.json"
       & info ["out"; "o"] ~docv:"FILE"
           ~doc:"Where the Chrome trace-event / Perfetto JSON is written.")

let profile_cmd (c : Cli.common) out =
  Cli.with_kernel c.Cli.kernel @@ fun () ->
  match Cli.scenario_of_common c with
  | Error msg -> `Error (false, msg)
  | Ok spec ->
    Obs.Prof.reset ();
    Obs.Prof.set_enabled true;
    let outcome =
      match Executor.run spec with
      | r -> Ok r
      | exception (Failure msg | Invalid_argument msg) -> Error msg
    in
    Obs.Prof.set_enabled false;
    match outcome with
    | Error msg -> `Error (false, msg)
    | Ok r ->
      (match Obs.Sink.write_string ~path:out (Obs.Prof.to_chrome_json ()) with
       | Error msg -> `Error (false, msg)
       | Ok () ->
         let decided =
           Array.fold_left
             (fun acc o -> if o = None then acc else acc + 1)
             0 r.Executor.result.Chc.Cc.outputs
         in
         Printf.printf
           "profile: %d spans written to %s (%d/%d processes decided)\n"
           (Obs.Prof.span_count ()) out decided c.Cli.n;
         Printf.printf "%-22s %8s %12s %10s %10s %10s\n"
           "span" "calls" "total_ms" "p50_us" "p99_us" "max_us";
         List.iter
           (fun (name, (s : Obs.Prof.stat)) ->
              Printf.printf "%-22s %8d %12.3f %10.1f %10.1f %10.1f\n"
                name s.Obs.Prof.calls
                (s.Obs.Prof.total_ns /. 1e6)
                (s.Obs.Prof.p50_ns /. 1e3)
                (s.Obs.Prof.p99_ns /. 1e3)
                (s.Obs.Prof.max_ns /. 1e3))
           (Obs.Prof.summary ());
         `Ok ())

let profile_term =
  Term.(ret (const profile_cmd $ Cli.common_args $ prof_out_arg))

let profile_cmd_info =
  Cmd.info "profile"
    ~doc:"Execute once with the span profiler on and export a Perfetto trace."
    ~man:
      [ `S Manpage.s_description;
        `P "Runs Algorithm CC with wall-clock span recording enabled in \
            every instrumented layer (geometry kernels, LP, domain pool, \
            memo tables, wire codec, stable vector, round engine) and \
            writes Chrome trace-event JSON loadable in ui.perfetto.dev \
            or chrome://tracing — one track per domain, spans nested by \
            call stack.";
        `P "Profiling is observational: it never changes scheduling, and \
            the deterministic JSONL transcript of the same seed is \
            byte-identical with or without it. Wall-clock numbers, by \
            nature, vary run to run — for schedule-invariant latency use \
            $(b,chc_sim trace --critical-path)." ]

(* --- bound command ---------------------------------------------------- *)

let bound_cmd (c : Cli.common) =
  try
    let config =
      Chc.Config.make ~n:c.Cli.n ~f:c.Cli.f ~d:c.Cli.d
        ~eps:(Q.of_string c.Cli.eps) ~lo:(Q.of_string c.Cli.lo)
        ~hi:(Q.of_string c.Cli.hi)
    in
    Printf.printf "n=%d f=%d d=%d eps=%s range=[%s,%s]\n" c.Cli.n c.Cli.f
      c.Cli.d c.Cli.eps c.Cli.lo c.Cli.hi;
    Printf.printf "resilience: n >= (d+2)f+1 = %d  (ok)\n"
      (((c.Cli.d + 2) * c.Cli.f) + 1);
    Printf.printf "t_end (eq. 19) = %d rounds\n" (Chc.Bounds.t_end config);
    `Ok ()
  with Invalid_argument msg | Failure msg -> `Error (false, msg)

let bound_term = Term.(ret (const bound_cmd $ Cli.common_args))

let bound_cmd_info =
  Cmd.info "bound" ~doc:"Print the analytic round bound t_end (equation 19)."

(* --- fuzz command ----------------------------------------------------- *)

let trials_arg =
  Arg.(value & opt int 200
       & info ["trials"] ~docv:"K" ~doc:"Number of scenarios to explore.")

let time_budget_arg =
  Arg.(value & opt (some float) None
       & info ["time-budget"] ~docv:"SECONDS"
           ~doc:"Stop after this much wall clock, whatever --trials says.")

let out_dir_arg =
  Arg.(value & opt string "fuzz-artifacts"
       & info ["out-dir"] ~docv:"DIR"
           ~doc:"Where counterexample artifacts are written.")

let max_findings_arg =
  Arg.(value & opt int 3
       & info ["max-findings"] ~docv:"K"
           ~doc:"Stop after shrinking this many failures.")

let canary_arg =
  Arg.(value & opt (some string) None
       & info ["canary-eps"] ~docv:"EPS"
           ~doc:"Grade against an explicit agreement threshold instead of \
                 the paper's properties. A threshold below the configured \
                 ε manufactures violations — the self-test that the \
                 campaign and shrinker work.")

let differential_arg =
  Arg.(value & flag
       & info ["differential"]
           ~doc:"After every trial that passes the oracle, re-run it under \
                 both arithmetic kernels — exact as the oracle vs \
                 filtered (memo caches bypassed) — and under \
                 both polytope engines — rebuild as the oracle vs \
                 the incremental engine, memo caches bypassed — and flag \
                 any divergence in the decided polytopes as a shrinkable \
                 counterexample; likewise any graded process whose \
                 round-0 polytope differs from the subset-hull oracle \
                 on its recorded view.")

let naive_space_arg =
  Arg.(value & flag
       & info ["naive-round0"]
           ~doc:"Explore the naive round-0 ablation instead of stable \
                 vector. The ablation genuinely forfeits optimality, so \
                 with the default oracle this is a live demonstration that \
                 the fuzzer finds and shrinks real violations.")

let recover_space_arg =
  Arg.(value & flag
       & info ["recover"]
           ~doc:"Recovery-focused space: every sampled crasher gets a \
                 crash-recover plan (WAL, disk-prefix truncation, replay, \
                 rejoin), so the campaign grades the paper's properties \
                 over recovered executions.")

let unsound_sync_arg =
  Arg.(value & flag
       & info ["unsound-sync"]
           ~doc:"Teeth demo: force every sampled WAL config to the \
                 deliberately broken no-op sync mode. Recovered processes \
                 can roll back behind externalized state, and the oracle \
                 must find (and shrink) the resulting violations — expect \
                 a non-zero exit. Implies --recover.")

let fuzz_cmd kernel differential trials seed time_budget out_dir
    max_findings canary naive recover unsound_sync =
  Cli.with_kernel kernel @@ fun () ->
  let oracle =
    match canary with
    | None -> Ok Fuzz.Oracle.Paper_properties
    | Some s ->
      (match Q.of_string s with
       | eps when Q.gt eps Q.zero -> Ok (Fuzz.Oracle.Agreement_within eps)
       | _ -> Error "--canary-eps: must be positive"
       | exception (Invalid_argument _ | Failure _) ->
         Error (Printf.sprintf "--canary-eps: %S is not a rational" s))
  in
  match oracle with
  | Error msg -> `Error (false, msg)
  | Ok oracle ->
    Printf.printf "fuzz: %d trials, seed %d, oracle %s%s%s\n%!" trials seed
      (Fuzz.Oracle.name oracle)
      (if differential then
         " + kernel-equivalence + engine-equivalence + round0-equivalence"
       else "")
      (match time_budget with
       | None -> ""
       | Some s -> Printf.sprintf ", time budget %.0fs" s);
    let space =
      (* The ablation's exact-geometry cost explodes at d=2 with ten
         divergent processes; d=1 demonstrates its violations just as
         well and keeps every trial sub-second. *)
      if naive then
        { Fuzz.Gen.default_space with
          Fuzz.Gen.naive_round0 = `Always; d_choices = [ 1 ] }
      else Fuzz.Gen.default_space
    in
    let space =
      if recover || unsound_sync then
        { space with Fuzz.Gen.recover = `Always; unsound_sync }
      else space
    in
    (* The durability bug needs a crash AFTER externalized state worth
       losing — raise the trigger budgets so receive-triggered crashes
       can land past a decision (ensure_crash clamps them back into
       what the execution actually performs). *)
    let space =
      if unsound_sync then { space with Fuzz.Gen.max_budget = 300 } else space
    in
    let outcome =
      Fuzz.Campaign.run ~space ~oracle ~differential ~out_dir ~max_findings
        ~log:print_endline ~seed
        { Fuzz.Campaign.trials; time_budget }
    in
    Printf.printf "fuzz: %d/%d trials in %.1fs, %d violation(s)\n"
      outcome.Fuzz.Campaign.trials_run trials outcome.Fuzz.Campaign.elapsed
      (List.length outcome.Fuzz.Campaign.findings);
    (match outcome.Fuzz.Campaign.findings with
     | [] -> `Ok ()
     | findings ->
       List.iter
         (fun f ->
            Printf.printf "  %s: %s\n" f.Fuzz.Campaign.path
              f.Fuzz.Campaign.artifact.Fuzz.Artifact.violation)
         findings;
       `Error (false, "counterexamples found (replay with: chc_sim replay FILE)"))

let fuzz_term =
  Term.(ret
          (const fuzz_cmd $ Cli.kernel_arg $ differential_arg
           $ trials_arg $ Cli.seed_arg $ time_budget_arg $ out_dir_arg
           $ max_findings_arg $ canary_arg $ naive_space_arg
           $ recover_space_arg $ unsound_sync_arg))

let fuzz_cmd_info =
  Cmd.info "fuzz"
    ~doc:"Randomized adversary exploration with counterexample shrinking."
    ~man:
      [ `S Manpage.s_description;
        `P "Samples (scheduler strategy × crash plan × input geometry) \
            scenarios, executes each over the parallel domain pool, and \
            grades every property the paper proves. Any failure is shrunk \
            to a minimal counterexample and written to --out-dir as a \
            replayable JSON artifact plus its execution transcript.";
        `P "Campaigns are deterministic in --seed (absent a --time-budget \
            cut-off); exit status is non-zero iff a violation was found." ]

(* --- replay command --------------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"FILE"
           ~doc:"A counterexample artifact (or bare scenario) JSON file.")

let replay_cmd kernel file =
  Cli.with_kernel kernel @@ fun () ->
  match Fuzz.Artifact.load_any file with
  | Error e ->
    (* Typed scenario/artifact data error: mapped to exit 65
       (EX_DATAERR) by the top-level handler, alongside Sink's 74. *)
    raise (Chc.Scenario.Data_error e)
  | Ok artifact ->
    let scenario = artifact.Fuzz.Artifact.scenario in
    Printf.printf "replay: %s\n" (Chc.Scenario.describe scenario);
    Printf.printf "oracle: %s\n" (Fuzz.Oracle.name artifact.Fuzz.Artifact.oracle);
    if artifact.Fuzz.Artifact.violation <> "" then
      Printf.printf "recorded violation: %s\n" artifact.Fuzz.Artifact.violation;
    (match Fuzz.Oracle.check artifact.Fuzz.Artifact.oracle scenario with
     | Fuzz.Oracle.Pass ->
       Printf.printf "verdict: PASS\n";
       `Ok ()
     | Fuzz.Oracle.Fail msg ->
       Printf.printf "verdict: FAIL (%s)\n" msg;
       `Error (false, "violation reproduced"))

let replay_term =
  Term.(ret (const replay_cmd $ Cli.kernel_arg $ file_arg))

let replay_cmd_info =
  Cmd.info "replay"
    ~doc:"Re-execute a saved scenario or counterexample artifact and re-grade it."
    ~man:
      [ `S Manpage.s_description;
        `P "Executions are pure functions of the scenario, so replaying an \
            artifact reproduces the recorded violation deterministically; \
            exit status is non-zero iff the embedded oracle still fails." ]

(* --- entry ------------------------------------------------------------ *)

let () =
  (* Make the fuzzer's strategies addressable from --scheduler and
     loadable from artifacts before any command parses. *)
  Fuzz.Strategies.register_builtin ();
  let info =
    Cmd.info "chc_sim" ~version:"1.0"
      ~doc:"Asynchronous convex hull consensus simulator (Tseng-Vaidya, PODC'14)."
  in
  exit
    (try
       (* catch:false so the typed errors below reach these handlers
          instead of cmdliner's exit-125 backtrace printer. *)
       Cmd.eval ~catch:false
         (Cmd.group info
            [ Cmd.v run_cmd_info run_term;
              Cmd.v trace_cmd_info trace_term;
              Cmd.v profile_cmd_info profile_term;
              Cmd.v bound_cmd_info bound_term;
              Cmd.v fuzz_cmd_info fuzz_term;
              Cmd.v replay_cmd_info replay_term ])
     with
     | Obs.Sink.Write_error { path; message } ->
       (* Typed I/O failure from any atomic sink write (artifacts,
          traces, WAL persistence): report which file and exit with
          EX_IOERR so scripts can tell "finding" from "disk". *)
       Printf.eprintf "chc_sim: write failed: %s: %s\n" path message;
       74
     | Chc.Scenario.Data_error e ->
       (* Typed user-data failure (malformed/unsupported scenario or
          artifact file): EX_DATAERR, distinct from I/O's 74. *)
       Printf.eprintf "chc_sim: bad input data: %s\n"
         (Chc.Scenario.error_to_string e);
       65)
