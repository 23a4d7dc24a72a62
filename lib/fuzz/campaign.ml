module Pool = Parallel.Pool

type budget = {
  trials : int;
  time_budget : float option;
}

type finding = {
  artifact : Artifact.t;
  path : string;
  trace_path : string option;
  causal_path : string option;
}

type outcome = {
  trials_run : int;
  findings : finding list;
  elapsed : float;
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let default_log _ = ()

(* One trial = generate + grade. Pure function of (space, seed, trial),
   so trials fan out over the domain pool with no shared state; only
   failures come back. The scenario's kernel is pinned to the ambient
   mode, so saved artifacts replay under the kernel that graded them.
   With [differential], a trial that passes the primary oracle is then
   re-run filtered-vs-exact and incremental-vs-rebuild, and its round-0
   polytopes are rebuilt from subset hulls; a divergence comes back as
   a finding carrying the kernel-, engine- or round0-equivalence
   oracle, and shrinks against it. *)
let differential_oracles =
  [ Oracle.Kernel_equivalence; Oracle.Engine_equivalence;
    Oracle.Round0_equivalence ]

let run_trial ~space ~oracle ~differential ~seed trial =
  let scenario = Gen.scenario space ~seed ~trial in
  let scenario =
    { scenario with Chc.Scenario.kernel = Some (Numeric.Kernel.mode ()) }
  in
  match Oracle.check oracle scenario with
  | Oracle.Fail msg -> Some (trial, scenario, msg, oracle)
  | Oracle.Pass ->
    if not differential then None
    else
      List.find_map
        (fun o ->
           match Oracle.check o scenario with
           | Oracle.Pass -> None
           | Oracle.Fail msg -> Some (trial, scenario, msg, o))
        differential_oracles

let investigate ~out_dir ~log (trial, scenario, msg, oracle) =
  log (Printf.sprintf "trial %d FAILED: %s" trial msg);
  log (Printf.sprintf "  %s" (Chc.Scenario.describe scenario));
  let pinned = Shrink.with_pinned_schedule ~oracle scenario in
  let minimized, stats = Shrink.minimize ~oracle pinned in
  let violation =
    match Oracle.check oracle minimized with
    | Oracle.Fail m -> m
    | Oracle.Pass -> msg  (* unreachable: minimize only visits failing scenarios *)
  in
  let artifact =
    { Artifact.scenario = minimized; oracle; violation; trial;
      shrink_steps = stats.Shrink.steps }
  in
  mkdir_p out_dir;
  let path = Filename.concat out_dir (Printf.sprintf "cex-trial%04d.json" trial) in
  Artifact.save ~path artifact;
  let trace_path, causal_path =
    let trace = Obs.Trace.create () in
    match Oracle.check ~trace oracle minimized with
    | Oracle.Pass | Oracle.Fail _ ->
      let p =
        Filename.concat out_dir
          (Printf.sprintf "cex-trial%04d.trace.jsonl" trial)
      in
      Obs.Sink.write_file_exn ~path:p (fun oc -> Obs.Trace.output oc trace);
      (* Causal skeleton sidecar: the schedule-derived critical message
         chains to each decision, so a counterexample ships with the
         "why this interleaving" view, not just the raw transcript. *)
      let cp =
        Filename.concat out_dir
          (Printf.sprintf "cex-trial%04d.causal.json" trial)
      in
      let n = minimized.Chc.Scenario.config.Chc.Config.n in
      Obs.Sink.write_file_exn ~path:cp (fun oc ->
          output_string oc (Obs.Causal.to_json (Obs.Causal.analyze ~n trace));
          output_char oc '\n');
      (Some p, Some cp)
  in
  Option.iter (fun p -> log (Printf.sprintf "  causal: %s" p)) causal_path;
  log
    (Printf.sprintf "  minimized in %d steps (%d executions): %s" stats.Shrink.steps
       stats.Shrink.attempts
       (Chc.Scenario.describe minimized));
  log (Printf.sprintf "  artifact: %s" path);
  { artifact; path; trace_path; causal_path }

let run ?(space = Gen.default_space) ?(oracle = Oracle.Paper_properties)
    ?(differential = false) ?(out_dir = "fuzz-artifacts") ?(max_findings = 3)
    ?(log = default_log) ~seed budget =
  Strategies.register_builtin ();
  let started = Obs.Prof.now_ns () in
  let expired () =
    match budget.time_budget with
    | None -> false
    | Some b -> Obs.Prof.seconds_since started >= b
  in
  let pool = Pool.global () in
  let batch_size = Stdlib.max 4 (2 * Pool.size pool) in
  let trials_run = ref 0 in
  let findings = ref [] in
  let next = ref 0 in
  while
    !next < budget.trials
    && List.length !findings < max_findings
    && not (expired ())
  do
    let batch =
      List.init (Stdlib.min batch_size (budget.trials - !next)) (fun i -> !next + i)
    in
    next := !next + List.length batch;
    trials_run := !trials_run + List.length batch;
    let failures =
      Pool.parallel_filter_map pool
        (run_trial ~space ~oracle ~differential ~seed) batch
    in
    List.iter
      (fun failure ->
         if List.length !findings < max_findings then
           findings := investigate ~out_dir ~log failure :: !findings)
      failures
  done;
  { trials_run = !trials_run;
    findings = List.rev !findings;
    elapsed = Obs.Prof.seconds_since started }
