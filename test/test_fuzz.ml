(* Tests for the fuzzer stack: the serializable Scenario codec and its
   version guard, the scheduler-strategy registry, the crash-budget
   clamp regression, shrinker determinism, and the seeded canary — a
   deliberately too-strict agreement oracle that proves the campaign
   finds, shrinks and persists a real violation within the smoke
   budget. *)

module Q = Numeric.Q
module Crash = Runtime.Crash
module Scheduler = Runtime.Scheduler
module Scenario = Chc.Scenario

let () = Fuzz.Strategies.register_builtin ()

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let replace_sub s ~sub ~by =
  match find_sub s sub with
  | None -> Alcotest.failf "%S not found in scenario JSON" sub
  | Some i ->
    String.sub s 0 i ^ by
    ^ String.sub s (i + String.length sub) (String.length s - i - String.length sub)

(* A scenario exercising every serialized field: all three crash-plan
   kinds (including a crash-recover plan with both trigger arms
   represented across tests), a parameterized scheduler, the naive
   round-0 ablation, a pinned schedule prefix, and a WAL config. *)
let rich_scenario () =
  let config =
    Chc.Config.make ~n:4 ~f:1 ~d:1 ~eps:(Q.of_ints 1 20) ~lo:Q.zero ~hi:Q.one
  in
  let inputs =
    [| [| Q.zero |]; [| Q.of_ints 1 3 |]; [| Q.of_ints 2 3 |]; [| Q.one |] |]
  in
  let crash =
    [| Crash.After_receives 3;
       Crash.Crash_recover { trigger = Crash.Sends 5; delay = 9; keep = 2 };
       Crash.After_sends 2; Crash.Never |]
  in
  Scenario.make ~config ~inputs ~crash ~scheduler:(Scheduler.lag_sources [0; 2])
    ~seed:77 ~round0:`Naive ~prefix:[ (0, 1); (2, 3) ]
    ~wal:{ Runtime.Wal.checkpoint_every = 4; sync = Runtime.Wal.Strict } ()

(* --- scenario codec --------------------------------------------------- *)

let test_scenario_roundtrip () =
  let t = rich_scenario () in
  let s = Scenario.to_string t in
  match Scenario.of_string s with
  | Error e -> Alcotest.failf "roundtrip failed: %s" (Scenario.error_to_string e)
  | Ok t' ->
    Alcotest.(check string) "byte-identical reprint" s (Scenario.to_string t');
    Alcotest.(check bool) "equal" true (Scenario.equal t t')

let test_scenario_version_guard () =
  let s = Scenario.to_string (rich_scenario ()) in
  let tampered = replace_sub s ~sub:{|"version":2|} ~by:{|"version":99|} in
  match Scenario.of_string tampered with
  | Ok _ -> Alcotest.fail "version 99 must be rejected"
  | Error (Scenario.Version { found; _ } as e) ->
    Alcotest.(check int) "typed error carries the offending version" 99 found;
    let msg = Scenario.error_to_string e in
    Alcotest.(check bool) "error names the offending version" true
      (find_sub msg "99" <> None);
    Alcotest.(check bool) "error states the readable range" true
      (find_sub msg "reads 1-2" <> None)
  | Error e ->
    Alcotest.failf "expected a Version error, got: %s"
      (Scenario.error_to_string e)

let test_scenario_rejects_bad_plan () =
  let s = Scenario.to_string (rich_scenario ()) in
  let bad = replace_sub s ~sub:"after-receives" ~by:"after-napping" in
  match Scenario.of_string bad with
  | Ok _ -> Alcotest.fail "unknown crash-plan kind must be rejected"
  | Error _ -> ()

(* The kernel field names one of the two kernels. An artifact saved by
   a build that still had the staged kernel must fail to decode, not
   replay under a kernel other than the one that graded it. *)
let test_scenario_rejects_staged_kernel () =
  let t =
    { (rich_scenario ()) with
      Scenario.kernel = Some Numeric.Kernel.Filtered }
  in
  let s = Scenario.to_string t in
  let staged =
    replace_sub s ~sub:{|"kernel":"filtered"|} ~by:{|"kernel":"staged"|}
  in
  Alcotest.(check bool) "fixture is a v2 scenario" true
    (find_sub staged {|"version":2|} <> None);
  match Scenario.of_string staged with
  | Ok _ -> Alcotest.fail "kernel \"staged\" must be rejected"
  | Error (Scenario.Invalid msg) ->
    List.iter
      (fun word ->
         Alcotest.(check bool) ("error names " ^ word) true
           (find_sub msg word <> None))
      [ "staged"; "exact"; "filtered" ]
  | Error e ->
    Alcotest.failf "expected an Invalid error, got: %s"
      (Scenario.error_to_string e)

(* --- scheduler registry ----------------------------------------------- *)

let check_spec_roundtrip spec =
  match Scheduler.of_spec spec with
  | Error e -> Alcotest.failf "of_spec %S: %s" spec e
  | Ok t -> Alcotest.(check string) spec spec (Scheduler.to_spec t)

let test_registry_roundtrips () =
  List.iter check_spec_roundtrip
    [ "random"; "round-robin"; "lifo"; "lag:0,2"; "delay-burst:7";
      "stab-boundary"; "swarm:delay-burst:11+lifo";
      "swarm:random+stab-boundary" ]

let test_registry_unknown () =
  match Scheduler.of_spec "no-such-strategy" with
  | Ok _ -> Alcotest.fail "unknown name must not resolve"
  | Error _ ->
    Alcotest.(check bool) "fuzzer strategies registered" true
      (List.mem "delay-burst" (Scheduler.registered ())
       && List.mem "swarm" (Scheduler.registered ()))

let test_registry_bad_params () =
  let must_fail spec =
    match Scheduler.of_spec spec with
    | Ok _ -> Alcotest.failf "%S must be rejected" spec
    | Error _ -> ()
  in
  List.iter must_fail
    [ "delay-burst:0"; "delay-burst:zero"; "stab-boundary:x"; "swarm:";
      "swarm:swarm:random" ]

(* --- crash clamp ------------------------------------------------------ *)

let test_clamp_unit () =
  let clamped =
    Crash.clamp
      [| Crash.After_sends 100; Crash.After_receives 100; Crash.Never;
         Crash.After_sends 0 |]
      ~sends:[| 5; 9; 4; 0 |] ~receives:[| 3; 3; 2; 1 |]
  in
  Alcotest.(check bool) "send budget clamped to sends-1" true
    (clamped.(0) = Crash.After_sends 4);
  Alcotest.(check bool) "receive budget clamped to receives-1" true
    (clamped.(1) = Crash.After_receives 2);
  Alcotest.(check bool) "never stays never" true (clamped.(2) = Crash.Never);
  Alcotest.(check bool) "zero budget untouched" true
    (clamped.(3) = Crash.After_sends 0)

(* Regression for the bug ensure_crashes fixes: generated budgets used
   to overshoot the execution's send/receive counts and silently never
   fire. Every faulty plan in an ensure_crash scenario must actually
   crash its process. *)
let test_ensured_crashes_fire () =
  for trial = 0 to 5 do
    let s = Fuzz.Gen.scenario Fuzz.Gen.default_space ~seed:11 ~trial in
    let r =
      Chc.Cc.execute ~round0:s.Scenario.round0 ~config:s.Scenario.config
        ~inputs:s.Scenario.inputs ~crash:s.Scenario.crash
        ~scheduler:s.Scenario.scheduler ~seed:s.Scenario.seed ()
    in
    List.iter
      (fun i ->
         Alcotest.(check bool)
           (Printf.sprintf "trial %d: faulty process %d crashed" trial i)
           true r.Chc.Cc.crashed.(i))
      (Chc.Cc.fault_set s.Scenario.crash)
  done

(* --- canary + shrinking ----------------------------------------------- *)

(* The naive round-0 ablation at d=1 diverges by ~1e-14 at decision
   time, so an absurdly strict agreement threshold manufactures real,
   deterministic violations out of an otherwise correct execution. *)
let canary_space =
  { Fuzz.Gen.default_space with naive_round0 = `Always; d_choices = [ 1 ] }

let canary_oracle =
  Fuzz.Oracle.Agreement_within
    (Q.of_string "1/1000000000000000000000000000000")

let first_failing ~seed =
  let rec go trial =
    if trial >= 200 then Alcotest.fail "no canary violation in 200 trials"
    else
      let s = Fuzz.Gen.scenario canary_space ~seed ~trial in
      match Fuzz.Oracle.check canary_oracle s with
      | Fuzz.Oracle.Fail _ -> s
      | Fuzz.Oracle.Pass -> go (trial + 1)
  in
  go 0

let test_shrink_deterministic () =
  let s = first_failing ~seed:42 in
  let m1, st1 = Fuzz.Shrink.minimize ~oracle:canary_oracle s in
  let m2, st2 = Fuzz.Shrink.minimize ~oracle:canary_oracle s in
  Alcotest.(check string) "byte-identical minimized scenario"
    (Scenario.to_string m1) (Scenario.to_string m2);
  Alcotest.(check int) "same steps" st1.Fuzz.Shrink.steps st2.Fuzz.Shrink.steps;
  Alcotest.(check int) "same attempts" st1.Fuzz.Shrink.attempts
    st2.Fuzz.Shrink.attempts;
  (* minimization preserves the failure *)
  (match Fuzz.Oracle.check canary_oracle m1 with
   | Fuzz.Oracle.Fail _ -> ()
   | Fuzz.Oracle.Pass -> Alcotest.fail "minimized scenario must still fail");
  Alcotest.(check bool) "minimized is no larger" true
    (String.length (Scenario.to_string m1) <= String.length (Scenario.to_string s))

let test_canary_campaign_end_to_end () =
  let out_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "chc-fuzz-canary-%d" (Unix.getpid ()))
  in
  let outcome =
    Fuzz.Campaign.run ~space:canary_space ~oracle:canary_oracle ~out_dir
      ~max_findings:1 ~seed:42
      { Fuzz.Campaign.trials = 60; time_budget = None }
  in
  match outcome.Fuzz.Campaign.findings with
  | [] -> Alcotest.fail "campaign found no canary violation in 60 trials"
  | { artifact; path; trace_path; causal_path } :: _ ->
    Alcotest.(check bool) "artifact file exists" true (Sys.file_exists path);
    (match trace_path with
     | Some p ->
       Alcotest.(check bool) "trace file exists" true (Sys.file_exists p)
     | None -> Alcotest.fail "minimized run must carry a trace");
    (match causal_path with
     | Some p ->
       Alcotest.(check bool) "causal sidecar exists" true (Sys.file_exists p)
     | None -> Alcotest.fail "minimized run must carry a causal skeleton");
    (match Fuzz.Artifact.load path with
     | Error e -> Alcotest.failf "artifact reload: %s" e
     | Ok a ->
       Alcotest.(check string) "artifact reloads byte-identically"
         (Fuzz.Artifact.to_string artifact) (Fuzz.Artifact.to_string a);
       (* the artifact replays: re-grading reproduces the violation *)
       (match Fuzz.Oracle.check a.Fuzz.Artifact.oracle a.Fuzz.Artifact.scenario with
        | Fuzz.Oracle.Fail _ -> ()
        | Fuzz.Oracle.Pass ->
          Alcotest.fail "reloaded counterexample must reproduce"))

(* The differential campaign over d = 3 alone. The default space draws
   d from {1, 2}, where no polytope reaches the engine, so there the
   engine-equivalence leg compares one path with itself. f <= 1 keeps
   the views small: larger d=3 views can fall into the brute vertex
   enumeration (ROADMAP item 4). *)
let test_differential_d3_campaign () =
  let engine_hulls () =
    List.fold_left
      (fun acc s ->
         match s with
         | { Obs.Metrics.metric = "chc_poly_hull_total";
             labels = [ ("path", "float") ];
             value = Obs.Metrics.Counter v } -> acc + v
         | _ -> acc)
      0 (Obs.Metrics.snapshot_all ())
  in
  let before = engine_hulls () in
  let out_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "chc-fuzz-d3-%d" (Unix.getpid ()))
  in
  let outcome =
    Fuzz.Campaign.run
      ~space:{ Fuzz.Gen.default_space with d_choices = [ 3 ]; f_max = 1 }
      ~differential:true ~out_dir ~seed:42
      { Fuzz.Campaign.trials = 40; time_budget = None }
  in
  Alcotest.(check int) "40 trials" 40 outcome.Fuzz.Campaign.trials_run;
  Alcotest.(check (list string)) "no findings" []
    (List.map (fun f -> f.Fuzz.Campaign.path) outcome.Fuzz.Campaign.findings);
  Alcotest.(check bool) "the incremental engine built hulls" true
    (engine_hulls () > before)

let suite =
  [ ( "fuzz scenario codec",
      [ Alcotest.test_case "exact roundtrip" `Quick test_scenario_roundtrip;
        Alcotest.test_case "version guard" `Quick test_scenario_version_guard;
        Alcotest.test_case "bad crash plan rejected" `Quick
          test_scenario_rejects_bad_plan;
        Alcotest.test_case "staged kernel rejected" `Quick
          test_scenario_rejects_staged_kernel ] );
    ( "fuzz scheduler registry",
      [ Alcotest.test_case "spec roundtrips" `Quick test_registry_roundtrips;
        Alcotest.test_case "unknown name" `Quick test_registry_unknown;
        Alcotest.test_case "bad params" `Quick test_registry_bad_params ] );
    ( "fuzz crash clamp",
      [ Alcotest.test_case "clamp unit" `Quick test_clamp_unit;
        Alcotest.test_case "ensured crashes fire" `Quick
          test_ensured_crashes_fire ] );
    ( "fuzz canary",
      [ Alcotest.test_case "shrink deterministic" `Quick
          test_shrink_deterministic;
        Alcotest.test_case "campaign end-to-end" `Quick
          (Gen.joins_global_pool test_canary_campaign_end_to_end) ] );
    ( "fuzz differential",
      [ Alcotest.test_case "d=3 engine equivalence, 40 trials" `Slow
          (Gen.joins_global_pool test_differential_d3_campaign) ] ) ]
