(* Tests for the crash-recovery durability layer: WAL crash/sync
   semantics (the CrashableMap discipline), atomic sink semantics under
   an injected mid-write failure, the scenario v2 codec and its v1
   back-compat reader, the Recovery event codec, an end-to-end strict
   recovery run, and the disk-prefix torture property — every surviving
   prefix the adversary can expose must replay to a state from which
   all paper properties still hold. *)

module Q = Numeric.Q
module Wal = Runtime.Wal
module Crash = Runtime.Crash
module Scenario = Chc.Scenario
module Executor = Chc.Executor
module Recovery = Chc.Recovery

(* --- Wal semantics ---------------------------------------------------- *)

let test_wal_crash_keep () =
  let w = Wal.create { Wal.checkpoint_every = 4; sync = Wal.Strict } in
  List.iter (Wal.append w) [ 1; 2; 3; 4; 5 ];
  Wal.sync w;
  List.iter (Wal.append w) [ 6; 7; 8 ];
  Alcotest.(check int) "synced frontier" 5 (Wal.synced w);
  Alcotest.(check int) "unsynced tail" 3 (Wal.unsynced w);
  Wal.crash w ~keep:1;
  Alcotest.(check (list int)) "synced prefix + 1 kept unsynced entry"
    [ 1; 2; 3; 4; 5; 6 ] (Wal.entries w);
  Alcotest.(check bool) "sealed after crash" true (Wal.sealed w);
  Alcotest.(check int) "survivors are the new synced prefix" 6 (Wal.synced w);
  (match Wal.append w 9 with
   | () -> Alcotest.fail "append on a sealed log must raise"
   | exception Invalid_argument _ -> ());
  Wal.reopen w;
  Wal.append w 9;
  Alcotest.(check (list int)) "appends resume after reopen"
    [ 1; 2; 3; 4; 5; 6; 9 ] (Wal.entries w)

let test_wal_keep_clamp () =
  let w = Wal.create Wal.default_config in
  List.iter (Wal.append w) [ 1; 2; 3 ];
  Wal.crash w ~keep:100;
  Alcotest.(check (list int)) "keep clamps to the unsynced length"
    [ 1; 2; 3 ] (Wal.entries w);
  let w = Wal.create Wal.default_config in
  List.iter (Wal.append w) [ 1; 2; 3 ];
  Wal.crash w ~keep:0;
  Alcotest.(check (list int)) "nothing synced, nothing kept -> empty"
    [] (Wal.entries w)

let test_wal_unsound_sync () =
  let w = Wal.create { Wal.checkpoint_every = 4; sync = Wal.Unsound } in
  List.iter (Wal.append w) [ 1; 2; 3; 4 ];
  Wal.sync w;
  Alcotest.(check int) "unsound sync never advances the frontier" 0
    (Wal.synced w);
  Wal.crash w ~keep:0;
  Alcotest.(check (list int)) "the whole log is lost" [] (Wal.entries w)

let test_wal_config_guard () =
  (match Wal.create { Wal.checkpoint_every = 0; sync = Wal.Strict } with
   | _ -> Alcotest.fail "checkpoint_every = 0 must be rejected"
   | exception Invalid_argument _ -> ());
  let config =
    Chc.Config.make ~n:4 ~f:1 ~d:1 ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one
  in
  let rng = Runtime.Rng.create 1 in
  let inputs = Scenario.random_inputs ~config ~rng () in
  match
    Scenario.make ~config ~inputs ~crash:(Array.make 4 Crash.Never)
      ~scheduler:Runtime.Scheduler.random_uniform ~seed:1
      ~wal:{ Wal.checkpoint_every = 0; sync = Wal.Strict } ()
  with
  | _ -> Alcotest.fail "Scenario.make must reject checkpoint_every = 0"
  | exception Invalid_argument _ -> ()

(* --- atomic sink under an injected mid-write failure ------------------ *)

exception Boom

let test_sink_atomic_on_failure () =
  let dir = Filename.temp_file "chc-sink" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "artifact.json" in
  (match Obs.Sink.write_string ~path "the old content\n" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "seed write failed: %s" e);
  (* Writer emits some bytes, then dies: the old content must survive
     and the temporary must be cleaned up. *)
  (match
     Obs.Sink.write_file ~path (fun oc ->
         output_string oc "half-written garbage";
         raise Boom)
   with
   | Ok () | Error _ -> Alcotest.fail "injected exception must propagate"
   | exception Boom -> ());
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "old content survives a mid-write crash"
    "the old content\n" s;
  Alcotest.(check (list string)) "no temporary left behind"
    [ "artifact.json" ]
    (Array.to_list (Sys.readdir dir) |> List.sort compare);
  (* And a successful rewrite replaces it whole. *)
  (match Obs.Sink.write_string ~path "the new content\n" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "rewrite failed: %s" e);
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "rewrite is complete" "the new content\n" s;
  Sys.remove path;
  Unix.rmdir dir

(* --- scenario v2 codec and v1 back-compat ----------------------------- *)

let recovery_scenario () =
  let config =
    Chc.Config.make ~n:5 ~f:1 ~d:1 ~eps:(Q.of_ints 1 5) ~lo:Q.zero ~hi:Q.one
  in
  let rng = Runtime.Rng.create 3 in
  let inputs = Scenario.random_inputs ~config ~rng () in
  let crash = Array.make 5 Crash.Never in
  crash.(0) <-
    Crash.Crash_recover { trigger = Crash.Receives 30; delay = 7; keep = 2 };
  Scenario.make ~config ~inputs ~crash
    ~scheduler:Runtime.Scheduler.random_uniform ~seed:13
    ~wal:{ Wal.checkpoint_every = 2; sync = Wal.Strict } ()

let test_scenario_v2_roundtrip () =
  let t = recovery_scenario () in
  let s = Scenario.to_string t in
  match Scenario.of_string s with
  | Error e ->
    Alcotest.failf "v2 roundtrip failed: %s" (Scenario.error_to_string e)
  | Ok t' ->
    Alcotest.(check bool) "equal after roundtrip" true (Scenario.equal t t');
    Alcotest.(check string) "byte-identical reprint" s (Scenario.to_string t')

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let test_scenario_v1_read () =
  (* A scenario using no v2 feature serializes exactly like a v1 file
     apart from the version stamp — rewriting the stamp reconstructs a
     genuine v1 document, which this build must still read. *)
  let config =
    Chc.Config.make ~n:4 ~f:1 ~d:1 ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one
  in
  let rng = Runtime.Rng.create 5 in
  let inputs = Scenario.random_inputs ~config ~rng () in
  let crash = Array.make 4 Crash.Never in
  crash.(2) <- Crash.After_sends 4;
  let t =
    Scenario.make ~config ~inputs ~crash
      ~scheduler:Runtime.Scheduler.random_uniform ~seed:9 ()
  in
  let s = Scenario.to_string t in
  (match find_sub s {|"wal"|} with
   | Some _ -> Alcotest.fail "wal-less scenario must not serialize a wal field"
   | None -> ());
  let v1 =
    match find_sub s {|"version":2|} with
    | None -> Alcotest.fail "expected a version-2 stamp"
    | Some i ->
      String.sub s 0 i ^ {|"version":1|}
      ^ String.sub s (i + String.length {|"version":2|})
          (String.length s - i - String.length {|"version":2|})
  in
  match Scenario.of_string v1 with
  | Error e ->
    Alcotest.failf "v1 document rejected: %s" (Scenario.error_to_string e)
  | Ok t' ->
    Alcotest.(check bool) "v1 document reads back equal" true
      (Scenario.equal t t')

(* --- Recovery event codec --------------------------------------------- *)

let test_recovery_event_codec () =
  let poly =
    Geometry.Polytope.of_points ~dim:2
      [ [| Q.zero; Q.zero |]; [| Q.one; Q.zero |]; [| Q.of_ints 1 2; Q.one |] ]
  in
  let events =
    [ Recovery.Delivered
        { src = 3;
          payload =
            Recovery.Sv_view
              [ (0, [| Q.zero; Q.one |]); (2, [| Q.of_ints 1 3; Q.zero |]) ] };
      Recovery.Delivered
        { src = 1; payload = Recovery.Input [| Q.one; Q.of_ints 2 7 |] };
      Recovery.Delivered { src = 0; payload = Recovery.Round_msg (4, poly) };
      Recovery.Checkpoint
        { Recovery.current = 2;
          h = Some poly;
          view = Some [ (0, [| Q.zero; Q.zero |]); (1, [| Q.one; Q.one |]) ];
          hist = [ (0, poly); (1, poly) ];
          snd_log = [ (1, [ 0; 1; 2 ]) ];
          sent_log = [ (0, true); (1, false) ];
          rounds = [ (2, [ (1, poly) ], false) ];
          naive0 = [];
          sv = None } ]
  in
  List.iter
    (fun ev ->
       let line = Recovery.event_to_string ev in
       match Recovery.event_of_string ~dim:2 line with
       | Error e -> Alcotest.failf "event failed to parse: %s (%s)" e line
       | Ok ev' ->
         Alcotest.(check string) "canonical reprint is stable" line
           (Recovery.event_to_string ev'))
    events

(* --- end-to-end strict recovery --------------------------------------- *)

let test_recovery_end_to_end () =
  let config =
    Chc.Config.make ~n:5 ~f:1 ~d:2 ~eps:(Q.of_ints 1 5) ~lo:Q.zero ~hi:Q.one
  in
  let rng = Runtime.Rng.create 11 in
  let inputs = Scenario.random_inputs ~config ~rng () in
  let crash = Array.make 5 Crash.Never in
  crash.(0) <-
    Crash.Crash_recover { trigger = Crash.Sends 9; delay = 12; keep = 1 };
  let t =
    Scenario.make ~config ~inputs ~crash
      ~scheduler:Runtime.Scheduler.random_uniform ~seed:7 ()
  in
  let r = Executor.run t in
  Alcotest.(check (list int)) "process 0 recovered" [ 0 ] r.Executor.recovered;
  Alcotest.(check bool) "terminated" true r.Executor.terminated;
  Alcotest.(check bool) "valid" true r.Executor.valid;
  Alcotest.(check bool) "agreement" true r.Executor.agreement_ok;
  Alcotest.(check bool) "optimal" true r.Executor.optimal;
  Alcotest.(check bool) "decision stable" true r.Executor.decision_stable;
  Alcotest.(check bool) "recovered process decided" true
    (r.Executor.result.Chc.Cc.outputs.(0) <> None);
  Alcotest.(check bool) "its WAL is non-empty" true
    (r.Executor.result.Chc.Cc.wal_log.(0) <> [])

(* --- disk-prefix torture ---------------------------------------------- *)

(* The CrashableMap invariant, phrased at protocol level: whatever
   prefix of the victim's log the adversary exposes (every [keep] from
   "synced only" through "everything", crossing checkpoint boundaries
   on the way — checkpoint_every is 4 and receive budgets 15..17
   straddle the 16-entry boundary), replay must land the victim in a
   state from which the full paper property suite still holds. *)
let test_prefix_torture () =
  let config =
    Chc.Config.make ~n:5 ~f:1 ~d:1 ~eps:(Q.of_ints 1 5) ~lo:Q.zero ~hi:Q.one
  in
  let rng = Runtime.Rng.create 21 in
  let inputs = Scenario.random_inputs ~config ~rng () in
  List.iter
    (fun budget ->
       List.iter
         (fun keep ->
            let crash = Array.make 5 Crash.Never in
            crash.(0) <-
              Crash.Crash_recover
                { trigger = Crash.Receives budget; delay = 5; keep };
            let t =
              Scenario.make ~config ~inputs ~crash
                ~scheduler:Runtime.Scheduler.random_uniform ~seed:31
                ~wal:{ Wal.checkpoint_every = 4; sync = Wal.Strict } ()
            in
            match Fuzz.Oracle.check Fuzz.Oracle.Paper_properties t with
            | Fuzz.Oracle.Pass -> ()
            | Fuzz.Oracle.Fail msg ->
              Alcotest.failf "budget=%d keep=%d violates: %s" budget keep msg)
         [ 0; 1; 2; 3; 4; 5 ])
    [ 15; 16; 17 ]

(* A round number far past t_end in a WAL — as a logged delivery or in
   a checkpoint's round tables — is dropped before it reaches the
   round table, which is an array indexed by round: restoring neither
   raises nor allocates anything near 2^40 slots. *)
let test_restore_drops_far_rounds () =
  let config =
    Chc.Config.make ~n:4 ~f:1 ~d:1 ~eps:(Q.of_ints 1 10) ~lo:Q.zero ~hi:Q.one
  in
  let spec = Chc.Instance.spec ~wal:Wal.default_config config in
  let poly =
    Geometry.Polytope.of_points ~dim:1 [ [| Q.zero |]; [| Q.one |] ]
  in
  let far = 1 lsl 40 in
  let checkpoint =
    Recovery.Checkpoint
      { Recovery.current = 0; h = None; view = None; hist = [];
        snd_log = []; sent_log = [];
        rounds = [ (far, [ (1, poly) ], false) ];
        naive0 = [ (far, [ (2, [| Q.half |]) ], false) ];
        sv = None }
  in
  let delivered =
    Recovery.Delivered { src = 1; payload = Recovery.Round_msg (far, poly) }
  in
  List.iter
    (fun (label, entries) ->
       let inst = Chc.Instance.create spec ~me:0 ~input:[| Q.half |] in
       let before = Gc.allocated_bytes () in
       (match Chc.Instance.restore inst ~entries with
        | _ -> ()
        | exception e ->
          Alcotest.failf "%s: restore raised %s" label (Printexc.to_string e));
       let bytes = Gc.allocated_bytes () -. before in
       if bytes > 65536. then
         Alcotest.failf "%s: restore allocated %.0f bytes" label bytes;
       Alcotest.(check int) (label ^ ": still in round 0") 0
         (Chc.Instance.current_round inst))
    [ ("logged delivery", [ delivered ]);
      ("checkpoint", [ checkpoint ]);
      ("checkpoint then delivery", [ checkpoint; delivered ]) ]

let suite =
  [ ( "wal",
      [ Alcotest.test_case "crash keeps synced prefix + kept tail" `Quick
          test_wal_crash_keep;
        Alcotest.test_case "keep clamps; empty when nothing durable" `Quick
          test_wal_keep_clamp;
        Alcotest.test_case "unsound sync never makes progress durable" `Quick
          test_wal_unsound_sync;
        Alcotest.test_case "config guards reject checkpoint_every < 1" `Quick
          test_wal_config_guard;
        Alcotest.test_case "sink is atomic under mid-write failure" `Quick
          test_sink_atomic_on_failure;
        Alcotest.test_case "scenario v2 roundtrip" `Quick
          test_scenario_v2_roundtrip;
        Alcotest.test_case "scenario v1 back-compat read" `Quick
          test_scenario_v1_read;
        Alcotest.test_case "recovery event codec roundtrip" `Quick
          test_recovery_event_codec;
        Alcotest.test_case "end-to-end strict recovery" `Quick
          test_recovery_end_to_end;
        Alcotest.test_case "disk-prefix torture (checkpoint boundary)" `Quick
          test_prefix_torture;
        Alcotest.test_case "restore drops rounds past t_end" `Quick
          test_restore_drops_far_rounds ] ) ]
