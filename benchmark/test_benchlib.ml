(* Unit tests for the benchmark's own logic: the self-time table, the
   crash-accounting classifier and the answer checks. *)

open Benchlib
module Q = Numeric.Q
module Polytope = Geometry.Polytope

let close_to ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps *. Float.max 1. (Float.abs b)

let b tid name ts_ns = Selftime.Begin { tid; name; ts_ns }
let e tid ts_ns = Selftime.End { tid; ts_ns }

let check_sum (t : Selftime.table) =
  Alcotest.(check bool)
    "rows plus unattributed sum to the traced domain time" true
    (close_to (Selftime.total_ns t) t.Selftime.domain_ns)

let nested () =
  (* a [0,100] holds b [10,30] and c [40,45] *)
  let t =
    Selftime.of_events ~window:(0., 100.)
      [ b 0 "a" 0.; b 0 "b" 10.; e 0 30.; b 0 "c" 40.; e 0 45.; e 0 100. ]
  in
  Alcotest.(check (float 1e-9)) "a self" 75. (Selftime.self_ns t "a");
  Alcotest.(check (float 1e-9)) "b self" 20. (Selftime.self_ns t "b");
  Alcotest.(check (float 1e-9)) "c self" 5. (Selftime.self_ns t "c");
  Alcotest.(check (float 1e-9)) "top level" 100. t.Selftime.top_level_ns;
  Alcotest.(check (float 1e-9)) "nothing unattributed" 0. t.Selftime.unattributed_ns;
  check_sum t

let recursive () =
  (* the same name nested in itself: each level keeps only its own part *)
  let t =
    Selftime.of_events ~window:(0., 10.)
      [ b 0 "r" 0.; b 0 "r" 2.; b 0 "r" 4.; e 0 6.; e 0 8.; e 0 10. ]
  in
  Alcotest.(check (float 1e-9)) "r self" 10. (Selftime.self_ns t "r");
  Alcotest.(check (list (pair string int))) "calls" [ ("r", 3) ] t.Selftime.calls;
  check_sum t

let interleaved () =
  (* two domains whose events interleave in the stream *)
  let t =
    Selftime.of_events ~window:(0., 100.)
      [ b 0 "x" 0.; b 1 "y" 10.; b 1 "z" 20.; e 1 30.; e 0 50.; e 1 60.;
        Selftime.Slice { name = "queued"; ts_ns = 5.; dur_ns = 7. } ]
  in
  Alcotest.(check int) "domains" 2 t.Selftime.domains;
  Alcotest.(check (float 1e-9)) "x self" 50. (Selftime.self_ns t "x");
  Alcotest.(check (float 1e-9)) "y self" 40. (Selftime.self_ns t "y");
  Alcotest.(check (float 1e-9)) "z self" 10. (Selftime.self_ns t "z");
  Alcotest.(check (float 1e-9)) "domain time" 200. t.Selftime.domain_ns;
  Alcotest.(check (float 1e-9)) "unattributed" 100. t.Selftime.unattributed_ns;
  Alcotest.(check (float 1e-9)) "slices stay beside the table" 7.
    (Selftime.slice_ns t "queued");
  check_sum t

let unmatched () =
  let raises name evs =
    match Selftime.of_events evs with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Selftime.Unmatched _ -> ()
  in
  raises "end without begin" [ e 0 1. ];
  raises "begin without end" [ b 0 "a" 0.; b 1 "b" 1.; e 1 2. ];
  raises "end on the wrong domain" [ b 0 "a" 0.; e 1 2. ]

(* The daemon path: Obs.Prof's own Chrome export, parsed line by line,
   gives the same table as its in-memory events. *)
let chrome_roundtrip () =
  Obs.Prof.reset ();
  Obs.Prof.set_enabled true;
  let spin () = ignore (Sys.opaque_identity (List.init 2000 Fun.id)) in
  Obs.Prof.with_span "outer" (fun () ->
      spin ();
      Obs.Prof.with_span ~attrs:[ ("table", "hull") ] "inner" spin;
      Obs.Prof.with_span "inner" spin);
  Obs.Prof.slice ~track:7 ~ts_ns:(Obs.Prof.now_ns ()) ~dur_ns:1000L "queued";
  Obs.Prof.set_enabled false;
  let mem = Selftime.of_prof (Obs.Prof.events ()) ~window:(0., 1.) in
  let path = Filename.temp_file "selftime" ".json" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Obs.Prof.to_chrome_json ()));
  Obs.Prof.reset ();
  let file = Selftime.of_chrome_file path in
  Sys.remove path;
  List.iter
    (fun name ->
       (* the export rounds timestamps to 1 ns *)
       Alcotest.(check (float 4.)) name (Selftime.self_ns mem name)
         (Selftime.self_ns file name))
    [ "outer"; "inner" ];
  Alcotest.(check (list (pair string int))) "calls"
    [ ("inner", 2); ("outer", 1) ] file.Selftime.calls;
  Alcotest.(check (float 1e-6)) "slice" 1000. (Selftime.slice_ns file "queued")

let classify () =
  let f ?(answered = false) ?(has_meta = true) ?(has_marker = false)
      ?(resumed = false) () =
    Crash_acct.classify { Crash_acct.answered; has_meta; has_marker; resumed }
  in
  let fate = Alcotest.of_pp (fun ppf x -> Format.pp_print_string ppf (Crash_acct.name x)) in
  Alcotest.check fate "answered wins" Crash_acct.Answered
    (f ~answered:true ~has_marker:true ());
  Alcotest.check fate "marker, unanswered" Crash_acct.Marker (f ~has_marker:true ());
  Alcotest.check fate "resumed" Crash_acct.Resumed (f ~resumed:true ());
  Alcotest.check fate "no meta.json" Crash_acct.Unacked_lost (f ~has_meta:false ());
  Alcotest.check fate "meta.json, never finished" Crash_acct.Lost (f ());
  Alcotest.(check (option int)) "resume line" (Some 42)
    (Crash_acct.resumed_id "instance 42     decided after resume (t_end 9)");
  Alcotest.(check (option int)) "other line" None
    (Crash_acct.resumed_id "chc_serve resume: 3 unfinished instance(s) under d")

let disk_facts () =
  let dir = Filename.temp_file "walfacts" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let inst = Filename.concat dir "inst-5" in
  Sys.mkdir inst 0o755;
  Alcotest.(check (pair bool bool)) "bare directory" (false, false)
    (Crash_acct.disk_facts ~wal_dir:dir 5);
  let touch name = close_out (open_out (Filename.concat inst name)) in
  touch "meta.json";
  touch "decided.json";
  Alcotest.(check (pair bool bool)) "both files" (true, true)
    (Crash_acct.disk_facts ~wal_dir:dir 5);
  Alcotest.(check (pair bool bool)) "no directory" (false, false)
    (Crash_acct.disk_facts ~wal_dir:dir 6);
  List.iter (fun n -> Sys.remove (Filename.concat inst n)) [ "meta.json"; "decided.json" ];
  Sys.rmdir inst;
  Sys.rmdir dir

let job () =
  Serve.Workload.job ~rng:(Runtime.Rng.create 3) ~id:50
    { Serve.Workload.n = 5; f = 1; d = 2; recover = false }

let decisions () =
  let job = job () in
  let hull = Polytope.of_points ~dim:2 (Array.to_list job.Serve.Server.inputs) in
  Alcotest.(check bool) "the inputs' hull passes" true (Checks.decision job hull = Ok ());
  let outside = Polytope.singleton [| Q.of_int 2; Q.of_int 2 |] in
  Alcotest.(check bool) "a point outside the unit box fails" true
    (Result.is_error (Checks.decision job outside));
  let flat = Polytope.singleton [| Q.zero |] in
  Alcotest.(check bool) "a wrong dimension fails" true
    (Result.is_error (Checks.decision job flat));
  (* the sampled re-execution check *)
  let reference = Serve.Server.create ~shards:1 () in
  Serve.Server.submit reference job;
  let output =
    match Serve.Server.drain reference with
    | [ o ] ->
      (match Serve.Server.response_of_outcome o with
       | Serve.Frame.Decision { output; _ } -> output
       | Serve.Frame.Rejected _ -> Alcotest.fail "reference rejected")
    | _ -> Alcotest.fail "reference did not finish"
  in
  Alcotest.(check bool) "the served decision re-executes" true
    (Checks.reexecute job output = Ok ());
  Alcotest.(check bool) "a different valid polytope does not" true
    (Result.is_error (Checks.reexecute job hull))

let executions () =
  let config =
    Chc.Config.make ~n:4 ~f:1 ~d:1 ~eps:(Q.of_ints 1 100) ~lo:Q.zero ~hi:Q.one
  in
  let rep = Chc.Executor.run (Chc.Executor.default_spec ~config ~seed:5 ()) in
  Alcotest.(check bool) "a graded execution passes" true (Checks.execution rep = Ok ());
  Alcotest.(check bool) "an invalid one fails" true
    (Result.is_error (Checks.execution { rep with Chc.Executor.valid = false }));
  Alcotest.(check bool) "an unstable one fails" true
    (Result.is_error
       (Checks.execution { rep with Chc.Executor.decision_stable = false }))

let () =
  Alcotest.run "benchlib"
    [ ( "selftime",
        [ Alcotest.test_case "nested spans" `Quick nested;
          Alcotest.test_case "recursive spans" `Quick recursive;
          Alcotest.test_case "interleaved domains" `Quick interleaved;
          Alcotest.test_case "unmatched events fail" `Quick unmatched;
          Alcotest.test_case "chrome export round trip" `Quick chrome_roundtrip ] );
      ( "crash_acct",
        [ Alcotest.test_case "classifier" `Quick classify;
          Alcotest.test_case "disk facts" `Quick disk_facts ] );
      ( "checks",
        [ Alcotest.test_case "served decisions" `Quick decisions;
          Alcotest.test_case "executor reports" `Quick executions ] ) ]
