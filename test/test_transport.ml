(* The transport conformance suite: every {!Runtime.Transport}
   implementation must expose the same channel semantics — reliable
   exactly-once FIFO per (src, dst) pair, rotating broadcast order,
   crash budgets that drop sends and dead-letter deliveries, recovery
   hooks with a live endpoint — so a protocol core written against the
   seam runs unchanged under any of them. The functor below is
   instantiated twice: the adversarial {!Runtime.Sim} pinned to the
   FIFO strategy, and the daemon's {!Runtime.Loopback}.

   The second half is the refactor's keystone differential: composing
   sans-IO {!Chc.Instance}s over [Loopback] must reproduce the
   executor ({!Chc.Cc.execute} over [Sim]) decision-for-decision and
   trace-byte-for-trace-byte on a pinned fuzz corpus. *)

module Transport = Runtime.Transport
module Crash = Runtime.Crash
module Sim = Runtime.Sim
module Loopback = Runtime.Loopback
module Instance = Chc.Instance
module Polytope = Geometry.Polytope

(* What the conformance tests need from an implementation: the shared
   observation surface {!Transport.S} plus a uniform way to build a
   system (creation is where implementations genuinely differ, so the
   adapter pins Sim's extra knobs to the FIFO schedule). *)
module type DRIVER = sig
  val name : string

  type 'msg t

  val create :
    ?trace:Obs.Trace.t ->
    ?on_crash:(Transport.pid -> keep:int -> unit) ->
    ?on_recover:('msg Transport.ep -> unit) ->
    ?crash:Crash.plan array ->
    n:int ->
    make:(Transport.pid -> 'msg Transport.handlers) ->
    unit ->
    'msg t

  include Transport.S with type 'msg t := 'msg t
end

module Sim_driver : DRIVER = struct
  let name = "sim-fifo"

  type 'msg t = 'msg Sim.t

  let create ?trace ?on_crash ?on_recover ?crash ~n ~make () =
    let crash = Option.value crash ~default:(Array.make n Crash.Never) in
    Sim.create ?trace ?on_crash ?on_recover ~n ~seed:0
      ~scheduler:Runtime.Scheduler.fifo ~crash ~make ()

  let n = Sim.n
  let run = Sim.run
  let crashed = Sim.crashed
  let recovered_of = Sim.recovered_of
  let sends_of = Sim.sends_of
  let receives_of = Sim.receives_of
  let metrics = Sim.metrics
end

module Loopback_driver : DRIVER = struct
  let name = "loopback"

  type 'msg t = 'msg Loopback.t

  let create = Loopback.create
  let n = Loopback.n
  let run = Loopback.run
  let crashed = Loopback.crashed
  let recovered_of = Loopback.recovered_of
  let sends_of = Loopback.sends_of
  let receives_of = Loopback.receives_of
  let metrics = Loopback.metrics
end

module Conformance (D : DRIVER) = struct
  (* Every process broadcasts [k] numbered messages at start; every
     channel must deliver exactly those, in order, exactly once. *)
  let exactly_once_fifo () =
    let n = 4 and k = 5 in
    let seen = Array.init n (fun _ -> Array.make n []) in
    let make me =
      { Transport.on_start =
          (fun ep ->
             for s = 0 to k - 1 do
               ep.Transport.broadcast (me * 100 + s)
             done);
        on_receive =
          (fun ep ~src payload ->
             seen.(ep.Transport.me).(src) <-
               payload :: seen.(ep.Transport.me).(src)) }
    in
    let sys = D.create ~n ~make () in
    D.run sys;
    for dst = 0 to n - 1 do
      for src = 0 to n - 1 do
        if src <> dst then
          Alcotest.(check (list int))
            (Printf.sprintf "%s: channel %d->%d in send order, exactly once"
               D.name src dst)
            (List.init k (fun s -> (src * 100) + s))
            (List.rev seen.(dst).(src))
        else
          Alcotest.(check (list int))
            (Printf.sprintf "%s: no self-channel %d" D.name src)
            [] seen.(dst).(src)
      done
    done;
    let m = D.metrics sys in
    Alcotest.(check int) "sent" (n * (n - 1) * k) m.Transport.sent;
    Alcotest.(check int) "delivered" (n * (n - 1) * k) m.Transport.delivered;
    Alcotest.(check int) "nothing dropped" 0 m.Transport.dropped

  (* A broadcast from [me] reaches recipients in rotating order
     starting at [me]+1 — so a mid-broadcast crash cuts a contiguous,
     sender-dependent block. Single sender keeps the global delivery
     order equal to the send order. *)
  let broadcast_rotation () =
    let n = 5 and sender = 2 in
    let order = ref [] in
    let make me =
      { Transport.on_start =
          (fun ep -> if me = sender then ep.Transport.broadcast ());
        on_receive =
          (fun ep ~src:_ () -> order := ep.Transport.me :: !order) }
    in
    let sys = D.create ~n ~make () in
    D.run sys;
    Alcotest.(check (list int))
      (D.name ^ ": rotation starts at me+1, wraps")
      [ 3; 4; 0; 1 ] (List.rev !order)

  (* A send budget of [b] lets exactly [b] sends through, then the
     crash swallows the rest — including a cut mid-broadcast. *)
  let crash_drops_sends () =
    let n = 4 in
    let crash = Array.make n Crash.Never in
    crash.(0) <- Crash.After_sends 2;
    let make me =
      { Transport.on_start =
          (fun ep -> if me = 0 then (ep.Transport.broadcast (); ep.Transport.broadcast ()));
        on_receive = (fun _ ~src:_ () -> ()) }
    in
    let sys = D.create ~crash ~n ~make () in
    D.run sys;
    Alcotest.(check int) (D.name ^ ": budget caps channel entries") 2
      (D.sends_of sys 0);
    Alcotest.(check bool) "crashed now" true (D.crashed sys 0);
    Alcotest.(check bool) "never revived" false (D.recovered_of sys 0);
    let m = D.metrics sys in
    (* two broadcasts attempt 2*(n-1) = 6 sends; 2 escape *)
    Alcotest.(check int) "dropped the rest" 4 m.Transport.dropped;
    Alcotest.(check int) "delivered what entered" 2 m.Transport.delivered

  (* A receive budget kills at the delivery that exhausts it, and the
     queue drains as dead letters (counted, never handled). *)
  let crash_dead_letters () =
    let n = 3 in
    let crash = Array.make n Crash.Never in
    crash.(2) <- Crash.After_receives 1;
    let handled = ref 0 in
    let make me =
      { Transport.on_start =
          (fun ep ->
             if me = 0 then
               for _ = 1 to 3 do
                 ep.Transport.send 2 ()
               done);
        on_receive =
          (fun ep ~src:_ () ->
             if ep.Transport.me = 2 then incr handled) }
    in
    let sys = D.create ~crash ~n ~make () in
    D.run sys;
    Alcotest.(check int) (D.name ^ ": budget includes the killing delivery") 1
      !handled;
    Alcotest.(check int) "receives observed" 1 (D.receives_of sys 2);
    Alcotest.(check bool) "crashed" true (D.crashed sys 2);
    let m = D.metrics sys in
    Alcotest.(check int) "queued messages dead-lettered" 2
      m.Transport.dead_lettered

  (* Crash-recovery: [on_crash] fires synchronously at the trigger
     with the plan's disk-prefix choice, [on_recover] fires at revival
     with a live endpoint (its sends really enter channels), and the
     observation surface flips [crashed] back off. *)
  let recover_hooks () =
    let n = 3 in
    let crash = Array.make n Crash.Never in
    crash.(1) <-
      Crash.Crash_recover { trigger = Crash.Sends 1; delay = 4; keep = 7 };
    let crash_keep = ref (-1) in
    let rejoin_delivered = ref 0 in
    let make me =
      { Transport.on_start =
          (fun ep -> if me = 1 then ep.Transport.broadcast `First);
        on_receive =
          (fun ep ~src:_ msg ->
             match msg with
             | `Rejoin when ep.Transport.me <> 1 -> incr rejoin_delivered
             | `Rejoin | `First -> ()) }
    in
    let on_crash i ~keep =
      Alcotest.(check int) (D.name ^ ": crash hook names the crasher") 1 i;
      crash_keep := keep
    in
    let on_recover (ep : _ Transport.ep) =
      Alcotest.(check int) "revived endpoint identity" 1 ep.Transport.me;
      ep.Transport.broadcast `Rejoin
    in
    let sys = D.create ~on_crash ~on_recover ~crash ~n ~make () in
    D.run sys;
    Alcotest.(check int) "disk-prefix keep passed through" 7 !crash_keep;
    Alcotest.(check bool) "recovered" true (D.recovered_of sys 1);
    Alcotest.(check bool) "alive again" false (D.crashed sys 1);
    Alcotest.(check int) "rejoin broadcast reached everyone" (n - 1)
      !rejoin_delivered;
    Alcotest.(check int) "one revival counted" 1
      (D.metrics sys).Transport.recoveries

  (* Ping-pong forever: [run ~max_steps] is the liveness-bug guard. *)
  let step_limit () =
    let make _ =
      { Transport.on_start = (fun ep -> ep.Transport.send (1 - ep.Transport.me) ());
        on_receive = (fun ep ~src () -> ep.Transport.send src ()) }
    in
    let sys = D.create ~n:2 ~make () in
    Alcotest.check_raises (D.name ^ ": step limit raises")
      Transport.Step_limit_exceeded (fun () -> D.run ~max_steps:50 sys)

  let tests =
    [ Alcotest.test_case (D.name ^ " exactly-once FIFO") `Quick
        exactly_once_fifo;
      Alcotest.test_case (D.name ^ " broadcast rotation") `Quick
        broadcast_rotation;
      Alcotest.test_case (D.name ^ " crash drops sends") `Quick
        crash_drops_sends;
      Alcotest.test_case (D.name ^ " crash dead-letters queue") `Quick
        crash_dead_letters;
      Alcotest.test_case (D.name ^ " recover hooks") `Quick recover_hooks;
      Alcotest.test_case (D.name ^ " step limit") `Quick step_limit ]
end

module Sim_conformance = Conformance (Sim_driver)
module Loopback_conformance = Conformance (Loopback_driver)

(* --- Sim(fifo) ≡ Loopback, down to the trace bytes ------------------- *)

(* The same handlers and crash plans produce byte-identical transport
   transcripts under Sim's FIFO strategy and under Loopback — the
   equivalence the daemon's cheap transport rests on. *)
let trace_equivalence () =
  let n = 4 in
  let crash () =
    let c = Array.make n Crash.Never in
    c.(1) <- Crash.After_sends 4;
    c.(3) <-
      Crash.Crash_recover { trigger = Crash.Receives 3; delay = 5; keep = 0 };
    c
  in
  let make _me =
    { Transport.on_start = (fun ep -> ep.Transport.broadcast 0);
      on_receive =
        (fun ep ~src:_ gen ->
           if gen < 2 then ep.Transport.broadcast (gen + 1)) }
  in
  let on_recover (ep : _ Transport.ep) = ep.Transport.broadcast 9 in
  let sim_trace = Obs.Trace.create () in
  let sys =
    Sim.create ~trace:sim_trace ~on_recover ~n ~seed:123
      ~scheduler:Runtime.Scheduler.fifo ~crash:(crash ()) ~make ()
  in
  Sim.run sys;
  let lb_trace = Obs.Trace.create () in
  let lb =
    Loopback.create ~trace:lb_trace ~on_recover ~crash:(crash ()) ~n ~make ()
  in
  Loopback.run lb;
  Alcotest.(check string) "transcripts byte-identical"
    (Obs.Trace.to_jsonl sim_trace)
    (Obs.Trace.to_jsonl lb_trace);
  Alcotest.(check bool) "loopback recovered too" true
    (Loopback.recovered_of lb 3)

(* Loopback.step: pumps one delivery at a time, reaches the same end
   state as run, and reports quiescence exactly when done. *)
let stepwise_pumping () =
  let n = 3 in
  let delivered = ref 0 in
  let make _ =
    { Transport.on_start = (fun ep -> ep.Transport.broadcast ());
      on_receive = (fun _ ~src:_ () -> incr delivered) }
  in
  let lb = Loopback.create ~n ~make () in
  Alcotest.(check bool) "not quiescent before start" false
    (Loopback.quiescent lb);
  let steps = ref 0 in
  while Loopback.step lb do incr steps done;
  Alcotest.(check int) "all messages pumped" (n * (n - 1)) !delivered;
  Alcotest.(check bool) "quiescent at the end" true (Loopback.quiescent lb);
  Alcotest.(check bool) "step stays false at quiescence" false
    (Loopback.step lb)

(* --- Instance-vs-Executor differential ------------------------------- *)

(* Drive sans-IO instances over Loopback exactly the way the daemon
   does (and the way {!Chc.Cc.execute} wires them over Sim), returning
   (decisions, trace bytes). *)
let run_instances_on_loopback ?trace (s : Chc.Scenario.t) =
  let n = s.Chc.Scenario.config.Chc.Config.n in
  let recovery_on =
    s.Chc.Scenario.wal <> None
    || Array.exists
         (function Crash.Crash_recover _ -> true | _ -> false)
         s.Chc.Scenario.crash
  in
  let wal =
    if recovery_on then
      Some (Option.value s.Chc.Scenario.wal ~default:Runtime.Wal.default_config)
    else None
  in
  let spec =
    Instance.spec ~round0:s.Chc.Scenario.round0 ?wal s.Chc.Scenario.config
  in
  let insts =
    Array.init n (fun i ->
        Instance.create spec ~me:i ~input:s.Chc.Scenario.inputs.(i))
  in
  let emit =
    match trace with None -> fun _ -> () | Some tr -> Obs.Trace.emit tr
  in
  let run_effects (ep : Instance.msg Transport.ep) effs =
    let io =
      Instance.io ~send:ep.Transport.send
        ~broadcast:(fun m -> ep.Transport.broadcast m)
        ~sends:ep.Transport.sends ~emit ()
    in
    Instance.interpret insts.(ep.Transport.me) io effs
  in
  let make i =
    { Transport.on_start =
        (fun ep -> run_effects ep (Instance.start insts.(i)));
      on_receive =
        (fun ep ~src msg -> run_effects ep (Instance.handle insts.(i) ~src msg)) }
  in
  let lb =
    Loopback.create ?trace
      ~on_crash:(fun i ~keep -> Instance.crash insts.(i) ~keep)
      ~on_recover:(fun ep ->
          run_effects ep (Instance.recover insts.(ep.Transport.me)))
      ~crash:s.Chc.Scenario.crash ~n ~make ()
  in
  Loopback.run lb;
  Array.map Instance.poll_decision insts

(* Pinned corpus: fuzz-generator scenarios re-pinned to the FIFO
   schedule (the one schedule both transports express), graded two
   ways — through the executor (Instance over Sim) and through the
   daemon path (Instance over Loopback). Decisions and transcripts
   must agree exactly. *)
let differential () =
  let corpus =
    List.concat_map
      (fun seed -> List.map (fun trial -> (seed, trial)) [ 0; 1; 2 ])
      [ 11; 12; 13; 14 ]
  in
  List.iter
    (fun (seed, trial) ->
       let s = Fuzz.Gen.scenario Fuzz.Gen.default_space ~seed ~trial in
       let s =
         { s with
           Chc.Scenario.scheduler = Runtime.Scheduler.fifo;
           prefix = [];
           kernel = None }
       in
       let label = Printf.sprintf "seed %d trial %d" seed trial in
       let tr_sim = Obs.Trace.create () in
       let report = Chc.Executor.run ~trace:tr_sim s in
       let tr_lb = Obs.Trace.create () in
       let decisions = run_instances_on_loopback ~trace:tr_lb s in
       Alcotest.(check string)
         (label ^ ": traces byte-identical")
         (Obs.Trace.to_jsonl tr_sim) (Obs.Trace.to_jsonl tr_lb);
       let exec_outputs = report.Chc.Executor.result.Chc.Cc.outputs in
       Alcotest.(check int)
         (label ^ ": same process count")
         (Array.length exec_outputs) (Array.length decisions);
       Array.iteri
         (fun i expect ->
            match (expect, decisions.(i)) with
            | None, None -> ()
            | Some a, Some b ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: process %d same decision" label i)
                true (Polytope.equal a b)
            | Some _, None ->
              Alcotest.failf "%s: process %d decided only under Sim" label i
            | None, Some _ ->
              Alcotest.failf "%s: process %d decided only under Loopback"
                label i)
         exec_outputs)
    corpus

(* The shared CLI surface produces one error-message format wherever
   the flags are consumed (run/trace/profile/fuzz/replay and the
   daemon all parse through {!Chc.Cli.scenario_of_common}). *)
let cli_common_errors () =
  let base =
    { Chc.Cli.n = 5; f = 1; d = 2; eps = "0.1"; lo = "0"; hi = "1"; seed = 1;
      scheduler = "random"; naive = false; kernel = None; inputs = None;
      faulty = None }
  in
  let err c =
    match Chc.Cli.scenario_of_common c with
    | Ok _ -> Alcotest.fail "expected a parse error"
    | Error msg -> msg
  in
  Alcotest.(check string) "--eps format"
    "--eps: \"nope\" is not a decimal or rational"
    (err { base with Chc.Cli.eps = "nope" });
  Alcotest.(check string) "--faulty format"
    "--faulty: \"x\" is not a process id"
    (err { base with Chc.Cli.faulty = Some "0,x" });
  Alcotest.(check string) "--inputs format" "--inputs: expected 5 points, got 1"
    (err { base with Chc.Cli.inputs = Some "0.5,0.5" });
  (match Chc.Cli.scenario_of_common base with
   | Ok spec ->
     Alcotest.(check int) "valid common parses" 5
       spec.Chc.Scenario.config.Chc.Config.n
   | Error msg -> Alcotest.failf "valid common rejected: %s" msg);
  (match Chc.Cli.set_kernel (Some "frobnicate") with
   | Error msg ->
     Alcotest.(check string) "--kernel format"
       "--kernel: unknown kernel \"frobnicate\" (expected \"exact\" or \
        \"filtered\")" msg
   | Ok () -> Alcotest.fail "bad kernel accepted")

let suite =
  [ ( "transport-conformance",
      Sim_conformance.tests @ Loopback_conformance.tests
      @ [ Alcotest.test_case "sim(fifo) = loopback traces" `Quick
            trace_equivalence;
          Alcotest.test_case "loopback stepwise pumping" `Quick
            stepwise_pumping;
          Alcotest.test_case "instance-vs-executor differential" `Slow
            differential;
          Alcotest.test_case "shared CLI error format" `Quick
            cli_common_errors ] ) ]
