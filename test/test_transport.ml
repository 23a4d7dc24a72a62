(* The transport conformance suite. {!Runtime.Sim} is the only
   transport, and its scheduler decides how in-flight messages wait:
   under {!Runtime.Scheduler.fifo} they wait in one global queue in
   send order; under any other scheduler they wait per (src, dst)
   channel. Every case runs on both orders, [fifo] and [fifo_scan], a
   scheduler that is not [fifo] but uses its pick, so it reads fifo's
   schedule off the per-channel heads. The cases that do not depend on
   fifo order also run under [random], so the per-channel path's crash
   rules meet a real adversary.

   The second half pins the two orders to each other: transport
   transcripts byte for byte, and executions of Algorithm CC
   ({!Chc.Executor.run}) decision for decision and transcript for
   transcript on a fuzz corpus. *)

module Transport = Runtime.Transport
module Crash = Runtime.Crash
module Sim = Runtime.Sim
module Scheduler = Runtime.Scheduler
module Polytope = Geometry.Polytope

(* fifo's pick over per-channel queues: the oracle for the global queue *)
let fifo_scan =
  Scheduler.make ~name:"fifo-scan" (fun () ->
      Scheduler.instantiate Scheduler.fifo)

let create ?trace ?on_crash ?on_recover ?crash ~scheduler ~n ~make () =
  let crash = Option.value crash ~default:(Array.make n Crash.Never) in
  Sim.create ?trace ?on_crash ?on_recover ~n ~seed:0 ~scheduler ~crash ~make
    ()

(* Every process broadcasts [k] numbered messages at start; every
   channel must deliver exactly those, in order, exactly once. *)
let exactly_once_fifo scheduler () =
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
  let sys = create ~scheduler ~n ~make () in
  Sim.run sys;
  for dst = 0 to n - 1 do
    for src = 0 to n - 1 do
      if src <> dst then
        Alcotest.(check (list int))
          (Printf.sprintf "%s: channel %d->%d in send order, exactly once"
             (Scheduler.name scheduler) src dst)
          (List.init k (fun s -> (src * 100) + s))
          (List.rev seen.(dst).(src))
      else
        Alcotest.(check (list int))
          (Printf.sprintf "%s: no self-channel %d"
             (Scheduler.name scheduler) src)
          [] seen.(dst).(src)
    done
  done;
  let m = Sim.metrics sys in
  Alcotest.(check int) "sent" (n * (n - 1) * k) m.Sim.sent;
  Alcotest.(check int) "delivered" (n * (n - 1) * k) m.Sim.delivered;
  Alcotest.(check int) "nothing dropped" 0 m.Sim.dropped

(* A broadcast from [me] reaches recipients in rotating order
   starting at [me]+1 — so a mid-broadcast crash cuts a contiguous,
   sender-dependent block. Single sender keeps the global delivery
   order equal to the send order. *)
let broadcast_rotation scheduler () =
  let n = 5 and sender = 2 in
  let order = ref [] in
  let make me =
    { Transport.on_start =
        (fun ep -> if me = sender then ep.Transport.broadcast ());
      on_receive =
        (fun ep ~src:_ () -> order := ep.Transport.me :: !order) }
  in
  let sys = create ~scheduler ~n ~make () in
  Sim.run sys;
  Alcotest.(check (list int))
    (Scheduler.name scheduler ^ ": rotation starts at me+1, wraps")
    [ 3; 4; 0; 1 ] (List.rev !order)

(* A send budget of [b] lets exactly [b] sends through, then the
   crash swallows the rest — including a cut mid-broadcast. *)
let crash_drops_sends scheduler () =
  let n = 4 in
  let crash = Array.make n Crash.Never in
  crash.(0) <- Crash.After_sends 2;
  let make me =
    { Transport.on_start =
        (fun ep ->
           if me = 0 then begin
             ep.Transport.broadcast ();
             ep.Transport.broadcast ()
           end);
      on_receive = (fun _ ~src:_ () -> ()) }
  in
  let sys = create ~scheduler ~crash ~n ~make () in
  Sim.run sys;
  Alcotest.(check int)
    (Scheduler.name scheduler ^ ": budget caps channel entries") 2
    (Sim.sends_of sys 0);
  Alcotest.(check bool) "crashed now" true (Sim.crashed sys 0);
  Alcotest.(check bool) "never revived" false (Sim.recovered_of sys 0);
  let m = Sim.metrics sys in
  (* two broadcasts attempt 2*(n-1) = 6 sends; 2 escape *)
  Alcotest.(check int) "dropped the rest" 4 m.Sim.dropped;
  Alcotest.(check int) "delivered what entered" 2 m.Sim.delivered

(* A receive budget kills at the delivery that exhausts it, and the
   queue drains as dead letters (counted, never handled). *)
let crash_dead_letters scheduler () =
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
  let sys = create ~scheduler ~crash ~n ~make () in
  Sim.run sys;
  Alcotest.(check int)
    (Scheduler.name scheduler ^ ": budget includes the killing delivery") 1
    !handled;
  Alcotest.(check int) "receives observed" 1 (Sim.receives_of sys 2);
  Alcotest.(check bool) "crashed" true (Sim.crashed sys 2);
  let m = Sim.metrics sys in
  Alcotest.(check int) "queued messages dead-lettered" 2
    m.Sim.dead_lettered

(* Crash-recovery: [on_crash] fires synchronously at the trigger
   with the plan's disk-prefix choice, [on_recover] fires at revival
   with a live endpoint (its sends really enter channels), and the
   observation surface flips [crashed] back off. *)
let recover_hooks scheduler () =
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
    Alcotest.(check int)
      (Scheduler.name scheduler ^ ": crash hook names the crasher") 1 i;
    crash_keep := keep
  in
  let on_recover (ep : _ Transport.ep) =
    Alcotest.(check int) "revived endpoint identity" 1 ep.Transport.me;
    ep.Transport.broadcast `Rejoin
  in
  let sys = create ~scheduler ~on_crash ~on_recover ~crash ~n ~make () in
  Sim.run sys;
  Alcotest.(check int) "disk-prefix keep passed through" 7 !crash_keep;
  Alcotest.(check bool) "recovered" true (Sim.recovered_of sys 1);
  Alcotest.(check bool) "alive again" false (Sim.crashed sys 1);
  Alcotest.(check int) "rejoin broadcast reached everyone" (n - 1)
    !rejoin_delivered;
  Alcotest.(check int) "one revival counted" 1
    (Sim.metrics sys).Sim.recoveries

(* Ping-pong forever: [run ~max_steps] is the liveness-bug guard. *)
let step_limit scheduler () =
  let make _ =
    { Transport.on_start =
        (fun ep -> ep.Transport.send (1 - ep.Transport.me) ());
      on_receive = (fun ep ~src () -> ep.Transport.send src ()) }
  in
  let sys = create ~scheduler ~n:2 ~make () in
  Alcotest.check_raises (Scheduler.name scheduler ^ ": step limit raises")
    Sim.Step_limit_exceeded (fun () -> Sim.run ~max_steps:50 sys)

(* Pumping with [step]: nothing is started before the first step, a
   pending revival keeps the system from quiescence after the last
   message is gone, every message is delivered, and quiescence is
   final. *)
let stepwise_pumping scheduler () =
  let n = 3 in
  let crash = Array.make n Crash.Never in
  crash.(2) <-
    Crash.Crash_recover { trigger = Crash.Sends 0; delay = 1000; keep = 0 };
  let delivered = ref 0 in
  let make _ =
    { Transport.on_start = (fun ep -> ep.Transport.broadcast ());
      on_receive = (fun _ ~src:_ () -> incr delivered) }
  in
  let on_recover (ep : _ Transport.ep) = ep.Transport.broadcast () in
  let sys = create ~on_recover ~crash ~scheduler ~n ~make () in
  Alcotest.(check bool)
    (Scheduler.name scheduler ^ ": not quiescent before start") false
    (Sim.quiescent sys);
  while Sim.step sys do
    if not (Sim.recovered_of sys 2) then
      Alcotest.(check bool) "not quiescent while a revival is pending" false
        (Sim.quiescent sys)
  done;
  (* 0 and 1 each reach the other (2 is down, its copies dead-letter),
     then 2 revives and reaches both *)
  Alcotest.(check int) "all messages pumped" 4 !delivered;
  Alcotest.(check bool) "revived" true (Sim.recovered_of sys 2);
  Alcotest.(check bool) "quiescent at the end" true (Sim.quiescent sys);
  Alcotest.(check bool) "step stays false at quiescence" false
    (Sim.step sys);
  Alcotest.(check bool) "and again" false (Sim.step sys);
  let m = Sim.metrics sys in
  Alcotest.(check int) "one step per delivery or dead letter"
    (m.Sim.delivered + m.Sim.dead_lettered) m.Sim.steps

(* Two processes crash at start with the same revival delay, longer
   than the run: the revivals wait until nothing is in flight, and the
   tie goes to the higher pid. Transcripts depend on this order. *)
let equal_delay_revivals scheduler () =
  let n = 4 in
  let crash = Array.make n Crash.Never in
  let at_start =
    Crash.Crash_recover { trigger = Crash.Sends 0; delay = 1000; keep = 0 }
  in
  crash.(1) <- at_start;
  crash.(2) <- at_start;
  let make _ =
    { Transport.on_start = (fun ep -> ep.Transport.broadcast ());
      on_receive = (fun _ ~src:_ () -> ()) }
  in
  let trace = Obs.Trace.create () in
  let sys = create ~trace ~crash ~scheduler ~n ~make () in
  Sim.run sys;
  let revivals =
    List.filter_map
      (function Obs.Trace.Recover { pid; _ } -> Some pid | _ -> None)
      (Obs.Trace.events trace)
  in
  Alcotest.(check (list int))
    (Scheduler.name scheduler ^ ": the higher pid revives first") [ 2; 1 ]
    revivals

(* The cases that hold under any fair scheduler. *)
let order_free =
  [ ("exactly-once FIFO", exactly_once_fifo);
    ("crash drops sends", crash_drops_sends);
    ("crash dead-letters queue", crash_dead_letters);
    ("recover hooks", recover_hooks);
    ("step limit", step_limit);
    ("step pumps to quiescence", stepwise_pumping);
    ("equal-delay revivals, higher pid first", equal_delay_revivals) ]

(* Broadcast rotation reads the recipients' order off fifo's schedule. *)
let fifo_order = [ ("broadcast rotation", broadcast_rotation) ]

let conformance =
  List.concat_map
    (fun (scheduler, cases) ->
       List.map
         (fun (case, f) ->
            Alcotest.test_case
              (Scheduler.name scheduler ^ " " ^ case)
              `Quick (f scheduler))
         cases)
    [ (Scheduler.fifo, order_free @ fifo_order);
      (fifo_scan, order_free @ fifo_order);
      (Scheduler.random_uniform, order_free) ]

(* --- the global queue ≡ per-channel scan, down to the trace bytes ---- *)

(* The same handlers and crash plans produce byte-identical transport
   transcripts from the global queue and from fifo's pick over
   per-channel queues: the equivalence the daemon's O(1) queue rests
   on. *)
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
  let transcript scheduler =
    let trace = Obs.Trace.create () in
    let sys =
      create ~trace ~on_recover ~crash:(crash ()) ~scheduler ~n ~make ()
    in
    Sim.run sys;
    Alcotest.(check bool)
      (Scheduler.name scheduler ^ ": process 3 recovered") true
      (Sim.recovered_of sys 3);
    Obs.Trace.to_jsonl trace
  in
  Alcotest.(check string) "transcripts byte-identical"
    (transcript fifo_scan) (transcript Scheduler.fifo)

(* A broadcast storm with a crash-recover plan, under [random]: the
   transcript of a [step] loop is the transcript of [run]. *)
let step_matches_run () =
  let n = 5 in
  let crash = Array.make n Crash.Never in
  crash.(2) <-
    Crash.Crash_recover { trigger = Crash.Receives 4; delay = 6; keep = 0 };
  let make _ =
    { Transport.on_start = (fun ep -> ep.Transport.broadcast 0);
      on_receive =
        (fun ep ~src:_ gen ->
           if gen < 2 then ep.Transport.broadcast (gen + 1)) }
  in
  let on_recover (ep : _ Transport.ep) = ep.Transport.broadcast 9 in
  let transcript drive =
    let trace = Obs.Trace.create () in
    let sys =
      Sim.create ~trace ~on_recover ~n ~seed:17
        ~scheduler:Scheduler.random_uniform ~crash ~make ()
    in
    drive sys;
    Alcotest.(check bool) "process 2 recovered" true (Sim.recovered_of sys 2);
    Obs.Trace.to_jsonl trace
  in
  Alcotest.(check string) "step loop = run"
    (transcript (fun sys -> Sim.run sys))
    (transcript (fun sys -> while Sim.step sys do () done))

(* [fifo] with a non-empty prefix waits per channel, so the prefix is
   honoured: a schedule recorded under [random] replays under [fifo]
   (the fuzz shrinker's case), and differs from fifo's own. *)
let fifo_replays_prefix () =
  let n = 4 in
  let make _ =
    { Transport.on_start = (fun ep -> ep.Transport.broadcast 0);
      on_receive =
        (fun ep ~src:_ gen ->
           if gen < 1 then ep.Transport.broadcast (gen + 1)) }
  in
  let transcript ?prefix scheduler =
    let trace = Obs.Trace.create () in
    Sim.run
      (Sim.create ~trace ?prefix ~n ~seed:5 ~scheduler
         ~crash:(Array.make n Crash.Never) ~make ());
    trace
  in
  let recorded = transcript Scheduler.random_uniform in
  let replayed =
    transcript ~prefix:(Obs.Trace.schedule recorded) Scheduler.fifo
  in
  Alcotest.(check string) "fifo replays the recorded schedule"
    (Obs.Trace.to_jsonl recorded) (Obs.Trace.to_jsonl replayed);
  Alcotest.(check bool) "which is not fifo's own" false
    (Obs.Trace.to_jsonl recorded
     = Obs.Trace.to_jsonl (transcript Scheduler.fifo))

(* --- executions: the global queue against the per-channel oracle ----- *)

(* Fuzz-generator scenarios re-pinned to fifo, run by the executor on
   the global queue and on the per-channel oracle. Decisions, metrics
   and transcripts must agree exactly. *)
let differential () =
  let corpus =
    List.concat_map
      (fun seed -> List.map (fun trial -> (seed, trial)) [ 0; 1; 2 ])
      [ 11; 12; 13; 14 ]
  in
  List.iter
    (fun (seed, trial) ->
       let s = Fuzz.Gen.scenario Fuzz.Gen.default_space ~seed ~trial in
       let label = Printf.sprintf "seed %d trial %d" seed trial in
       let run scheduler =
         let trace = Obs.Trace.create () in
         let r =
           (Chc.Executor.run ~trace
              { s with Chc.Scenario.scheduler; prefix = []; kernel = None })
             .Chc.Executor.result
         in
         (r, Obs.Trace.to_jsonl trace)
       in
       let global, global_trace = run Scheduler.fifo in
       let scan, scan_trace = run fifo_scan in
       Alcotest.(check string)
         (label ^ ": traces byte-identical") scan_trace global_trace;
       Alcotest.(check bool) (label ^ ": same metrics") true
         (scan.Chc.Cc.metrics = global.Chc.Cc.metrics);
       Array.iteri
         (fun i expect ->
            match (expect, global.Chc.Cc.outputs.(i)) with
            | None, None -> ()
            | Some a, Some b ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: process %d same decision" label i)
                true (Polytope.equal a b)
            | Some _, None ->
              Alcotest.failf "%s: process %d decided only per channel" label i
            | None, Some _ ->
              Alcotest.failf "%s: process %d decided only on the global queue"
                label i)
         scan.Chc.Cc.outputs)
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
      conformance
      @ [ Alcotest.test_case "global queue = per-channel scan traces" `Quick
            trace_equivalence;
          Alcotest.test_case "random: step loop = run" `Quick
            step_matches_run;
          Alcotest.test_case "fifo with a prefix replays it" `Quick
            fifo_replays_prefix;
          Alcotest.test_case "global queue vs per-channel executions" `Slow
            differential;
          Alcotest.test_case "shared CLI error format" `Quick
            cli_common_errors ] ) ]
