(* Tests for the deterministic asynchronous simulator: channel
   semantics (FIFO, exactly-once), crash budgets (including partial
   broadcasts), determinism, and scheduler fairness-in-the-limit. *)

module Sim = Runtime.Sim
module Transport = Runtime.Transport
module Rng = Runtime.Rng
module Crash = Runtime.Crash
module Scheduler = Runtime.Scheduler

let no_crash n = Array.make n Runtime.Crash.Never

(* --- rng ------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 43 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int (Rng.copy c) 1000000 <> Rng.int (Rng.copy a) 1000000 then
      differs := true;
    ignore (Rng.int c 10);
    ignore (Rng.int a 10)
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_shuffle () =
  let r = Rng.create 9 in
  let l = List.init 20 Fun.id in
  let s = Rng.shuffle r l in
  Alcotest.(check (list int)) "permutation" l (List.sort compare s)

(* --- sim: delivery semantics ---------------------------------------- *)

(* Process 0 sends k tagged messages to process 1; everyone else idle. *)
let test_fifo_exactly_once () =
  let received = ref [] in
  let sys =
    Sim.create ~n:3 ~seed:5 ~scheduler:Scheduler.random_uniform
      ~crash:(no_crash 3)
      ~make:(fun i ->
          { Transport.on_start =
              (fun ep ->
                 if i = 0 then
                   for k = 1 to 50 do ep.Transport.send 1 k done);
            on_receive =
              (fun _ep ~src msg ->
                 if src = 0 then received := msg :: !received) }) ()
  in
  Sim.run sys;
  Alcotest.(check (list int)) "FIFO order, exactly once"
    (List.init 50 (fun k -> k + 1))
    (List.rev !received)

let test_crash_budget_partial_broadcast () =
  (* n = 5; process 0 broadcasts with budget 2: exactly the first two
     recipients in rotating order (1 and 2) receive it. *)
  let got = Array.make 5 false in
  let crash = Array.make 5 Crash.Never in
  crash.(0) <- Crash.After_sends 2;
  let sys =
    Sim.create ~n:5 ~seed:1 ~scheduler:Scheduler.random_uniform ~crash
      ~make:(fun i ->
          { Transport.on_start =
              (fun ep -> if i = 0 then ep.Transport.broadcast 99);
            on_receive = (fun ep ~src:_ _msg -> got.(ep.Transport.me) <- true) }) ()
  in
  Sim.run sys;
  Alcotest.(check bool) "p1 got it" true got.(1);
  Alcotest.(check bool) "p2 got it" true got.(2);
  Alcotest.(check bool) "p3 missed it" false got.(3);
  Alcotest.(check bool) "p4 missed it" false got.(4);
  Alcotest.(check bool) "p0 crashed" true (Sim.crashed sys 0);
  let m = Sim.metrics sys in
  Alcotest.(check int) "sent" 2 m.Sim.sent;
  Alcotest.(check int) "dropped" 2 m.Sim.dropped

let test_crashed_receiver_is_dead () =
  (* Process 1 crashes before sending anything; deliveries to it are
     dead-lettered and its handler must not run. *)
  let ran = ref false in
  let crash = Array.make 2 Crash.Never in
  crash.(1) <- Crash.After_sends 0;
  let sys =
    Sim.create ~n:2 ~seed:3 ~scheduler:Scheduler.round_robin ~crash
      ~make:(fun i ->
          { Transport.on_start = (fun ep -> if i = 0 then ep.Transport.send 1 0);
            on_receive = (fun _ ~src:_ _ -> ran := true) }) ()
  in
  Sim.run sys;
  Alcotest.(check bool) "handler did not run" false !ran;
  Alcotest.(check int) "dead lettered" 1 (Sim.metrics sys).Sim.dead_lettered

let test_crash_recover_revival () =
  (* Process 1 crashes after 2 receives with a disk-prefix choice of 1,
     then revives: on_crash must see the plan's [keep], deliveries
     while down are dead-lettered, on_recover runs with a live context
     (its sends work), and the revival is visible in [recovered_of] and
     the metrics. *)
  let crash = Array.make 2 Crash.Never in
  crash.(1) <- Crash.Crash_recover { trigger = Crash.Receives 2; delay = 4; keep = 1 };
  let kept = ref (-1) in
  let revived_ctx_ran = ref false in
  let got_after_revival = ref 0 in
  let revived = ref false in
  let sys =
    Sim.create
      ~on_crash:(fun i ~keep -> if i = 1 then kept := keep)
      ~on_recover:(fun ep ->
          revived := true;
          revived_ctx_ran := ep.Transport.me = 1;
          (* a recovering process re-enters by sending *)
          ep.Transport.send 0 99)
      ~n:2 ~seed:3 ~scheduler:Scheduler.round_robin ~crash
      ~make:(fun i ->
          { Transport.on_start =
              (fun ep ->
                 if i = 0 then for k = 1 to 6 do ep.Transport.send 1 k done);
            on_receive =
              (fun ep ~src:_ msg ->
                 if ep.Transport.me = 1 && !revived then incr got_after_revival
                 else if ep.Transport.me = 0 && msg = 99 then
                   (* answer the rejoin *)
                   ep.Transport.send 1 100) }) ()
  in
  Sim.run sys;
  Alcotest.(check int) "on_crash saw the plan's keep" 1 !kept;
  Alcotest.(check bool) "on_recover ran for process 1" true !revived_ctx_ran;
  Alcotest.(check bool) "revival recorded" true (Sim.recovered_of sys 1);
  Alcotest.(check bool) "not counted as crashed anymore" false
    (Sim.crashed sys 1);
  Alcotest.(check int) "one revival in metrics" 1
    (Sim.metrics sys).Sim.recoveries;
  Alcotest.(check bool) "deliveries while down were dead-lettered" true
    ((Sim.metrics sys).Sim.dead_lettered > 0);
  Alcotest.(check bool) "process 1 receives again after revival" true
    (!got_after_revival > 0)

(* Ping-pong with a bounded count must quiesce. *)
let test_quiescence () =
  let sys =
    Sim.create ~n:2 ~seed:11 ~scheduler:Scheduler.lifo_bias
      ~crash:(no_crash 2)
      ~make:(fun i ->
          { Transport.on_start = (fun ep -> if i = 0 then ep.Transport.send 1 10);
            on_receive =
              (fun ep ~src k ->
                 if k > 0 then ep.Transport.send src (k - 1)) }) ()
  in
  Sim.run sys;
  Alcotest.(check int) "exactly 11 deliveries" 11 (Sim.metrics sys).Sim.delivered

let test_step_limit () =
  (* Infinite ping-pong must hit the step limit. *)
  let sys =
    Sim.create ~n:2 ~seed:11 ~scheduler:Scheduler.random_uniform
      ~crash:(no_crash 2)
      ~make:(fun i ->
          { Transport.on_start = (fun ep -> if i = 0 then ep.Transport.send 1 0);
            on_receive = (fun ep ~src _ -> ep.Transport.send src 0) }) ()
  in
  Alcotest.check_raises "limit" Sim.Step_limit_exceeded
    (fun () -> Sim.run ~max_steps:1000 sys)

(* Determinism: full broadcast storm; delivery log must be identical
   across runs with the same seed, and (generically) differ across
   seeds. *)
let delivery_log ~seed ~scheduler =
  let log = ref [] in
  let sys =
    Sim.create ~n:4 ~seed ~scheduler ~crash:(no_crash 4)
      ~make:(fun _ ->
          { Transport.on_start = (fun ep -> ep.Transport.broadcast 0);
            on_receive =
              (fun ep ~src k ->
                 log := (src, ep.Transport.me, k) :: !log;
                 if k < 2 then ep.Transport.broadcast (k + 1)) }) ()
  in
  Sim.run sys;
  List.rev !log

let test_determinism () =
  let l1 = delivery_log ~seed:123 ~scheduler:Scheduler.random_uniform in
  let l2 = delivery_log ~seed:123 ~scheduler:Scheduler.random_uniform in
  Alcotest.(check bool) "identical logs" true (l1 = l2);
  let l3 = delivery_log ~seed:124 ~scheduler:Scheduler.random_uniform in
  Alcotest.(check bool) "different seed differs" true (l1 <> l3)

let test_lag_scheduler_starves () =
  (* With Lag_sources [0], messages from 0 arrive only after all other
     traffic has drained: the last delivery must originate from 0. *)
  let last_src = ref (-1) in
  let sys =
    Sim.create ~n:3 ~seed:2 ~scheduler:(Scheduler.lag_sources [0])
      ~crash:(no_crash 3)
      ~make:(fun _ ->
          { Transport.on_start = (fun ep -> ep.Transport.broadcast 0);
            on_receive = (fun _ ~src _ -> last_src := src) }) ()
  in
  Sim.run sys;
  Alcotest.(check int) "lagged source delivered last" 0 !last_src

(* --- rounds ---------------------------------------------------------- *)

module Rounds = Protocol.Rounds

let test_rounds_freeze_first () =
  let r = Rounds.create ~threshold:2 in
  Rounds.add r ~round:1 ~src:0 "a";
  Alcotest.(check bool) "not ready" false (Rounds.ready r ~round:1);
  Rounds.add r ~round:1 ~src:1 "b";
  Alcotest.(check bool) "ready" true (Rounds.ready r ~round:1);
  let y = Rounds.freeze r ~round:1 in
  Rounds.add r ~round:1 ~src:2 "late";
  Alcotest.(check (list (pair int string))) "frozen multiset fixed"
    [(0, "a"); (1, "b")]
    (Rounds.freeze r ~round:1);
  Alcotest.(check int) "frozen size" 2 (List.length y)

let test_rounds_buffer_future () =
  let r = Rounds.create ~threshold:2 in
  Rounds.add r ~round:5 ~src:0 "early";
  Rounds.add r ~round:5 ~src:3 "early2";
  Alcotest.(check bool) "future round buffered and ready" true
    (Rounds.ready r ~round:5);
  Alcotest.(check int) "count" 2 (Rounds.count r ~round:5)

let test_rounds_duplicate () =
  let r = Rounds.create ~threshold:3 in
  Rounds.add r ~round:1 ~src:0 "x";
  Alcotest.check_raises "duplicate sender"
    (Invalid_argument "Rounds.add: duplicate (round, sender)")
    (fun () -> Rounds.add r ~round:1 ~src:0 "y")

let test_rounds_not_ready_freeze () =
  let r = Rounds.create ~threshold:2 in
  Rounds.add r ~round:1 ~src:0 "x";
  Alcotest.check_raises "freeze before ready"
    (Invalid_argument "Rounds.freeze: round not ready")
    (fun () -> ignore (Rounds.freeze r ~round:1))

(* Model test: random operation sequences, with rounds out of order
   and past the table's initial size, against an association-list
   model of the per-round arrival table. [Restore] swaps in the table
   rebuilt from [dump] mid-sequence; everything after it must behave
   as before. Rounds are touched by every operation but [mem], and
   [dump] lists exactly the touched rounds. *)
type rounds_op =
  | Add of int * int
  | Mem of int * int
  | Ready of int
  | Freeze of int
  | Count of int
  | Dump
  | Restore

let print_rounds_op = function
  | Add (r, s) -> Printf.sprintf "add r%d s%d" r s
  | Mem (r, s) -> Printf.sprintf "mem r%d s%d" r s
  | Ready r -> Printf.sprintf "ready r%d" r
  | Freeze r -> Printf.sprintf "freeze r%d" r
  | Count r -> Printf.sprintf "count r%d" r
  | Dump -> "dump"
  | Restore -> "restore"

let arb_rounds_ops =
  let open QCheck.Gen in
  let round = frequency [ (4, 0 -- 3); (1, 0 -- 40) ] in
  let src = 0 -- 5 in
  let op =
    frequency
      [ (6, map2 (fun r s -> Add (r, s)) round src);
        (2, map2 (fun r s -> Mem (r, s)) round src);
        (2, map (fun r -> Ready r) round);
        (2, map (fun r -> Freeze r) round);
        (1, map (fun r -> Count r) round);
        (1, return Dump);
        (1, return Restore) ]
  in
  QCheck.make
    ~print:(fun (threshold, ops) ->
        Printf.sprintf "threshold %d: %s" threshold
          (String.concat "; " (List.map print_rounds_op ops)))
    (pair (1 -- 4) (list_size (0 -- 60) op))

let rounds_match_model (threshold, ops) =
  let r = ref (Rounds.create ~threshold) in
  (* round -> (arrivals in arrival order, frozen) *)
  let model = ref [] in
  let touch round =
    match List.assoc_opt round !model with
    | Some s -> s
    | None ->
      model := (round, ([], false)) :: !model;
      ([], false)
  in
  let set round s = model := (round, s) :: List.remove_assoc round !model in
  let first l = List.filteri (fun i _ -> i < threshold) l in
  let rejects f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  List.for_all
    (function
      | Add (round, src) ->
        let arrivals, frozen = touch round in
        let dup = List.mem_assoc src arrivals in
        let payload = (100 * round) + src in
        if not dup then set round (arrivals @ [ (src, payload) ], frozen);
        rejects (fun () -> Rounds.add !r ~round ~src payload) = dup
      | Mem (round, src) ->
        Rounds.mem !r ~round ~src
        = (match List.assoc_opt round !model with
           | Some (arrivals, _) -> List.mem_assoc src arrivals
           | None -> false)
      | Ready round ->
        let arrivals, frozen = touch round in
        Rounds.ready !r ~round = (frozen || List.length arrivals >= threshold)
      | Freeze round ->
        let arrivals, frozen = touch round in
        if frozen || List.length arrivals >= threshold then begin
          set round (arrivals, true);
          Rounds.freeze !r ~round = first arrivals
        end
        else rejects (fun () -> Rounds.freeze !r ~round)
      | Count round ->
        let arrivals, frozen = touch round in
        Rounds.count !r ~round
        = (if frozen then threshold else List.length arrivals)
      | Dump ->
        Rounds.dump !r
        = List.sort compare
            (List.map (fun (round, (a, f)) -> (round, a, f)) !model)
      | Restore ->
        r := Rounds.restore ~threshold (Rounds.dump !r);
        true)
    ops

let test_rounds_negative () =
  let r = Rounds.create ~threshold:1 in
  Alcotest.(check bool) "mem of a negative round" false
    (Rounds.mem r ~round:(-1) ~src:0);
  Alcotest.check_raises "add to a negative round"
    (Invalid_argument "Rounds: negative round")
    (fun () -> Rounds.add r ~round:(-1) ~src:0 "x")

let suite =
  [ ( "rng",
      [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "shuffle" `Quick test_rng_shuffle ] );
    ( "sim",
      [ Alcotest.test_case "fifo exactly-once" `Quick test_fifo_exactly_once;
        Alcotest.test_case "partial broadcast crash" `Quick
          test_crash_budget_partial_broadcast;
        Alcotest.test_case "crashed receiver" `Quick test_crashed_receiver_is_dead;
        Alcotest.test_case "crash-recover revival" `Quick
          test_crash_recover_revival;
        Alcotest.test_case "quiescence" `Quick test_quiescence;
        Alcotest.test_case "step limit" `Quick test_step_limit;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "lag scheduler" `Quick test_lag_scheduler_starves ] );
    ( "rounds",
      [ Alcotest.test_case "freeze first threshold" `Quick test_rounds_freeze_first;
        Alcotest.test_case "buffer future rounds" `Quick test_rounds_buffer_future;
        Alcotest.test_case "duplicate rejected" `Quick test_rounds_duplicate;
        Alcotest.test_case "freeze requires ready" `Quick test_rounds_not_ready_freeze;
        Gen.qtest
          (Gen.prop ~count:500 "matches the assoc-list model" arb_rounds_ops
             rounds_match_model);
        Alcotest.test_case "negative rounds" `Quick test_rounds_negative ] ) ]
