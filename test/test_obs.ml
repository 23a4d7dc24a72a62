(* Tests for the observability layer (lib/obs) and the bugfixes it
   surfaced: trace determinism across pool sizes, trace/metrics
   consistency, the Step_limit_exceeded path, validated CLI parsing,
   memo lifetime counters and pool utilization stats. *)

module Pool = Parallel.Pool
module Memo = Parallel.Memo
module Q = Numeric.Q
module Sim = Runtime.Sim
module Crash = Runtime.Crash
module Trace = Obs.Trace
module Executor = Chc.Executor
module Cc = Chc.Cc
module Cli = Chc.Cli

let with_pool_size size f =
  let saved = Pool.global_size () in
  Pool.set_global_size size;
  Fun.protect ~finally:(fun () -> Pool.set_global_size saved) f

(* ------------------------------------------------------------------ *)
(* Trace determinism: same spec, same seed ⇒ byte-identical JSONL
   whatever the pool size. This is the acceptance criterion behind the
   [chc_sim trace] subcommand. *)

let traced_jsonl ~size spec =
  with_pool_size size (fun () ->
      let trace = Trace.create () in
      ignore
        (Cc.execute ~trace ~round0:spec.Executor.round0
           ~config:spec.Executor.config ~inputs:spec.Executor.inputs
           ~crash:spec.Executor.crash ~scheduler:spec.Executor.scheduler
           ~seed:spec.Executor.seed ());
      Trace.to_jsonl trace)

let test_trace_pool_invariant () =
  let config =
    Chc.Config.make ~n:5 ~f:1 ~d:2 ~eps:(Q.of_ints 1 4) ~lo:Q.zero ~hi:Q.one
  in
  List.iter
    (fun seed ->
       let spec = Executor.default_spec ~config ~seed () in
       let t1 = traced_jsonl ~size:1 spec in
       Alcotest.(check bool) "trace is non-empty" true
         (String.length t1 > 0);
       Alcotest.(check string) "1-domain and 4-domain traces identical" t1
         (traced_jsonl ~size:4 spec))
    [3; 17]

(* ------------------------------------------------------------------ *)
(* Trace/metrics consistency: the event counts in the transcript must
   agree with the simulator's own counters, and protocol milestones
   must match the graded outcome. *)

let count p trace = List.length (List.filter p (Trace.events trace))

let test_trace_consistency () =
  let config =
    Chc.Config.make ~n:5 ~f:1 ~d:2 ~eps:(Q.of_ints 1 4) ~lo:Q.zero ~hi:Q.one
  in
  let spec = Executor.default_spec ~config ~seed:11 () in
  let trace = Trace.create () in
  let r = Executor.run ~trace spec in
  let m = r.Executor.result.Cc.metrics in
  let is_send = function Trace.Send _ -> true | _ -> false in
  let is_deliver = function Trace.Deliver _ -> true | _ -> false in
  let is_dead = function Trace.Dead_letter _ -> true | _ -> false in
  let is_drop = function Trace.Drop _ -> true | _ -> false in
  let is_decide = function Trace.Decide _ -> true | _ -> false in
  let is_round0 = function
    | Trace.Round_enter { round = 0; _ } -> true
    | _ -> false
  in
  Alcotest.(check int) "Send events = metrics.sent" m.Sim.sent
    (count is_send trace);
  Alcotest.(check int) "Deliver events = metrics.delivered" m.Sim.delivered
    (count is_deliver trace);
  Alcotest.(check int) "Dead_letter events = metrics.dead_lettered"
    m.Sim.dead_lettered (count is_dead trace);
  Alcotest.(check int) "Drop events = metrics.dropped" m.Sim.dropped
    (count is_drop trace);
  let decided =
    Array.fold_left
      (fun acc o -> if Option.is_some o then acc + 1 else acc)
      0 r.Executor.result.Cc.outputs
  in
  Alcotest.(check int) "Decide events = decided processes" decided
    (count is_decide trace);
  Alcotest.(check bool) "some process entered round 0" true
    (count is_round0 trace > 0);
  Alcotest.(check bool) "some stable-vector view stabilized" true
    (count (function Trace.Stable _ -> true | _ -> false) trace > 0)

(* ------------------------------------------------------------------ *)
(* Step_limit_exceeded: an infinite ping-pong must hit the limit, and
   the trace must show exactly [max_steps] delivery decisions. *)

let test_step_limit () =
  let trace = Trace.create () in
  let sim =
    Sim.create ~trace ~n:2 ~seed:1 ~scheduler:Runtime.Scheduler.round_robin
      ~crash:[| Crash.Never; Crash.Never |]
      ~make:(fun _ ->
          { Runtime.Transport.on_start =
              (fun ep ->
                 ep.Runtime.Transport.send (1 - ep.Runtime.Transport.me) ());
            on_receive =
              (fun ep ~src () -> ep.Runtime.Transport.send src ()) })
      ()
  in
  Alcotest.check_raises "ping-pong exceeds the step limit"
    Sim.Step_limit_exceeded
    (fun () -> Sim.run ~max_steps:100 sim);
  Alcotest.(check int) "exactly max_steps Deliver events" 100
    (count (function Trace.Deliver _ -> true | _ -> false) trace);
  Alcotest.(check int) "metrics agree" 100 (Sim.metrics sim).Sim.delivered

(* ------------------------------------------------------------------ *)
(* CLI parsing regressions (satellite bugfix: bare [int_of_string]
   used to escape as a raw Failure backtrace). *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let ids = Alcotest.(result (list int) string)

let test_parse_ids () =
  Alcotest.check ids "valid list" (Ok [2; 4]) (Cli.parse_ids ~n:7 ~f:2 " 2, 4 ");
  Alcotest.check ids "dedup" (Ok [3]) (Cli.parse_ids ~n:7 ~f:2 "3,3");
  Alcotest.check ids "empty string is the empty set" (Ok [])
    (Cli.parse_ids ~n:7 ~f:2 "");
  (match Cli.parse_ids ~n:7 ~f:2 "0,x" with
   | Error msg ->
     Alcotest.(check bool) "error names the bad token" true
       (contains ~sub:"\"x\"" msg)
   | Ok _ -> Alcotest.fail "malformed id accepted");
  (match Cli.parse_ids ~n:7 ~f:2 "7" with
   | Error msg ->
     Alcotest.(check bool) "out-of-range error names the range" true
       (contains ~sub:"0..6" msg)
   | Ok _ -> Alcotest.fail "out-of-range id accepted");
  (match Cli.parse_ids ~n:7 ~f:2 "-1" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "negative id accepted");
  (match Cli.parse_ids ~n:7 ~f:2 "0,1,2" with
   | Error msg ->
     Alcotest.(check bool) "too many ids: error names f" true
       (contains ~sub:"f = 2" msg)
   | Ok _ -> Alcotest.fail "more than f ids accepted")

let test_parse_q_and_inputs () =
  (match Cli.parse_q "--eps" "1/10" with
   | Ok q -> Alcotest.(check bool) "rational parses" true (Q.equal q (Q.of_ints 1 10))
   | Error e -> Alcotest.fail e);
  (match Cli.parse_q "--eps" "0.25" with
   | Ok q -> Alcotest.(check bool) "decimal parses" true (Q.equal q (Q.of_ints 1 4))
   | Error e -> Alcotest.fail e);
  (match Cli.parse_q "--eps" "nope" with
   | Error msg ->
     Alcotest.(check bool) "error names the option" true
       (contains ~sub:"--eps" msg)
   | Ok _ -> Alcotest.fail "garbage rational accepted");
  (match Cli.parse_inputs ~n:2 ~d:2 "0,0;1,1" with
   | Ok pts -> Alcotest.(check int) "two points" 2 (Array.length pts)
   | Error e -> Alcotest.fail e);
  (match Cli.parse_inputs ~n:3 ~d:2 "0,0;1,1" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "wrong point count accepted");
  (match Cli.parse_inputs ~n:1 ~d:3 "0,0" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "wrong dimension accepted")

(* ------------------------------------------------------------------ *)
(* Memo counters (satellite bugfix: [clear] used to zero the lifetime
   hit/miss counters, so every epoch flush lied about the hit rate). *)

let test_memo_lifetime_stats () =
  let calls = ref 0 in
  let tbl =
    Memo.create ~name:"test-obs-memo" ~max_size:4 ~hash:Hashtbl.hash
      ~equal:Int.equal ()
  in
  let get k = Memo.find_or_add tbl k (fun () -> incr calls; k * 2) in
  Alcotest.(check int) "miss computes" 2 (get 1);
  Alcotest.(check int) "hit returns cached" 2 (get 1);
  let s = Memo.stats tbl in
  Alcotest.(check int) "one hit" 1 s.Memo.hits;
  Alcotest.(check int) "one miss" 1 s.Memo.misses;
  Alcotest.(check int) "one resident entry" 1 s.Memo.entries;
  Memo.clear tbl;
  let s = Memo.stats tbl in
  Alcotest.(check int) "hits survive clear" 1 s.Memo.hits;
  Alcotest.(check int) "misses survive clear" 1 s.Memo.misses;
  Alcotest.(check int) "clear evicts the resident entry" 1 s.Memo.evictions;
  Alcotest.(check int) "no resident entries after clear" 0 s.Memo.entries;
  (* Overflow the 4-entry bound: epoch flush evicts wholesale. *)
  List.iter (fun k -> ignore (get k)) [10; 11; 12; 13; 14];
  let s = Memo.stats tbl in
  Alcotest.(check bool) "epoch flush counted as evictions" true
    (s.Memo.evictions > 1);
  Alcotest.(check bool) "table stays bounded" true (s.Memo.entries <= 4);
  Alcotest.(check bool) "named table appears in the registry" true
    (List.mem_assoc "test-obs-memo" (Memo.all_stats ()))

(* ------------------------------------------------------------------ *)
(* Pool sizing (satellite bugfix: invalid CHC_DOMAINS used to fall
   back silently) and utilization counters. *)

let psize = Alcotest.(result int string)

let test_pool_parse_size () =
  Alcotest.check psize "plain" (Ok 4) (Pool.parse_size "4");
  Alcotest.check psize "whitespace tolerated" (Ok 8) (Pool.parse_size " 8 ");
  Alcotest.check psize "clamped to 64" (Ok 64) (Pool.parse_size "100");
  (match Pool.parse_size "0" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "zero accepted");
  (match Pool.parse_size "-3" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "negative accepted");
  (match Pool.parse_size "abc" with
   | Error msg ->
     Alcotest.(check bool) "error names the value" true
       (contains ~sub:"abc" msg)
   | Ok _ -> Alcotest.fail "garbage accepted")

let test_pool_stats () =
  Pool.with_pool ~size:2 (fun pool ->
      let s0 = Pool.stats pool in
      Alcotest.(check int) "fresh pool ran nothing" 0 s0.Pool.tasks_run;
      ignore (Pool.parallel_map pool (fun x -> x + 1) [1; 2; 3; 4]);
      let s = Pool.stats pool in
      Alcotest.(check int) "pool size reported" 2 s.Pool.pool_size;
      Alcotest.(check int) "four tasks dispatched" 4 s.Pool.tasks_run;
      Alcotest.(check int) "one batch" 1 s.Pool.batches);
  (* Size-1 pools sequentialize and bypass the queue entirely. *)
  Pool.with_pool ~size:1 (fun seq ->
      ignore (Pool.parallel_map seq (fun x -> x + 1) [1; 2; 3]);
      Alcotest.(check int) "sequential pool dispatches nothing" 0
        (Pool.stats seq).Pool.tasks_run)

(* ------------------------------------------------------------------ *)
(* Span profiler: nesting, exception safety, balanced export. *)

let with_profiler f =
  Obs.Prof.reset ();
  Obs.Prof.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
        Obs.Prof.set_enabled false;
        Obs.Prof.reset ())
    f

let test_span_nesting () =
  with_profiler (fun () ->
      Obs.Prof.with_span "outer" (fun () ->
          Obs.Prof.with_span "inner" (fun () -> ()));
      (* an exception must still close the span *)
      (try
         Obs.Prof.with_span "boom" (fun () -> raise Exit)
       with Exit -> ());
      Alcotest.(check int) "three completed spans" 3 (Obs.Prof.span_count ());
      let evs = Obs.Prof.events () in
      let names =
        List.filter_map
          (fun (e : Obs.Prof.event) ->
             match e.Obs.Prof.phase with
             | `B -> Some e.Obs.Prof.name
             | `E | `X _ -> None)
          evs
      in
      Alcotest.(check (list string)) "stack order within the domain"
        [ "outer"; "inner"; "boom" ] names;
      (* depth never negative, ends at zero *)
      let final =
        List.fold_left
          (fun d (e : Obs.Prof.event) ->
             let d =
               d + (match e.Obs.Prof.phase with `B -> 1 | `E -> -1 | `X _ -> 0)
             in
             Alcotest.(check bool) "depth never negative" true (d >= 0);
             d)
          0 evs
      in
      Alcotest.(check int) "all spans closed" 0 final;
      (* timestamps non-decreasing in recording order *)
      ignore
        (List.fold_left
           (fun prev (e : Obs.Prof.event) ->
              Alcotest.(check bool) "monotone timestamps" true
                (Int64.compare e.Obs.Prof.ts_ns prev >= 0);
              e.Obs.Prof.ts_ns)
           Int64.min_int evs);
      let summary = Obs.Prof.summary () in
      List.iter
        (fun name ->
           match List.assoc_opt name summary with
           | None -> Alcotest.failf "span %S missing from summary" name
           | Some (s : Obs.Prof.stat) ->
             Alcotest.(check int) (name ^ " called once") 1 s.Obs.Prof.calls;
             Alcotest.(check bool) (name ^ " max >= p50") true
               (s.Obs.Prof.max_ns >= s.Obs.Prof.p50_ns))
        [ "outer"; "inner"; "boom" ])

let test_span_disabled_records_nothing () =
  Obs.Prof.reset ();
  Alcotest.(check bool) "profiler starts disabled" false (Obs.Prof.enabled ());
  Obs.Prof.with_span "ghost" (fun () -> ());
  Alcotest.(check int) "nothing recorded while disabled" 0
    (Obs.Prof.span_count ())

(* Perfetto/Chrome export. [ts] fields are fixed-format "%.3f" floats,
   which the deliberately exact Codec.Json rejects; deleting '.' chars
   outside string literals rescales them losslessly to integers (ns)
   without touching the dotted span names, so the strict parser can
   validate the document. *)
let strip_dots s =
  let b = Buffer.create (String.length s) in
  let in_string = ref false and escaped = ref false in
  String.iter
    (fun c ->
       let keep =
         if !in_string then begin
           (if !escaped then escaped := false
            else match c with
              | '\\' -> escaped := true
              | '"' -> in_string := false
              | _ -> ());
           true
         end
         else begin
           (match c with '"' -> in_string := true | _ -> ());
           c <> '.'
         end
       in
       if keep then Buffer.add_char b c)
    s;
  Buffer.contents b

let test_chrome_json_wellformed () =
  with_profiler (fun () ->
      Obs.Prof.with_span "a.dotted.name" ~attrs:[ ("k", "v\"q") ] (fun () ->
          Obs.Prof.with_span "leaf" (fun () -> ()));
      let json = Obs.Prof.to_chrome_json () in
      match Codec.Json.of_string (strip_dots json) with
      | Error e -> Alcotest.failf "chrome JSON does not parse: %s" e
      | Ok (Codec.Json.List evs) ->
        Alcotest.(check int) "B+E event count" (2 * Obs.Prof.span_count ())
          (List.length evs);
        List.iter
          (fun ev ->
             match Codec.Json.str_field "ph" ev with
             | Ok "B" ->
               Alcotest.(check bool) "B has a name" true
                 (Codec.Json.member "name" ev <> None);
               Alcotest.(check bool) "B has integer ts" true
                 (Result.is_ok (Codec.Json.int_field "ts" ev))
             | Ok "E" -> ()
             | Ok ph -> Alcotest.failf "unexpected phase %S" ph
             | Error e -> Alcotest.fail e)
          evs;
        Alcotest.(check bool) "dotted span name survives intact" true
          (contains ~sub:"a.dotted.name" json)
      | Ok _ -> Alcotest.fail "chrome JSON must be one event array")

(* ------------------------------------------------------------------ *)
(* Metrics registry: log-bucket histogram percentiles. *)

let test_histogram_percentiles () =
  let h = Obs.Metrics.histogram ~labels:[ ("t", "percentiles") ] "chc_test_obs" in
  List.iter
    (fun v -> Obs.Metrics.observe h (float_of_int v))
    (List.init 100 (fun i -> i + 1));
  let snap =
    List.find_opt
      (fun s -> s.Obs.Metrics.metric = "chc_test_obs")
      (Obs.Metrics.snapshot_all ())
  in
  match snap with
  | Some { Obs.Metrics.value = Obs.Metrics.Histogram st; _ } ->
    Alcotest.(check int) "count" 100 st.Obs.Metrics.count;
    Alcotest.(check (float 1e-6)) "sum exact" 5050.0 st.Obs.Metrics.sum;
    Alcotest.(check (float 1e-6)) "max exact" 100.0 st.Obs.Metrics.max_seen;
    (* estimates are bucket upper bounds: never below the exact
       percentile, at most one power-of-two above it *)
    Alcotest.(check bool) "p50 in [50, 64]" true
      (st.Obs.Metrics.p50 >= 50.0 && st.Obs.Metrics.p50 <= 64.0);
    Alcotest.(check bool) "p90 in [90, 100] (clamped to max)" true
      (st.Obs.Metrics.p90 >= 90.0 && st.Obs.Metrics.p90 <= 100.0);
    Alcotest.(check bool) "p99 in [99, 100] (clamped to max)" true
      (st.Obs.Metrics.p99 >= 99.0 && st.Obs.Metrics.p99 <= 100.0);
    (* the exposed recomputation hook agrees with the snapshot *)
    List.iter
      (fun (q, v) ->
         Alcotest.(check (float 1e-6))
           (Printf.sprintf "percentile_of_stats %.2f" q)
           v
           (Obs.Metrics.percentile_of_stats st q))
      [ (0.5, st.Obs.Metrics.p50); (0.9, st.Obs.Metrics.p90);
        (0.99, st.Obs.Metrics.p99) ]
  | Some _ -> Alcotest.fail "chc_test_obs is not a histogram"
  | None -> Alcotest.fail "chc_test_obs missing from snapshot_all"

(* ------------------------------------------------------------------ *)
(* Causal analysis. *)

(* Synthetic trace with a dead letter: causal reconstruction must keep
   the chain intact while still charging the dead-lettered delivery a
   scheduler step — the schedule replays with full fidelity. *)
let test_causal_dead_letter () =
  let trace = Trace.create () in
  List.iter (Trace.emit trace)
    [ Trace.Send { src = 0; dst = 1; seq = 0 };
      Trace.Send { src = 0; dst = 2; seq = 1 };
      Trace.Deliver { step = 1; src = 0; dst = 1; seq = 0 };
      Trace.Send { src = 1; dst = 0; seq = 2 };
      Trace.Crash { pid = 2; sends = 0 };
      Trace.Dead_letter { step = 2; src = 0; dst = 2; seq = 1 };
      Trace.Deliver { step = 3; src = 1; dst = 0; seq = 2 };
      Trace.Decide { pid = 0; round = 1; vertices = 1 } ];
  Alcotest.(check (list (pair int int)))
    "dead letter consumes a replayable scheduler decision"
    [ (0, 1); (0, 2); (1, 0) ]
    (Trace.schedule trace);
  let c = Obs.Causal.analyze ~n:3 trace in
  Alcotest.(check int) "total steps count the dead letter" 3
    c.Obs.Causal.total_steps;
  let p0 = c.Obs.Causal.processes.(0) in
  Alcotest.(check (option int)) "decide step" (Some 3) p0.Obs.Causal.decide_step;
  Alcotest.(check int) "two-hop critical chain" 2 (Obs.Causal.chain_length p0);
  (match p0.Obs.Causal.chain with
   | [ h1; h2 ] ->
     Alcotest.(check int) "first hop is the on_start send" 0 h1.Obs.Causal.seq;
     Alcotest.(check int) "first hop delivered at step 1" 1
       h1.Obs.Causal.deliver_step;
     Alcotest.(check int) "second hop is the triggered send" 2
       h2.Obs.Causal.seq;
     Alcotest.(check int) "second hop delivered at step 3" 3
       h2.Obs.Causal.deliver_step
   | _ -> Alcotest.fail "unexpected chain shape");
  Alcotest.(check int) "dead-lettered message gates nothing" 0
    (Obs.Causal.chain_length c.Obs.Causal.processes.(2));
  Alcotest.(check int) "max chain over decided processes" 2
    (Obs.Causal.max_chain_length c)

(* Schedule replay fidelity on a run that dead-letters: feeding a
   recorded schedule back as the Sim prefix must reproduce the trace
   byte-for-byte, which only works if [Trace.schedule] charges
   dead-lettered deliveries a decision like live ones. *)
let test_dead_letter_replay () =
  let config =
    Chc.Config.make ~n:5 ~f:1 ~d:2 ~eps:(Q.of_ints 1 4) ~lo:Q.zero ~hi:Q.one
  in
  let spec = Executor.default_spec ~config ~seed:7 ~ensure_crash:true () in
  let execute ?prefix ~scheduler trace =
    ignore
      (Cc.execute ~trace ?prefix ~round0:spec.Executor.round0
         ~config:spec.Executor.config ~inputs:spec.Executor.inputs
         ~crash:spec.Executor.crash ~scheduler ~seed:spec.Executor.seed ())
  in
  let recorded = Trace.create () in
  execute ~scheduler:spec.Executor.scheduler recorded;
  Alcotest.(check bool) "run contains dead letters" true
    (count (function Trace.Dead_letter _ -> true | _ -> false) recorded > 0);
  let replayed = Trace.create () in
  (* replay under a different fallback scheduler: the pinned prefix
     alone must force the recorded delivery order *)
  execute ~prefix:(Trace.schedule recorded)
    ~scheduler:Runtime.Scheduler.round_robin replayed;
  Alcotest.(check string) "prefix replay reproduces the trace byte-for-byte"
    (Trace.to_jsonl recorded) (Trace.to_jsonl replayed)

(* Critical-path output is a property of the schedule, so it must be
   byte-identical across pool sizes — the acceptance criterion behind
   [chc_sim trace --critical-path]. The crashing process makes the run
   exercise the dead-letter path on a real execution. *)
let test_critical_path_pool_invariant () =
  let config =
    Chc.Config.make ~n:5 ~f:1 ~d:2 ~eps:(Q.of_ints 1 4) ~lo:Q.zero ~hi:Q.one
  in
  let spec = Executor.default_spec ~config ~seed:7 ~ensure_crash:true () in
  let causal ~size =
    with_pool_size size (fun () ->
        let trace = Trace.create () in
        ignore (Executor.run ~trace spec);
        let c = Obs.Causal.analyze ~n:5 trace in
        (Obs.Causal.to_string c, Obs.Causal.to_json c))
  in
  let s1, j1 = causal ~size:1 in
  let s4, j4 = causal ~size:4 in
  Alcotest.(check string) "to_string identical across pool sizes" s1 s4;
  Alcotest.(check string) "to_json identical across pool sizes" j1 j4;
  Alcotest.(check bool) "analysis is non-trivial" true
    (String.length s1 > 100 && contains ~sub:"critical chain" s1)

(* ------------------------------------------------------------------ *)
(* Prof complete slices: per-job timelines recorded with explicit
   track ids; they export as ph:"X" under the dedicated track pid and
   never count as spans. *)

let test_prof_slices () =
  with_profiler (fun () ->
      Obs.Prof.with_span "host" (fun () -> ());
      Obs.Prof.slice ~track:42 ~ts_ns:1000L ~dur_ns:500L
        ~attrs:[ ("steps", "7") ] "pump";
      Obs.Prof.slice ~track:42 ~ts_ns:1500L ~dur_ns:250L "pump";
      Alcotest.(check int) "slices do not count as spans" 1
        (Obs.Prof.span_count ());
      let json = Obs.Prof.to_chrome_json () in
      Alcotest.(check bool) "X phase present" true
        (contains ~sub:{|"ph":"X"|} json);
      Alcotest.(check bool) "slices render under the track pid" true
        (contains ~sub:{|"pid":1000000,"tid":42|} json);
      Alcotest.(check bool) "explicit duration survives" true
        (contains ~sub:{|"dur":0.500|} json);
      (match Codec.Json.of_string (strip_dots json) with
       | Error e -> Alcotest.failf "chrome JSON with slices: %s" e
       | Ok _ -> ());
      match List.assoc_opt "pump" (Obs.Prof.summary ()) with
      | None -> Alcotest.fail "slice missing from summary"
      | Some s ->
        Alcotest.(check int) "both slices aggregated" 2 s.Obs.Prof.calls;
        Alcotest.(check (float 1e-6)) "summary uses explicit durations"
          750.0 s.Obs.Prof.total_ns)

(* ------------------------------------------------------------------ *)
(* Prometheus text-format grammar checker — the conformance pin for
   [Metrics.exposition]: families contiguous with exactly one TYPE
   (HELP, when present, immediately before it), histogram samples
   restricted to _bucket/_sum/_count with cumulative non-decreasing
   [le] buckets ending in a "+Inf" bucket that equals _count. *)

let is_metric_name s =
  s <> ""
  && (match s.[0] with '0' .. '9' -> false | _ -> true)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let sample_value_ok v =
  v = "+Inf" || v = "-Inf" || v = "NaN"
  || Option.is_some (float_of_string_opt v)

(* "name{l=\"v\",...} value" or "name value" ->
   (name, labels-with-braces, value) *)
let parse_sample line =
  match String.index_opt line '{' with
  | Some i ->
    (match String.rindex_opt line '}' with
     | Some j when j > i && j + 2 <= String.length line
                && line.[j + 1] = ' ' ->
       Ok
         ( String.sub line 0 i,
           String.sub line i (j - i + 1),
           String.sub line (j + 2) (String.length line - j - 2) )
     | _ -> Error "malformed labels")
  | None ->
    (match String.index_opt line ' ' with
     | Some i ->
       Ok
         ( String.sub line 0 i,
           "",
           String.sub line (i + 1) (String.length line - i - 1) )
     | None -> Error "no value")

let le_of labels =
  (* the le label as a float, and the label string without it *)
  let parts =
    match labels with
    | "" -> []
    | l -> String.split_on_char ','
             (String.sub l 1 (String.length l - 2))
  in
  let le, rest =
    List.partition
      (fun p -> String.length p >= 4 && String.sub p 0 4 = {|le="|})
      parts
  in
  match le with
  | [ p ] ->
    let v = String.sub p 4 (String.length p - 5) in
    let f =
      if v = "+Inf" then Some infinity else float_of_string_opt v
    in
    (f, String.concat "," rest)
  | _ -> (None, String.concat "," rest)

let check_exposition text =
  let err = ref None in
  let fail ln fmt =
    Printf.ksprintf
      (fun m ->
         if !err = None then err := Some (Printf.sprintf "line %d: %s" ln m))
      fmt
  in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let cur = ref None in              (* (family, type) *)
  let pending_help = ref None in
  (* histogram per-instance bucket state: base labels, last le, last
     cumulative count, +Inf totals per base *)
  let hstate = ref None in
  let inf_totals : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let handle_histogram ln fam name labels value =
    let suffix =
      let fl = String.length fam in
      if String.length name > fl && String.sub name 0 fl = fam then
        String.sub name fl (String.length name - fl)
      else ""
    in
    match suffix with
    | "_bucket" ->
      let le, base = le_of labels in
      (match (le, int_of_string_opt value) with
       | None, _ -> fail ln "bucket without le label"
       | _, None -> fail ln "bucket count is not an integer"
       | Some le, Some cum ->
         (match !hstate with
          | Some (b, last_le, last_cum) when b = base ->
            if le <= last_le then fail ln "le bounds not increasing";
            if cum < last_cum then fail ln "bucket counts not cumulative"
          | _ -> ());
         hstate := Some (base, le, cum);
         if le = infinity then Hashtbl.replace inf_totals base cum)
    | "_sum" ->
      if not (sample_value_ok value) then fail ln "unparseable _sum"
    | "_count" ->
      let _, base = le_of labels in
      (match (Hashtbl.find_opt inf_totals base, int_of_string_opt value) with
       | None, _ -> fail ln "_count without a +Inf bucket"
       | _, None -> fail ln "_count is not an integer"
       | Some inf, Some c ->
         if inf <> c then fail ln "+Inf bucket (%d) <> _count (%d)" inf c);
      hstate := None
    | _ -> fail ln "histogram sample %s has no valid suffix" name
  in
  List.iteri
    (fun i line ->
       let ln = i + 1 in
       if !err = None && line <> "" then begin
         if line.[0] = '#' then begin
           match String.split_on_char ' ' line with
           | "#" :: "HELP" :: name :: (_ :: _ as text)
             when is_metric_name name ->
             if Hashtbl.mem seen name then
               fail ln "HELP for already-rendered family %s" name;
             if String.concat " " text = "" then fail ln "empty HELP text";
             pending_help := Some name
           | "#" :: "TYPE" :: name :: [ ty ] when is_metric_name name ->
             if not (List.mem ty [ "counter"; "gauge"; "histogram" ]) then
               fail ln "unknown type %s" ty;
             if Hashtbl.mem seen name then
               fail ln "duplicate TYPE for family %s" name;
             (match !pending_help with
              | Some h when h <> name ->
                fail ln "HELP names %s but TYPE names %s" h name
              | _ -> ());
             pending_help := None;
             Hashtbl.add seen name ();
             cur := Some (name, ty);
             hstate := None;
             Hashtbl.reset inf_totals
           | _ -> fail ln "malformed comment %S" line
         end
         else begin
           if !pending_help <> None then
             fail ln "HELP not immediately followed by its TYPE";
           match parse_sample line with
           | Error m -> fail ln "%s" m
           | Ok (name, labels, value) ->
             if not (is_metric_name name) then
               fail ln "invalid metric name %S" name;
             (match !cur with
              | None -> fail ln "sample before any TYPE"
              | Some (fam, ("counter" | "gauge")) ->
                if name <> fam then
                  fail ln "sample %s outside family %s" name fam;
                if not (sample_value_ok value) then
                  fail ln "unparseable value %S" value
              | Some (fam, _) -> handle_histogram ln fam name labels value)
         end
       end)
    (String.split_on_char '\n' text);
  match !err with None -> Ok () | Some m -> Error m

let test_exposition_grammar () =
  let c =
    Obs.Metrics.counter ~help:"Grammar-checker test counter."
      ~labels:[ ("case", "grammar") ] "chc_test_grammar_total"
  in
  Obs.Metrics.add c 3;
  let g = Obs.Metrics.gauge ~help:"A test gauge." "chc_test_grammar_gauge" in
  Obs.Metrics.set g 2.5;
  let h =
    Obs.Metrics.histogram ~help:"A test histogram."
      ~labels:[ ("t", "grammar") ] "chc_test_grammar_seconds"
  in
  List.iter (Obs.Metrics.observe h) [ 0.001; 0.1; 0.1; 7.5; 1e6 ];
  let text = Obs.Metrics.exposition_all () in
  (* the checker itself must accept hand-built pathologies' absence *)
  (match check_exposition text with
   | Ok () -> ()
   | Error m -> Alcotest.failf "exposition violates the grammar: %s" m);
  (* HELP renders, escaped, immediately before its TYPE *)
  let help_line = "# HELP chc_test_grammar_total Grammar-checker test counter." in
  let type_line = "# TYPE chc_test_grammar_total counter" in
  Alcotest.(check bool) "HELP line present" true
    (contains ~sub:(help_line ^ "\n" ^ type_line) text);
  (* daemon families registered by lib/serve carry HELP too *)
  Alcotest.(check bool) "chc_serve family HELP present" true
    (contains ~sub:"# HELP chc_serve_instances_total" text);
  (* and the checker actually rejects broken documents *)
  List.iter
    (fun (label, doc) ->
       match check_exposition doc with
       | Ok () -> Alcotest.failf "checker accepted %s" label
       | Error _ -> ())
    [ ("sample before TYPE", "chc_x_total 1\n");
      ( "duplicate TYPE",
        "# TYPE chc_x_total counter\nchc_x_total 1\n\
         # TYPE chc_x_total counter\nchc_x_total 2\n" );
      ( "orphan HELP",
        "# HELP chc_x_total text\nchc_y 1\n" );
      ( "non-cumulative buckets",
        "# TYPE chc_h histogram\n\
         chc_h_bucket{le=\"1\"} 5\nchc_h_bucket{le=\"2\"} 3\n\
         chc_h_bucket{le=\"+Inf\"} 5\nchc_h_sum 1\nchc_h_count 5\n" );
      ( "count disagrees with +Inf",
        "# TYPE chc_h histogram\n\
         chc_h_bucket{le=\"1\"} 5\nchc_h_bucket{le=\"+Inf\"} 5\n\
         chc_h_sum 1\nchc_h_count 6\n" );
      ( "missing +Inf",
        "# TYPE chc_h histogram\n\
         chc_h_bucket{le=\"1\"} 5\nchc_h_sum 1\nchc_h_count 5\n" );
      ("bad value", "# TYPE chc_g gauge\nchc_g up\n") ]

(* ------------------------------------------------------------------ *)
(* Obs.Log: the structured JSONL logger. *)

let with_log_capture f =
  let lines = ref [] in
  Obs.Log.set_sink (Some (fun l -> lines := l :: !lines));
  Fun.protect
    ~finally:(fun () ->
        Obs.Log.set_level None;
        Obs.Log.flush ();
        Obs.Log.set_rate ~per_s:1000 ~burst:1000;
        Obs.Log.set_clock None;
        Obs.Log.set_sink None)
    (fun () -> f (fun () -> List.rev !lines))

let test_log_rate_limiter () =
  with_log_capture (fun captured ->
      let t = ref 0L in
      Obs.Log.set_clock (Some (fun () -> !t));
      Obs.Log.set_rate ~per_s:5 ~burst:5;
      Obs.Log.set_level (Some Obs.Log.Info);
      let d0 = Obs.Log.dropped () in
      for i = 1 to 8 do
        Obs.Log.info "burst" [ ("i", Obs.Log.I i) ]
      done;
      Alcotest.(check int) "burst of 5 passes, 3 dropped" 3
        (Obs.Log.dropped () - d0);
      Obs.Log.debug "below-level" [];
      Alcotest.(check int) "level gate runs before the bucket" 3
        (Obs.Log.dropped () - d0);
      (* one second refills the bucket *)
      t := 1_000_000_000L;
      for i = 1 to 3 do
        Obs.Log.info "later" [ ("i", Obs.Log.I i) ]
      done;
      Alcotest.(check int) "refilled tokens admit new lines" 3
        (Obs.Log.dropped () - d0);
      Obs.Log.flush ();
      let lines = captured () in
      Alcotest.(check int) "5 + 3 lines plus one drop summary" 9
        (List.length lines);
      (match lines with
       | first :: _ ->
         Alcotest.(check bool) "drop summary leads the flush" true
           (contains ~sub:{|"event":"log_dropped"|} first
            && contains ~sub:{|"count":3|} first)
       | [] -> Alcotest.fail "no lines captured"))

let test_log_jsonl_wellformed () =
  with_log_capture (fun captured ->
      Obs.Log.set_level (Some Obs.Log.Debug);
      Obs.Log.debug "kinds"
        [ ("int", Obs.Log.I (-42));
          ("str", Obs.Log.S "with \"quotes\", a \\ and a\nnewline");
          ("bool", Obs.Log.B true);
          ("float", Obs.Log.F 0.000123) ];
      Obs.Log.warn "empty-fields" [];
      Obs.Log.error "weird \"event\" name" [ ("x", Obs.Log.I 1) ];
      Obs.Log.flush ();
      let lines = captured () in
      Alcotest.(check int) "three lines" 3 (List.length lines);
      List.iter
        (fun line ->
           match Codec.Json.of_string line with
           | Error e -> Alcotest.failf "unparseable log line %S: %s" line e
           | Ok j ->
             Alcotest.(check bool) "ts_ns is an integer" true
               (Result.is_ok (Codec.Json.int_field "ts_ns" j));
             Alcotest.(check bool) "level is a string" true
               (Result.is_ok (Codec.Json.str_field "level" j));
             Alcotest.(check bool) "event is a string" true
               (Result.is_ok (Codec.Json.str_field "event" j)))
        lines;
      (* field kinds land with their JSON types (floats as strings) *)
      match Codec.Json.of_string (List.hd lines) with
      | Error e -> Alcotest.fail e
      | Ok j ->
        Alcotest.(check bool) "int field" true
          (Codec.Json.member "int" j = Some (Codec.Json.Int (-42)));
        Alcotest.(check bool) "bool field" true
          (Codec.Json.member "bool" j = Some (Codec.Json.Bool true));
        (match Codec.Json.member "float" j with
         | Some (Codec.Json.Str s) ->
           Alcotest.(check (float 1e-9)) "float survives as string" 0.000123
             (float_of_string s)
         | _ -> Alcotest.fail "float field must render as a string"))

(* Logging is observation only: with the level wide open and crashes
   in the run (exercising the Sim crash/recover log hooks), the
   execution transcript and grading must be byte-identical to a silent
   run, whatever the pool size. *)
let test_log_noninterference () =
  let config =
    Chc.Config.make ~n:5 ~f:1 ~d:2 ~eps:(Q.of_ints 1 4) ~lo:Q.zero ~hi:Q.one
  in
  let spec = Executor.default_spec ~config ~seed:7 ~ensure_crash:true () in
  let run ~size ~logging =
    with_pool_size size (fun () ->
        if logging then begin
          Obs.Log.set_sink (Some (fun _ -> ()));
          Obs.Log.set_level (Some Obs.Log.Debug)
        end;
        Fun.protect
          ~finally:(fun () ->
              Obs.Log.set_level None;
              Obs.Log.flush ();
              Obs.Log.set_sink None)
          (fun () ->
             let trace = Trace.create () in
             let r = Executor.run ~trace spec in
             ( Trace.to_jsonl trace,
               r.Executor.terminated,
               r.Executor.valid,
               r.Executor.agreement_ok )))
  in
  let base_jsonl, bt, bv, ba = run ~size:1 ~logging:false in
  Alcotest.(check bool) "baseline run graded" true (bt && bv && ba);
  List.iter
    (fun (size, logging) ->
       let jsonl, t, v, a = run ~size ~logging in
       Alcotest.(check string)
         (Printf.sprintf "trace identical (pool %d, logging %b)" size
            logging)
         base_jsonl jsonl;
       Alcotest.(check bool) "grading identical" true
         (t = bt && v = bv && a = ba))
    [ (1, true); (4, false); (4, true) ]

(* ------------------------------------------------------------------ *)
(* Sink: every file write reports failures with the target path. *)

let test_sink_roundtrip () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "chc-test-sink-%d.txt" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       match Obs.Sink.write_string ~path "hello sink\n" with
       | Error e -> Alcotest.failf "write_string: %s" e
       | Ok () ->
         let ic = open_in_bin path in
         let s =
           Fun.protect
             ~finally:(fun () -> close_in ic)
             (fun () -> really_input_string ic (in_channel_length ic))
         in
         Alcotest.(check string) "content durably written" "hello sink\n" s)

let test_sink_error_names_path () =
  let bad = "/nonexistent-chc-dir/deep/out.json" in
  (match Obs.Sink.write_string ~path:bad "x" with
   | Ok () -> Alcotest.fail "write into a missing directory must fail"
   | Error msg ->
     Alcotest.(check bool) "error names the target path" true
       (contains ~sub:bad msg));
  match Obs.Sink.write_file_exn ~path:bad (fun _ -> ()) with
  | () -> Alcotest.fail "write_file_exn must raise"
  | exception Obs.Sink.Write_error { path; message } ->
    Alcotest.(check string) "Write_error carries the target path" bad path;
    Alcotest.(check bool) "Write_error carries a diagnostic" true
      (String.length message > 0)

(* A miss runs the memoized function between the lookup's span and the
   insert's, so "memo.lookup" bills the cache only for its own work. *)
let test_memo_span_excludes_miss () =
  let tbl = Memo.create ~hash:Hashtbl.hash ~equal:Int.equal () in
  with_profiler (fun () ->
      let v =
        Memo.find_or_add tbl 1 (fun () ->
            Obs.Prof.with_span "child" (fun () -> 2))
      in
      Alcotest.(check int) "the miss returns f's value" 2 v;
      let open_spans =
        List.fold_left
          (fun stack (e : Obs.Prof.event) ->
             match e.Obs.Prof.phase with
             | `B ->
               if e.Obs.Prof.name = "child" && List.mem "memo.lookup" stack
               then Alcotest.fail "\"child\" began inside \"memo.lookup\"";
               e.Obs.Prof.name :: stack
             | `E -> List.tl stack
             | `X _ -> stack)
          [] (Obs.Prof.events ())
      in
      Alcotest.(check (list string)) "every span closed" [] open_spans;
      let summary = Obs.Prof.summary () in
      Alcotest.(check bool) "the lookup was timed" true
        (List.mem_assoc "memo.lookup" summary);
      Alcotest.(check bool) "f ran under the profiler" true
        (List.mem_assoc "child" summary))

let suite =
  [ ( "obs",
      [ Alcotest.test_case "trace pool-size invariant (d=2)" `Quick
          test_trace_pool_invariant;
        Alcotest.test_case "trace/metrics consistency" `Quick
          test_trace_consistency;
        Alcotest.test_case "step limit traced" `Quick test_step_limit;
        Alcotest.test_case "parse_ids validation" `Quick test_parse_ids;
        Alcotest.test_case "parse_q / parse_inputs validation" `Quick
          test_parse_q_and_inputs;
        Alcotest.test_case "memo lifetime stats" `Quick
          test_memo_lifetime_stats;
        Alcotest.test_case "pool parse_size" `Quick test_pool_parse_size;
        Alcotest.test_case "pool stats" `Quick test_pool_stats;
        Alcotest.test_case "span nesting + exception safety" `Quick
          test_span_nesting;
        Alcotest.test_case "disabled profiler records nothing" `Quick
          test_span_disabled_records_nothing;
        Alcotest.test_case "chrome trace JSON well-formed" `Quick
          test_chrome_json_wellformed;
        Alcotest.test_case "histogram percentiles" `Quick
          test_histogram_percentiles;
        Alcotest.test_case "per-job slices (ph:X)" `Quick test_prof_slices;
        Alcotest.test_case "exposition grammar conformance" `Quick
          test_exposition_grammar;
        Alcotest.test_case "log rate limiter + drop summary" `Quick
          test_log_rate_limiter;
        Alcotest.test_case "log JSONL well-formed" `Quick
          test_log_jsonl_wellformed;
        Alcotest.test_case "logging never perturbs execution" `Quick
          test_log_noninterference;
        Alcotest.test_case "causal dead-letter fidelity" `Quick
          test_causal_dead_letter;
        Alcotest.test_case "dead-letter schedule replay" `Quick
          test_dead_letter_replay;
        Alcotest.test_case "critical path pool-size invariant" `Quick
          test_critical_path_pool_invariant;
        Alcotest.test_case "sink roundtrip" `Quick test_sink_roundtrip;
        Alcotest.test_case "sink error names path" `Quick
          test_sink_error_names_path;
        Alcotest.test_case "memo.lookup excludes a miss's work" `Quick
          test_memo_span_excludes_miss ] ) ]
