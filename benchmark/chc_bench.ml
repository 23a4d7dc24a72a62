(* chc_bench — the end-to-end benchmark: three workloads against a
   spawned `chc_serve listen` over TCP and one through Chc.Executor.run
   in a child process. Every answer is checked; every metric is printed
   by name with its unit and sample count; the last line of standard
   output is one JSON object; the exit code is non-zero on any failed
   check. With --trace 1 each workload is rerun at a smaller size under
   the span profiler the program already has, and the per-layer
   self-time table is printed instead. README.md explains the
   workloads and the metrics.

     bash benchmark/run.sh --workload mix-steady --seed 11 --seconds 15 --trace 0
     dune exec benchmark/chc_bench.exe -- --daemon _build/default/bin/chc_serve.exe *)

open Benchlib
module Q = Numeric.Q
module Frame = Serve.Frame
module Server = Serve.Server
module Workload = Serve.Workload

let now = Client.now

(* Every process under test runs one OCaml domain. The load generator
   shares the 2-core box with it: a two-domain daemon plus the client
   oversubscribe the two cores, and same-seed repeats of tiny-flood then
   swung by +-10% in throughput (idle p50 from 0.51 to 0.89 ms), against
   +-2.5% with one domain. *)
let domains = 1

(* --- the metrics BENCHMARK.json names (the smoke rule checks that the
   two lists agree) ------------------------------------------------------- *)

let end_to_end =
  [ ("setup_s", "s"); ("instances_per_s", "1/s"); ("peak_rss_mb", "MiB") ]

let memo_tables =
  [ "extreme-points"; "hausdorff"; "hull"; "intersect"; "lp-membership";
    "minkowski"; "poly-arena"; "poly-support" ]

(* Span groups of the self-time table: each span name falls in at most
   one; what no span covers is [unattributed]. *)
let groups =
  let prefixed ps n = List.exists (fun prefix -> String.starts_with ~prefix n) ps in
  [ ("protocol", prefixed [ "cc."; "sv." ]);
    ("geometry", prefixed [ "geometry."; "poly."; "hullnd."; "mink."; "isect." ]);
    ("kernel", String.equal "filter.fallback");
    ("memo", String.equal "memo.lookup");
    ("grade", prefixed [ "grade." ]) ]

let per_layer =
  [ ("traced.domain_ms", "ms") ]
  @ List.map (fun (g, _) -> ("share." ^ g, "%")) groups
  @ [ ("share.unattributed", "%"); ("trace_overhead", "ratio");
      ("cpu_util", "ratio"); ("memo.hit_ratio", "ratio") ]
  @ List.map (fun t -> ("memo." ^ t ^ ".hit_ratio", "ratio")) memo_tables
  @ [ ("memo.evictions", "count"); ("filter.fallback_ratio", "ratio");
      ("grid.enclosure_evictions", "count");
      ("poly_engine.arena_hit_ratio", "ratio");
      ("poly_engine.float_share", "ratio"); ("server.engine_reuse", "count");
      ("frame.bytes_in", "B"); ("frame.bytes_out", "B") ]

(* --- results ----------------------------------------------------------- *)

type result = {
  wname : string;
  mutable attempted : int;
  mutable failures : string list;
  mutable metrics : (string * (float * string)) list;  (* newest first *)
}

let say fmt = Printf.ksprintf print_endline fmt

(* A metric the JSON line carries (when BENCHMARK.json names it). *)
let report r name unit_ value note =
  r.metrics <- (name, (value, unit_)) :: r.metrics;
  say "  %-30s %14.6g %-5s  %s" name value unit_ note

(* A printed-only figure. *)
let note name unit_ value note = say "  %-30s %14.6g %-5s  %s" name value unit_ note

let fail r msg =
  r.failures <- msg :: r.failures;
  say "  FAIL %s" msg

let sorted_copy a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 1]; nan on no samples. *)
let pct samples p =
  let a = sorted_copy samples in
  let n = Array.length a in
  if n = 0 then nan
  else a.(min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median a =
  let a = sorted_copy a in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* --- serve workloads --------------------------------------------------- *)

(* A phase's size is a count of instances, not a time: the same seed then
   gives the same work on every commit and every run, and a faster
   commit simply finishes sooner. [size] is the count at --seconds 10,
   scaled linearly; the sizes were chosen so that a run at --seconds S
   measures for about S seconds on a 2-core box. *)
type phase = {
  label : string;
  conc : int;       (* instances in flight; 1 is the serial phase *)
  size : int;       (* instances at --seconds 10 *)
  traced : int;     (* instances in a traced run at --seconds 10 *)
}

type serve_wl = {
  name : string;
  shapes : Workload.mix_item list;
  wal : bool;
  phases : phase list;  (* first: the serial phase; last: the headline
                           closed phase *)
}

let shape n f d = { Workload.n; f; d; recover = false }

let mix_steady =
  { name = "mix-steady";
    shapes = List.filter (fun s -> not s.Workload.recover) Workload.default_mix;
    wal = false;
    phases =
      [ { label = "serial"; conc = 1; size = 100; traced = 40 };
        { label = "closed"; conc = 32; size = 220; traced = 120 } ] }

let tiny_flood =
  { name = "tiny-flood";
    shapes = [ shape 4 1 1 ];
    wal = false;
    phases =
      [ { label = "serial"; conc = 1; size = 2000; traced = 500 };
        { label = "reference"; conc = 16; size = 3000; traced = 1000 };
        { label = "closed"; conc = 1000; size = 8000; traced = 4000 } ] }

let durable_crash =
  { name = "durable-crash";
    shapes = [ shape 4 1 1; shape 5 1 2 ];
    wal = true;
    phases =
      [ { label = "serial"; conc = 1; size = 60; traced = 30 };
        { label = "closed"; conc = 16; size = 90; traced = 100 } ] }

let scaled ~seconds n = int_of_float (float_of_int n *. seconds /. 10.)

(* A closed phase runs a whole number of its in-flight count: instances
   submitted together advance round-robin and finish in waves (at 1000
   in flight, identical n4-d1 instances finish in lockstep), so a phase
   cut mid-wave would end on a partial one. *)
let whole_waves p n = max p.conc (n / p.conc * p.conc)

type req = { job : Server.job; frame : string }

let request (job : Server.job) =
  let c = job.Server.config in
  let b = Buffer.create 256 in
  Frame.write_request b
    (Frame.Submit
       { id = job.Server.id; n = c.Chc.Config.n; f = c.Chc.Config.f;
         d = c.Chc.Config.d; eps = c.Chc.Config.eps; lo = c.Chc.Config.lo;
         hi = c.Chc.Config.hi; inputs = job.Server.inputs });
  { job; frame = Frame.encode_frame (Buffer.contents b) }

(* [count] requests, shapes round-robin, ids [first_id ..]. *)
let generate ~seed ~shapes ~first_id count =
  let rng = Runtime.Rng.create seed in
  let shapes = Array.of_list shapes in
  Array.init count (fun i ->
      request
        (Workload.job ~rng ~id:(first_id + i) shapes.(i mod Array.length shapes)))

(* Warm-up ids sit far above any measured id; the warm-up inputs do not
   depend on --seed, so every run sets up the same way. *)
let warm_first_id = 1_000_000_000
let warm_seed = 7

(* Answers to one request array. *)
type track = {
  reqs : req array;
  t_sub : float array;
  t_done : float array;  (* nan until answered *)
  out : Geometry.Polytope.t option array;
  id0 : int;
}

let track reqs =
  let n = Array.length reqs in
  { reqs; t_sub = Array.make n nan; t_done = Array.make n nan;
    out = Array.make n None;
    id0 = (if n = 0 then 0 else reqs.(0).job.Server.id) }

type session = { daemon : Client.child; port : int; conn : Client.t }

let start ~exe args =
  let daemon = Client.spawn ~domains exe args in
  let port = Client.read_port daemon in
  { daemon; port; conn = Client.connect port }

let stop s =
  Client.close s.conn;
  Client.kill s.daemon

exception Stalled of string

type phase_stats = {
  first : int;       (* requests [first, next) were submitted *)
  next : int;
  t0 : float;
  last : float;      (* when the phase's last answer arrived *)
  cpu_s : float;     (* daemon CPU over the phase *)
}

(* Keep [conc] of [tr.reqs.(first ..< limit)] in flight until all are
   submitted (or [deadline] passes); with [drain], then wait for the
   rest. Rejections are failures.

   Throughput is the phase's answers over [t0, last], drain included:
   at 1000 in flight identical instances finish in waves, and a phase
   that ends when its last wave lands counts whole waves. *)
let drive ?(deadline = infinity) r s tr ~conc ~first ~limit ~drain =
  let next = ref first and inflight = ref 0 in
  let t0 = now () in
  let cpu0 = Client.cpu_s s.daemon.Client.pid in
  let progress = ref t0 in
  let handle resp =
    let id, out =
      match resp with
      | Frame.Decision { id; output; _ } -> (id, Some output)
      | Frame.Rejected { id; reason } ->
        fail r (Printf.sprintf "instance %d rejected: %s" id reason);
        (id, None)
    in
    let i = id - tr.id0 in
    if i < 0 || i >= Array.length tr.reqs || not (Float.is_nan tr.t_done.(i))
    then fail r (Printf.sprintf "unexpected answer for instance %d" id)
    else begin
      progress := now ();
      tr.t_done.(i) <- !progress;
      tr.out.(i) <- out;
      decr inflight
    end
  in
  let submitting () = !next < limit && now () < deadline in
  while submitting () || (drain && !inflight > 0) do
    while submitting () && !inflight < conc do
      tr.t_sub.(!next) <- now ();
      Client.send s.conn tr.reqs.(!next).frame;
      incr next;
      incr inflight
    done;
    if now () -. !progress > 60. then
      raise (Stalled (Printf.sprintf "no answer for 60 s, %d outstanding" !inflight));
    List.iter handle (Client.poll s.conn ~timeout:0.01)
  done;
  let last =
    Array.fold_left
      (fun acc t -> if Float.is_nan t then acc else Float.max acc t)
      t0
      (Array.sub tr.t_done first (!next - first))
  in
  { first; next = !next; t0; last; cpu_s = Client.cpu_s s.daemon.Client.pid -. cpu0 }

(* Submit-to-answer latencies (s) of the phase's answered requests. *)
let latencies tr ps =
  let acc = ref [] in
  for i = ps.first to ps.next - 1 do
    let d = tr.t_done.(i) in
    if not (Float.is_nan d) then acc := (d -. tr.t_sub.(i)) :: !acc
  done;
  Array.of_list !acc

let ips ps lat = float_of_int (Array.length lat) /. (ps.last -. ps.t0)

let serve_args ?wal ?profile ?limit () =
  [ "listen"; "--port"; "0"; "--fuel"; "64" ]
  @ (match wal with Some d -> [ "--wal-dir"; d ] | None -> [])
  @ (match profile with Some p -> [ "--profile-out"; p ] | None -> [])
  @ match limit with Some l -> [ "--limit"; string_of_int l ] | None -> []

(* The warm-up set: each shape served 4 times, one at a time. *)
let warm_count w = 4 * List.length w.shapes

let warm_up r s w =
  let warm =
    track (generate ~seed:warm_seed ~shapes:w.shapes ~first_id:warm_first_id (warm_count w))
  in
  ignore
    (drive r s warm ~conc:1 ~first:0 ~limit:(Array.length warm.reqs) ~drain:true
     : phase_stats);
  warm

(* Validity of every answer, and every 50th id against an in-process
   re-execution. *)
let check_answers r tr =
  Array.iteri
    (fun i out ->
       match out with
       | None -> ()
       | Some output ->
         let job = tr.reqs.(i).job in
         (match Checks.decision job output with
          | Ok () -> ()
          | Error msg -> fail r msg);
         if job.Server.id mod 50 = 0 then
           match Checks.reexecute job output with
           | Ok () -> ()
           | Error msg -> fail r msg)
    tr.out

let scrape_daemon r s =
  let series = Client.parse_exposition (Client.scrape s.port "/metrics") in
  let statusz =
    match Codec.Json.of_string (String.trim (Client.scrape s.port "/statusz")) with
    | Ok j -> j
    | Error e -> failwith ("/statusz does not parse: " ^ e)
  in
  (match List.assoc_opt "chc_serve_violations_total" series with
   | Some 0. -> ()
   | Some v -> fail r (Printf.sprintf "daemon counted %.0f Theorem-2 violations" v)
   | None -> fail r "daemon exposition lacks chc_serve_violations_total");
  (series, statusz)

let series_sum series ~prefix =
  List.fold_left
    (fun acc (k, v) -> if String.starts_with ~prefix k then acc +. v else acc)
    0. series

let series_get series k = Option.value ~default:0. (List.assoc_opt k series)

(* Counter-derived per-layer metrics, per instance where a count scales
   with the work. The daemon's /metrics and the executor child's own
   registry expose the same families. *)
let count_metrics r series ~instances =
  let per x = if instances > 0 then x /. float_of_int instances else 0. in
  let ratio a b = if b > 0. then a /. b else 0. in
  let memo_ratio label hits misses =
    report r label "ratio" (ratio hits (hits +. misses))
      (Printf.sprintf "%.0f lookups" (hits +. misses))
  in
  memo_ratio "memo.hit_ratio"
    (series_sum series ~prefix:"chc_memo_hits_total")
    (series_sum series ~prefix:"chc_memo_misses_total");
  List.iter
    (fun t ->
       let get fam = series_get series (Printf.sprintf "%s{table=%S}" fam t) in
       memo_ratio ("memo." ^ t ^ ".hit_ratio") (get "chc_memo_hits_total")
         (get "chc_memo_misses_total"))
    memo_tables;
  report r "memo.evictions" "count"
    (per (series_sum series ~prefix:"chc_memo_evictions_total"))
    "per instance";
  let fb = series_sum series ~prefix:"chc_filter_fallbacks_total" in
  let filtered =
    fb
    +. series_sum series ~prefix:"chc_filter_hits_total"
    +. series_sum series ~prefix:"chc_filter_int_hits_total"
  in
  report r "filter.fallback_ratio" "ratio" (ratio fb filtered)
    (Printf.sprintf "%.0f filtered predicates" filtered);
  report r "grid.enclosure_evictions" "count"
    (per (series_get series "chc_cache_evictions_total{cache=\"enclosure\"}"))
    "per instance";
  let arena_hit = series_get series "chc_poly_arena_total{result=\"hit\"}" in
  let arena_miss = series_get series "chc_poly_arena_total{result=\"miss\"}" in
  report r "poly_engine.arena_hit_ratio" "ratio"
    (ratio arena_hit (arena_hit +. arena_miss))
    (Printf.sprintf "%.0f arena lookups" (arena_hit +. arena_miss));
  let hull_float =
    series_get series "chc_poly_hull_total{path=\"float\"}"
    +. series_get series "chc_poly_hull_total{path=\"warm\"}"
  in
  let hulls = hull_float +. series_get series "chc_poly_hull_total{path=\"exact\"}" in
  report r "poly_engine.float_share" "ratio" (ratio hull_float hulls)
    (Printf.sprintf "%.0f 3-d hull builds" hulls);
  note "poly_engine.fallbacks" "count"
    (per (series_sum series ~prefix:"chc_poly_fallback_total"))
    "per instance";
  report r "server.engine_reuse" "count"
    (per (series_get series "chc_serve_engine_reuse_total"))
    "per instance";
  report r "frame.bytes_in" "B"
    (per (series_get series "chc_serve_frame_bytes_total{dir=\"in\"}"))
    "per instance";
  report r "frame.bytes_out" "B"
    (per (series_get series "chc_serve_frame_bytes_total{dir=\"out\"}"))
    "per instance";
  note "wal.bytes" "B" (per (series_get series "chc_serve_wal_bytes_total"))
    "per instance"

(* --- the per-layer self-time table ------------------------------------- *)

let layer_metrics ?(record = true) r (t : Selftime.table) ~instances =
  let report = if record then report r else note in
  let per_ms ns = ns /. 1e6 /. float_of_int (max 1 instances) in
  let share ns = 100. *. ns /. t.Selftime.domain_ns in
  say "  self time per instance over %d instances, %d domain(s), %.3f s window:"
    instances t.Selftime.domains (t.Selftime.window_ns /. 1e9);
  List.iter
    (fun (name, ns) ->
       say "    %-26s %10.4f ms  %5.1f%%  %d calls" name (per_ms ns) (share ns)
         (Option.value ~default:0 (List.assoc_opt name t.Selftime.calls)))
    t.Selftime.rows;
  List.iter
    (fun (tid, top) ->
       let idle = t.Selftime.window_ns -. top in
       say "    %-26s %10.4f ms  %5.1f%%" (Printf.sprintf "unattributed (domain %d)" tid)
         (per_ms idle) (share idle))
    t.Selftime.domain_top_ns;
  let sum = Selftime.total_ns t in
  say "    %-26s %10.4f ms  (rows sum to %.2f%% of the traced domain time)" "total"
    (per_ms sum) (share sum);
  report "traced.domain_ms" "ms" (per_ms t.Selftime.domain_ns)
    "per instance, window x domains";
  List.iter
    (fun (g, pred) ->
       let ns = Selftime.self_where t pred in
       report ("share." ^ g) "%" (share ns)
         (Printf.sprintf "%.4f ms per instance" (per_ms ns)))
    groups;
  report "share.unattributed" "%" (share t.Selftime.unattributed_ns)
    (Printf.sprintf "%.4f ms per instance" (per_ms t.Selftime.unattributed_ns))

(* --- running a serve workload ------------------------------------------ *)

(* After the SIGKILL: read each submitted id's facts off the disk, time
   Server.scan_wal in-process and `chc_serve resume` as a process, and
   classify every id (Crash_acct). Only a durably accepted instance
   that nothing finished fails the run. *)
let crash_accounting r ~exe ~wal_dir tr ~submitted =
  let facts =
    List.init submitted Fun.id
    |> List.map (fun i ->
        let id = tr.reqs.(i).job.Server.id in
        let has_meta, has_marker = Crash_acct.disk_facts ~wal_dir id in
        (id, not (Float.is_nan tr.t_done.(i)), has_meta, has_marker))
  in
  let t0 = now () in
  let pending = Server.scan_wal ~wal_dir in
  note "recovery.scan_s" "s" (now () -. t0)
    (Printf.sprintf "Server.scan_wal, %d unfinished" (List.length pending));
  let t0 = now () in
  let c = Client.spawn ~domains exe [ "resume"; "--wal-dir"; wal_dir; "--fuel"; "64" ] in
  let lines, st = Client.finish c in
  let recover_s = now () -. t0 in
  if st <> Unix.WEXITED 0 then fail r "chc_serve resume did not exit 0";
  let resumed = List.filter_map Crash_acct.resumed_id lines in
  note "recover_s" "s" recover_s
    (Printf.sprintf "chc_serve resume, %d instances finished" (List.length resumed));
  let counts = Hashtbl.create 5 in
  List.iter
    (fun (id, answered, has_meta, has_marker) ->
       let fate =
         Crash_acct.classify
           { Crash_acct.answered; has_meta; has_marker; resumed = List.mem id resumed }
       in
       if fate = Crash_acct.Lost then
         fail r (Printf.sprintf "instance %d durably accepted but lost" id);
       Hashtbl.replace counts fate
         (1 + Option.value ~default:0 (Hashtbl.find_opt counts fate)))
    facts;
  List.iter
    (fun f ->
       note ("crash." ^ Crash_acct.name f) "count"
         (float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts f)))
         "submitted ids")
    Crash_acct.[ Answered; Marker; Resumed; Unacked_lost; Lost ]

(* The frame codec and the WAL's fsync, timed on their public calls:
   encoding and decoding this workload's Decision frames, and one
   Obs.Sink.append_sync on the file system the WAL lives on. *)
let probes w ~dir tr =
  let answers =
    Array.to_list tr.out |> List.filter_map Fun.id |> List.filteri (fun i _ -> i < 2000)
  in
  let encode output =
    let b = Buffer.create 256 in
    Frame.write_response b (Frame.Decision { id = 1; t_end = 1; output });
    Frame.encode_frame (Buffer.contents b)
  in
  let decode s =
    let d = Frame.decoder () in
    Frame.feed d s;
    match Frame.next d with
    | Some p -> ignore (Frame.read_response (Codec.Wire.reader_of_string p) : Frame.response)
    | None -> failwith "probe frame did not decode"
  in
  let time f xs =
    let t0 = now () in
    List.iter f xs;
    1e6 *. (now () -. t0) /. float_of_int (max 1 (List.length xs))
  in
  let samples = Printf.sprintf "Decision frames, %d samples" (List.length answers) in
  note "frame.encode_us" "us" (time (fun o -> ignore (encode o : string)) answers) samples;
  note "frame.decode_us" "us" (time decode (List.map encode answers)) samples;
  if w.wal then begin
    let path = Filename.concat dir "sync-probe.jsonl" in
    let ap = Obs.Sink.append_open ~path in
    let syncs =
      Array.init 50 (fun _ ->
          Obs.Sink.append_line ap "{\"probe\":1}";
          let t0 = now () in
          Obs.Sink.append_sync ap;
          1e6 *. (now () -. t0))
    in
    Obs.Sink.append_close ap;
    Sys.remove path;
    note "sink.sync_us" "us" (median syncs) "Obs.Sink.append_sync, median of 50"
  end

(* [w]'s phases back to back over [tr], each [sizes] long and drained. *)
let run_phases r s tr w sizes =
  let stats, _ =
    List.fold_left
      (fun (acc, first) (p, n) ->
         ((p, drive r s tr ~conc:p.conc ~first ~limit:(first + n) ~drain:true) :: acc,
          first + n))
      ([], 0) (List.combine w.phases sizes)
  in
  List.rev stats

let run_serve w ~exe ~work ~seed ~seconds ~setups r =
  let dir = Filename.concat work w.name in
  Unix.mkdir dir 0o755;
  let sizes = List.map (fun p -> whole_waves p (scaled ~seconds p.size)) w.phases in
  (* the crash burst after the measured phases needs its own requests *)
  let burst = if w.wal then 256 else 0 in
  let tr =
    track (generate ~seed ~shapes:w.shapes ~first_id:0 (List.fold_left ( + ) burst sizes))
  in
  let wal k = if w.wal then Some (Filename.concat dir (Printf.sprintf "wal-%d" k)) else None in
  (* set-up: spawn to warm-up set decided, [setups] times; the last
     daemon stays up for the measurement *)
  let times = Array.make setups 0. in
  let session = ref None in
  for k = 0 to setups - 1 do
    let t0 = now () in
    let s = start ~exe (serve_args ?wal:(wal k) ()) in
    let warm = warm_up r s w in
    times.(k) <- now () -. t0;
    check_answers r warm;
    if k < setups - 1 then begin
      stop s;
      Option.iter rm_rf (wal k)
    end
    else session := Some s
  done;
  let s = Option.get !session in
  report r "setup_s" "s" (median times)
    (Printf.sprintf "median of %d set-ups (spawn to %d warm-up decisions)" setups
       (warm_count w));
  let stats = run_phases r s tr w sizes in
  let ms x = 1000. *. x in
  let idle = latencies tr (snd (List.hd stats)) in
  let samples = Printf.sprintf "serial phase, %d samples" (Array.length idle) in
  note "serial_ms" "ms"
    (ms (Array.fold_left ( +. ) 0. idle /. float_of_int (Array.length idle)))
    ("mean, " ^ samples);
  note "idle_p50_ms" "ms" (ms (median idle)) samples;
  note "idle_p90_ms" "ms" (ms (pct idle 0.9)) samples;
  let head_p, head = List.nth stats (List.length stats - 1) in
  List.iter
    (fun (p, ps) ->
       if p.conc > 1 && p != head_p then
         let lat = latencies tr ps in
         note (p.label ^ "_per_s") "1/s" (ips ps lat)
           (Printf.sprintf "%s phase, %d in flight, %d in %.2f s" p.label p.conc
              (Array.length lat) (ps.last -. ps.t0)))
    stats;
  let hl = latencies tr head in
  report r "instances_per_s" "1/s" (ips head hl)
    (Printf.sprintf "%s phase, %d in flight, %d decisions in %.2f s" head_p.label
       head_p.conc (Array.length hl) (head.last -. head.t0));
  note "latency_p50_ms" "ms" (ms (median hl))
    (Printf.sprintf "%s phase, %d samples" head_p.label (Array.length hl));
  note "latency_p90_ms" "ms" (ms (pct hl 0.9))
    (Printf.sprintf "%s phase, %d samples" head_p.label (Array.length hl));
  if Array.length hl >= 1000 then
    note "latency_p99_ms" "ms" (ms (pct hl 0.99))
      (Printf.sprintf "%s phase, %d samples" head_p.label (Array.length hl));
  (* CPU per decision at each concurrency *)
  let cpu_per ps = ps.cpu_s /. float_of_int (max 1 (ps.next - ps.first)) in
  List.iter
    (fun (p, ps) ->
       note ("cpu_per_instance_ms." ^ p.label) "ms" (ms (cpu_per ps))
         (Printf.sprintf "%d in flight, %d decisions" p.conc (ps.next - ps.first)))
    stats;
  (match stats with
   | [ _; (ref_p, ref_ps); (_, big) ] ->
     note "server.inflight_cost_ratio" "ratio" (cpu_per big /. cpu_per ref_ps)
       (Printf.sprintf "CPU per decision at %d in flight / at %d" head_p.conc ref_p.conc)
   | _ -> ());
  note "server.cpu_util" "ratio"
    (head.cpu_s /. (head.last -. head.t0))
    (Printf.sprintf "daemon CPU / wall, %s phase" head_p.label);
  List.iter
    (fun (_, ps) ->
       let missing = ps.next - ps.first - Array.length (latencies tr ps) in
       if missing > 0 then fail r (Printf.sprintf "%d instances never answered" missing))
    stats;
  r.attempted <- List.fold_left (fun a (_, ps) -> a + (ps.next - ps.first)) 0 stats;
  let series, _ = scrape_daemon r s in
  note "server.decided" "count"
    (series_get series "chc_serve_instances_total{status=\"decided\"}")
    "daemon total, warm-up included";
  report r "peak_rss_mb" "MiB" (Client.peak_rss_mb s.daemon.Client.pid) "daemon VmHWM";
  (match wal (setups - 1) with
   | None -> stop s
   | Some wal_dir ->
     (* the crash: a short burst at the closed phase's load, then SIGKILL
        with instances in flight *)
     let kill_ps =
       drive r s tr ~conc:head_p.conc ~first:head.next ~limit:(Array.length tr.reqs)
         ~deadline:(now () +. 0.5) ~drain:false
     in
     r.attempted <- r.attempted + (kill_ps.next - kill_ps.first);
     stop s;
     crash_accounting r ~exe ~wal_dir tr ~submitted:kill_ps.next;
     rm_rf wal_dir);
  check_answers r tr;
  probes w ~dir tr;
  rm_rf dir

(* The traced rerun: one untraced session at the traced size (for the
   counters, CPU use and the tracing overhead), then one traced session
   whose daemon writes its span profile on exit (--limit). *)
let trace_serve w ~exe ~work ~seed ~seconds r =
  let dir = Filename.concat work w.name in
  Unix.mkdir dir 0o755;
  let sizes = List.map (fun p -> whole_waves p (scaled ~seconds p.traced)) w.phases in
  let total = List.fold_left ( + ) 0 sizes in
  let reqs = generate ~seed ~shapes:w.shapes ~first_id:0 total in
  let wal k = if w.wal then Some (Filename.concat dir ("wal-" ^ k)) else None in
  let session s =
    let tr = track reqs in
    let stats = run_phases r s tr w sizes in
    check_answers r tr;
    let _, head = List.nth stats (List.length stats - 1) in
    (ips head (latencies tr head), head)
  in
  (* untraced *)
  let s = start ~exe (serve_args ?wal:(wal "plain") ()) in
  check_answers r (warm_up r s w);
  let plain_ips, head = session s in
  let series, statusz = scrape_daemon r s in
  stop s;
  Option.iter rm_rf (wal "plain");
  let instances = warm_count w + total in
  count_metrics r series ~instances;
  let wal_stat k =
    match Codec.Json.member "wal" statusz with
    | Some (Codec.Json.Obj kv) ->
      (match List.assoc_opt k kv with Some (Codec.Json.Int v) -> float_of_int v | _ -> 0.)
    | _ -> 0.
  in
  note "wal.syncs" "count" (wal_stat "syncs" /. float_of_int instances) "per instance";
  note "wal.appends" "count" (wal_stat "appends" /. float_of_int instances) "per instance";
  report r "cpu_util" "ratio"
    (head.cpu_s /. (head.last -. head.t0))
    "daemon CPU / wall, untraced closed phase";
  (* traced *)
  let profile = Filename.concat dir "profile.json" in
  let s = start ~exe (serve_args ?wal:(wal "traced") ~profile ~limit:instances ()) in
  check_answers r (warm_up r s w);
  let traced_ips, _ = session s in
  Client.close s.conn;
  let _, st = Client.finish s.daemon in
  if st <> Unix.WEXITED 0 then fail r "traced daemon did not exit 0";
  let t = Selftime.of_chrome_file profile in
  rm_rf profile;
  Option.iter rm_rf (wal "traced");
  say "  traced session: the daemon's profile over %d instances (warm-up included)"
    instances;
  layer_metrics r t ~instances;
  List.iter
    (fun (name, ns) ->
       say "    slice %-20s %10.4f ms per instance" name (ns /. 1e6 /. float_of_int instances))
    t.Selftime.slices;
  report r "trace_overhead" "ratio" (plain_ips /. traced_ips)
    (Printf.sprintf "untraced / traced closed-phase throughput, %d decisions each"
       (List.nth sizes (List.length sizes - 1)));
  r.attempted <- 2 * total;
  (* durable-crash: trace `resume` on a killed directory as well *)
  (match wal "resume" with
   | None -> ()
   | Some wal_dir ->
     let s = start ~exe (serve_args ~wal:wal_dir ()) in
     let tr = track (generate ~seed ~shapes:w.shapes ~first_id:0 64) in
     let burst = drive r s tr ~conc:16 ~first:0 ~limit:64 ~deadline:(now () +. 1.0) ~drain:false in
     stop s;
     r.attempted <- r.attempted + burst.next;
     check_answers r tr;
     let t0 = now () in
     let profile = Filename.concat dir "resume.json" in
     let c =
       Client.spawn ~domains exe
         [ "resume"; "--wal-dir"; wal_dir; "--fuel"; "64"; "--profile-out"; profile ]
     in
     let lines, st = Client.finish c in
     if st <> Unix.WEXITED 0 then fail r "traced chc_serve resume did not exit 0";
     let resumed = List.length (List.filter_map Crash_acct.resumed_id lines) in
     say "  traced resume: %d instances in %.3f s" resumed (now () -. t0);
     layer_metrics ~record:false r (Selftime.of_chrome_file profile)
       ~instances:(max 1 resumed);
     rm_rf wal_dir);
  rm_rf dir

(* --- exec-d3: the executor in a child process ---------------------------- *)

(* The n7-f1-d3 shape E10, E13 and E17 use; ε as in the serve workloads. *)
let exec_config = Chc.Config.make ~n:7 ~f:1 ~d:3 ~eps:(Q.of_ints 1 100) ~lo:Q.zero ~hi:Q.one
let exec_warm_seeds = [ 1; 2 ]

(* executions at --seconds 10 *)
let exec_size = 70
let exec_traced = 30

(* Child side: set up (the warm-up set), print "ready", then measure per
   [mode]. Metrics and failures go back to the parent as "@metric",
   "@fail" and "@attempted" lines after the human-readable output. *)
let exec_child ~mode ~seed ~seconds =
  Parallel.Pool.set_global_size domains;
  let run s = Chc.Executor.run (Chc.Executor.default_spec ~config:exec_config ~seed:s ()) in
  List.iter (fun s -> ignore (run s : Chc.Executor.report)) exec_warm_seeds;
  print_endline "ready";
  let r = { wname = "exec-d3"; attempted = 0; failures = []; metrics = [] } in
  (* consecutive seeds from seed * 100000: one random crash-faulty
     process, random inputs and the random-uniform scheduler each *)
  let base = seed * 100_000 in
  let run_checked s =
    r.attempted <- r.attempted + 1;
    let t0 = now () in
    let rep = run s in
    let dt = now () -. t0 in
    (match Checks.execution rep with Ok () -> () | Error msg -> fail r msg);
    dt
  in
  let cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime in
  (match mode with
   | "setup" -> ()
   | "measure" ->
     let k = max 2 (scaled ~seconds exec_size) in
     let t0 = now () in
     let times = Array.init k (fun i -> run_checked (base + i)) in
     let wall = now () -. t0 in
     report r "instances_per_s" "1/s" (float_of_int k /. wall)
       (Printf.sprintf "%d executions in %.2f s" k wall);
     let samples = Printf.sprintf "%d executions, one at a time" k in
     note "serial_ms" "ms" (1000. *. wall /. float_of_int k) ("mean, " ^ samples);
     note "idle_p50_ms" "ms" (1000. *. median times) samples;
     note "idle_p90_ms" "ms" (1000. *. pct times 0.9) samples;
     report r "peak_rss_mb" "MiB" (Client.peak_rss_mb (Unix.getpid ())) "executor child VmHWM"
   | _ ->
     let k = max 2 (scaled ~seconds exec_traced) in
     let c0 = cpu () and t0 = now () in
     for i = 0 to k - 1 do ignore (run_checked (base + i) : float) done;
     let plain_wall = now () -. t0 in
     report r "cpu_util" "ratio"
       ((cpu () -. c0) /. plain_wall)
       "child CPU / wall, untraced";
     count_metrics r (Client.parse_exposition (Obs.Metrics.exposition_all ())) ~instances:k;
     Obs.Prof.reset ();
     Obs.Prof.set_enabled true;
     let w0 = Obs.Prof.now_ns () in
     for i = k to (2 * k) - 1 do ignore (run_checked (base + i) : float) done;
     let w1 = Obs.Prof.now_ns () in
     Obs.Prof.set_enabled false;
     let t =
       Selftime.of_prof (Obs.Prof.events ()) ~window:(Int64.to_float w0, Int64.to_float w1)
     in
     Obs.Prof.reset ();
     say "  traced: %d executions" k;
     layer_metrics r t ~instances:k;
     report r "trace_overhead" "ratio"
       (Int64.to_float (Int64.sub w1 w0) /. 1e9 /. plain_wall)
       (Printf.sprintf "traced / untraced wall, %d executions each" k));
  r

let run_exec ~exe ~seed ~seconds ~setups ~trace r =
  let child mode =
    Client.spawn ~domains exe
      [ "--exec-child"; mode; "--seed"; string_of_int seed; "--seconds";
        Printf.sprintf "%.17g" seconds ]
  in
  let n = if trace then 1 else setups in
  let times = Array.make n 0. in
  let last = ref None in
  for k = 0 to n - 1 do
    let t0 = now () in
    let c = child (if k < n - 1 then "setup" else if trace then "trace" else "measure") in
    (match input_line c.Client.out with
     | "ready" -> ()
     | line -> failwith ("executor child: " ^ line));
    times.(k) <- now () -. t0;
    if k < n - 1 then ignore (Client.finish c : string list * Unix.process_status)
    else last := Some c
  done;
  if not trace then
    report r "setup_s" "s" (median times)
      (Printf.sprintf "median of %d set-ups (spawn to %d warm-up executions)" setups
         (List.length exec_warm_seeds));
  let lines, st = Client.finish (Option.get !last) in
  if st <> Unix.WEXITED 0 then fail r "executor child failed";
  List.iter
    (fun line ->
       match String.index_opt line ' ' with
       | Some i when line.[0] = '@' ->
         let rest = String.sub line (i + 1) (String.length line - i - 1) in
         (match (String.sub line 0 i, String.split_on_char ' ' rest) with
          | "@metric", [ name; unit_; v ] ->
            r.metrics <- (name, (float_of_string v, unit_)) :: r.metrics
          | "@fail", _ -> r.failures <- rest :: r.failures
          | "@attempted", [ k ] -> r.attempted <- r.attempted + int_of_string k
          | _ -> failwith ("executor child: " ^ line))
       | _ -> print_endline line)
    lines

(* --- output -------------------------------------------------------------- *)

let json_result r ~names =
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n r.metrics) then fail r ("metric not measured: " ^ n))
    names;
  let metrics =
    List.filter_map
      (fun (n, _) ->
         match List.assoc_opt n r.metrics with
         | None -> None
         | Some (v, u) when Float.is_finite v ->
           Some (Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
         | Some (_, u) ->
           fail r ("metric is not a finite number: " ^ n);
           Some (Printf.sprintf "%S: {\"value\": 0, \"unit\": %S}" n u))
      names
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failures = []) (max 1 r.attempted) (List.length r.failures)
    (String.concat ", " metrics)

(* The end_to_end and per_layer metric names BENCHMARK.json declares. *)
let declared_names file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  let section key =
    match Str.search_forward (Str.regexp_string ("\"" ^ key ^ "\"")) text 0 with
    | exception Not_found -> []
    | i ->
      let s = String.sub text i (String.index_from text i ']' - i) in
      let re = Str.regexp "\"name\": *\"\\([^\"]*\\)\"" in
      let rec go pos acc =
        match Str.search_forward re s pos with
        | exception Not_found -> List.rev acc
        | k -> go (k + 1) (Str.matched_group 1 s :: acc)
      in
      go 0 []
  in
  (section "end_to_end", section "per_layer")

(* --- command line ---------------------------------------------------------- *)

let workloads = [ "mix-steady"; "tiny-flood"; "durable-crash"; "exec-d3" ]

let run_one name ~exe ~work ~seed ~seconds ~setups ~trace =
  let r = { wname = name; attempted = 0; failures = []; metrics = [] } in
  say "chc_bench %s: seed %d, --seconds %g, %s" name seed seconds
    (if trace then "traced" else "untraced");
  (try
     match List.find_opt (fun w -> w.name = name) [ mix_steady; tiny_flood; durable_crash ] with
     | Some w ->
       if trace then trace_serve w ~exe ~work ~seed ~seconds r
       else run_serve w ~exe ~work ~seed ~seconds ~setups r
     | None -> run_exec ~exe:Sys.executable_name ~seed ~seconds ~setups ~trace r
   with
   | Stalled msg | Failure msg | Sys_error msg | Selftime.Unmatched msg ->
     Client.kill_all ();
     fail r msg
   | End_of_file ->
     Client.kill_all ();
     fail r "a child process exited early"
   | Client.Closed ->
     Client.kill_all ();
     fail r "daemon closed the connection"
   | Unix.Unix_error (e, fn, arg) ->
     Client.kill_all ();
     fail r (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)));
  r

let () =
  let workload = ref "" and seed = ref 11 and seconds = ref 15. and trace = ref 0 in
  let daemon = ref "" and quick = ref false and names_file = ref "" in
  let child_mode = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME one of " ^ String.concat ", " workloads ^ " (default: all four)");
      ("--seed", Arg.Set_int seed, "N input seed (default 11)");
      ("--seconds", Arg.Set_float seconds,
       "S run size: each phase's instance count is scaled to about S seconds \
        (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 1: the traced rerun and its per-layer table");
      ("--traced", Arg.Unit (fun () -> trace := 1), " same as --trace 1");
      ("--daemon", Arg.Set_string daemon,
       "PATH the chc_serve executable (default _build/default/bin/chc_serve.exe)");
      ("--quick", Arg.Set quick,
       " smoke mode: every workload at --seconds 2, untraced and traced, one set-up");
      ("--check-names", Arg.Set_string names_file,
       "FILE fail unless FILE (BENCHMARK.json) declares exactly the metrics measured here");
      ("--exec-child", Arg.Set_string child_mode, "MODE (internal: the exec-d3 child)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "chc_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";
  if !child_mode <> "" then begin
    let r = exec_child ~mode:!child_mode ~seed:!seed ~seconds:!seconds in
    List.iter (fun (n, (v, u)) -> Printf.printf "@metric %s %s %.17g\n" n u v)
      (List.rev r.metrics);
    List.iter (Printf.printf "@fail %s\n") (List.rev r.failures);
    Printf.printf "@attempted %d\n" r.attempted;
    exit 0
  end;
  (* the bench's own process stays single-domain: its children get the
     two cores *)
  Parallel.Pool.set_global_size 1;
  if !names_file <> "" then begin
    let e2e, layer = declared_names !names_file in
    let same what declared ours =
      let ours = List.map fst ours in
      if List.sort compare declared <> List.sort compare ours then begin
        Printf.printf "FAIL %s: BENCHMARK.json declares [%s], chc_bench measures [%s]\n"
          what (String.concat " " declared) (String.concat " " ours);
        exit 1
      end
    in
    same "end_to_end" e2e end_to_end;
    same "per_layer" layer per_layer
  end;
  let exe = if !daemon = "" then "_build/default/bin/chc_serve.exe" else !daemon in
  let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
  if not (Sys.file_exists exe) then begin
    prerr_endline ("chc_bench: no daemon executable at " ^ exe);
    exit 2
  end;
  let selected =
    if !workload = "" then workloads
    else if List.mem !workload workloads then [ !workload ]
    else begin
      prerr_endline ("chc_bench: unknown workload " ^ !workload);
      exit 2
    end
  in
  let root = Filename.concat (Sys.getcwd ()) ".chc_bench" in
  let work = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let clean () =
    rm_rf work;
    try Unix.rmdir root with Unix.Unix_error _ -> ()
  in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  Unix.mkdir work 0o755;
  (* one workload, set-up included, ends inside 180 s *)
  if List.length selected = 1 && not !quick then begin
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
            prerr_endline "chc_bench: time cap reached";
            Client.kill_all ();
            clean ();
            exit 3));
    ignore (Unix.alarm 170 : int)
  end;
  let seconds = if !quick then 2. else !seconds in
  let setups = if !quick then 1 else 3 in
  let run name trace =
    (run_one name ~exe ~work ~seed:!seed ~seconds ~setups ~trace,
     if trace then per_layer else end_to_end)
  in
  let runs =
    List.concat_map
      (fun name ->
         if !quick then
           let untraced = run name false in
           [ untraced; run name true ]
         else [ run name (!trace = 1) ])
      selected
  in
  clean ();
  let lines = List.map (fun (r, names) -> (r, json_result r ~names)) runs in
  let failed = List.exists (fun (r, _) -> r.failures <> []) lines in
  (match lines with
   | [ (_, line) ] -> print_endline line
   | _ ->
     List.iter (fun (r, line) -> say "%s %s" r.wname line) lines;
     let sum f = List.fold_left (fun a (r, _) -> a + f r) 0 lines in
     Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {}}\n"
       (not failed)
       (max 1 (sum (fun r -> r.attempted)))
       (sum (fun r -> List.length r.failures)));
  exit (if failed then 1 else 0)
