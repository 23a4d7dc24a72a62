(* Serving-daemon smoke pass (dune build @serve-smoke, part of @ci):

   1. 200 mixed instances — the E15 workload shapes, including
      crash-recovery ones — through an in-process server, every
      decision graded against Theorem 2 on the spot;
   2. the Prometheus exposition must contain every chc_serve metric
      family the daemon advertises;
   3. when handed the daemon binary (argv 1), a real-socket leg: spawn
      [chc_serve listen] on an ephemeral port, send a hostile frame on
      a second connection (the daemon must drop that client and carry
      on), submit 200 mixed instances as length-prefixed frames over
      TCP, scrape the admin
      plane (/metrics, /statusz, /healthz — protocol-hijacked on the
      same port) MID-RUN while the daemon still owes decisions, check
      every Decision against an in-process re-execution of the same
      inputs, and parse every line of the daemon's JSONL log;
   4. a second daemon decides a wave of 100 instances while 1,030 idle
      connections are held open — more than select(2) can watch — and
      serves one more instance after they close;
   5. a --wal-dir daemon limited to 64 descriptors answers every submit
      of a burst with a Decision or a Rejected, pauses accepting without
      spinning while idle connections exhaust its descriptors, reports
      the WAL error on /healthz, and decides again once they close. *)

module Q = Numeric.Q
module Frame = Serve.Frame
module Server = Serve.Server
module Workload = Serve.Workload

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let check name b = if not b then fail "%s" name else Printf.printf "ok: %s\n%!" name

(* --- leg 1: in-process workload -------------------------------------- *)

let in_process () =
  let server = Server.create ~fuel:64 () in
  let rng = Runtime.Rng.create 77 in
  let phase =
    Workload.closed_loop ~server ~rng ~mix:Workload.default_mix
      ~label:"smoke" ~first_id:0 ~concurrency:64 ~total:200 ()
  in
  check "200 mixed instances decided" (phase.Workload.instances = 200);
  (* latencies and the phase wall come from the same monotonic clock *)
  check
    (Printf.sprintf "0 < latency_max_s (%.3f) <= wall_s (%.3f)"
       phase.Workload.latency_max_s phase.Workload.wall_s)
    (0. < phase.Workload.latency_max_s
     && phase.Workload.latency_max_s <= phase.Workload.wall_s);
  (match phase.Workload.grade_failures with
   | [] -> Printf.printf "ok: Theorem 2 holds for all 200 (%.1f inst/s)\n%!"
             phase.Workload.throughput_ips
   | msg :: _ ->
     fail "%d Theorem 2 violation(s), first: %s"
       (List.length phase.Workload.grade_failures) msg)

(* --- leg 2: metric families ------------------------------------------ *)

let metric_families () =
  (* touch the frame codec so its counter families exist too *)
  let dec = Frame.decoder () in
  Frame.feed dec (Frame.encode_frame "probe");
  (match Frame.next dec with
   | Some "probe" -> ()
   | _ -> fail "frame probe did not round-trip");
  let exposition = Obs.Metrics.exposition_all () in
  List.iter
    (fun family ->
       let found =
         let flen = String.length family and elen = String.length exposition in
         let rec scan i =
           i + flen <= elen
           && (String.sub exposition i flen = family || scan (i + 1))
         in
         scan 0
       in
       check (Printf.sprintf "exposition contains %s" family) found)
    [ "chc_serve_instances_total"; "chc_serve_inflight";
      "chc_serve_throughput_ips"; "chc_serve_decision_latency_seconds";
      "chc_serve_frames_total"; "chc_serve_frame_bytes_total" ]

(* --- leg 3: the daemon over a real socket ----------------------------- *)

let read_port daemon_out =
  (* first line: "chc_serve: listening on 127.0.0.1:PORT (...)" *)
  let line = input_line daemon_out in
  match String.rindex_opt line ':' with
  | None -> fail "cannot parse daemon banner: %s" line
  | Some i ->
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    (match int_of_string_opt (List.hd (String.split_on_char ' ' rest)) with
     | Some p -> p
     | None -> fail "cannot parse port from banner: %s" line)

let recv_response sock dec =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Frame.next dec with
    | Some payload ->
      let r = Codec.Wire.reader_of_string payload in
      Frame.read_response r
    | None ->
      (match Unix.read sock buf 0 (Bytes.length buf) with
       | 0 -> fail "daemon closed the connection early"
       | k ->
         Frame.feed dec (Bytes.sub_string buf 0 k);
         go ())
  in
  go ()

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* One admin scrape over its own connection on the daemon's frame
   port: the first bytes being ASCII "GET " must hijack the connection
   into the HTTP responder. Reads to EOF (Connection: close); [Error]
   carries the I/O error and the bytes read before it. *)
let try_scrape port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
       ignore (Unix.write_substring fd req 0 (String.length req));
       let b = Buffer.create 1024 in
       let buf = Bytes.create 8192 in
       let rec go () =
         match Unix.read fd buf 0 (Bytes.length buf) with
         | 0 -> Ok (Buffer.contents b)
         | k -> Buffer.add_subbytes b buf 0 k; go ()
         | exception Unix.Unix_error (e, _, _) ->
           Error (Unix.error_message e, Buffer.length b)
       in
       go ())

let scrape port path =
  match try_scrape port path with
  | Ok resp -> resp
  | Error (e, k) -> fail "scrape %s died (%s) after %d bytes" path e k

(* Right after many clients close, the daemon may still hold their
   descriptors and refuse a new connection it could not watch; retry
   until one is answered. *)
let scrape_answered port path =
  let rec go tries =
    match try_scrape port path with
    | Ok resp when contains ~sub:"HTTP/1.0 " resp -> resp
    | Ok _ | Error _ when tries > 0 ->
      Unix.sleepf 0.1;
      go (tries - 1)
    | Ok _ | Error _ -> fail "scrape %s never answered" path
  in
  go 50

let body_of resp =
  let rec find i =
    if i + 3 >= String.length resp then fail "no header/body boundary"
    else if String.sub resp i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let i = find 0 in
  String.sub resp i (String.length resp - i)

let json_member key j =
  match Codec.Json.member key j with
  | Some v -> v
  | None -> fail "statusz JSON lacks key %S" key

(* A 41-byte Submit frame announcing 2^55 inputs but carrying one: a
   decoder that sizes its input array from that count dies in
   Array.make. *)
let hostile_frame () =
  let b = Buffer.create 48 in
  List.iter (Codec.Wire.write_varint b) [ 0; 1 lsl 28; 4; 1; 1 ];
  List.iter (Codec.Wire.write_q b) [ Q.of_ints 1 100; Q.zero; Q.one ];
  Codec.Wire.write_varint b (1 lsl 55);
  Codec.Wire.write_vec b [| Q.half |];
  Frame.encode_frame (Buffer.contents b)

(* Send the hostile frame on its own connection. The daemon must close
   that connection without answering it, and keep accepting others. *)
let hostile_client port =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let with_conn f =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> f fd)
  in
  let frame = hostile_frame () in
  with_conn (fun fd ->
      Unix.connect fd addr;
      if Unix.write_substring fd frame 0 (String.length frame)
         <> String.length frame
      then fail "short write of the hostile frame";
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
      match Unix.read fd (Bytes.create 64) 0 64 with
      | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> ()
      | k -> fail "daemon answered the hostile frame with %d bytes" k
      | exception Unix.Unix_error (e, _, _) ->
        fail "hostile client still connected (%s)" (Unix.error_message e));
  with_conn (fun fd ->
      match Unix.connect fd addr with
      | () -> ()
      | exception Unix.Unix_error (e, _, _) ->
        fail "daemon gone after the hostile frame (%s)" (Unix.error_message e));
  check
    (Printf.sprintf "daemon dropped the %d-byte hostile client and lives"
       (String.length frame))
    true

(* Submit requests for [total] instances cycling through [mix]; the
   daemon-side job (crash-free, via job_of_request) is what a reference
   execution must run. *)
let requests ~seed ~mix total =
  let rng = Runtime.Rng.create seed in
  let mix = Array.of_list mix in
  List.init total (fun id ->
      let shape = mix.(id mod Array.length mix) in
      let j = Workload.job ~rng ~id shape in
      Frame.Submit
        { id; n = shape.Workload.n; f = shape.Workload.f;
          d = shape.Workload.d; eps = Q.of_ints 1 100; lo = Q.zero;
          hi = Q.one; inputs = j.Server.inputs })

let send sock req =
  let b = Buffer.create 256 in
  Frame.write_request b req;
  let frame = Frame.encode_frame (Buffer.contents b) in
  let n = Unix.write_substring sock frame 0 (String.length frame) in
  if n <> String.length frame then fail "short write to daemon"

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* Daemons spawned and not yet reaped. A failing check exits with them
   still running, where they would hold the smoke's output open (or
   spin, in a regression), so they are killed on the way out. *)
let live_daemons = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        !live_daemons)

(* Run [prog args] with its stdout piped back, without a shell in
   between, so the recorded pid is the program's. *)
let spawn prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  live_daemons := Unix.process_in_pid ic :: !live_daemons;
  ic

(* Read the daemon's stdout to EOF — it prints its exit banner after
   serving --limit instances — then reap it; true iff the banner came
   and it exited 0. Draining first keeps its final writes from racing
   our side of the pipe closing. *)
let await_exit daemon_out =
  let exited = ref false in
  (try
     while true do
       let line = input_line daemon_out in
       if contains ~sub:"instance(s) decided, exiting" line then
         exited := true
     done
   with End_of_file -> ());
  check "daemon printed its exit banner" !exited;
  let pid = Unix.process_in_pid daemon_out in
  live_daemons := List.filter (( <> ) pid) !live_daemons;
  match Unix.close_process_in daemon_out with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> fail "daemon exited with %d" c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> fail "daemon killed by signal %d" s

let log_events log_file =
  let ic = open_in log_file in
  let events = ref [] in
  (try
     while true do
       match Codec.Json.of_string (input_line ic) with
       | Ok j ->
         (match Codec.Json.member "event" j with
          | Some (Codec.Json.Str e) -> events := e :: !events
          | _ -> ())
       | Error _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  !events

let metric_value exposition name =
  String.split_on_char '\n' exposition
  |> List.find_map (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> float_of_string_opt v
      | _ -> None)

let socket_leg daemon_exe =
  let total = 200 in
  let log_file = Filename.temp_file "chc_serve_smoke" ".jsonl" in
  let daemon_out =
    spawn daemon_exe
      [ "listen"; "--port"; "0"; "--limit"; string_of_int total;
        "--log"; log_file; "--log-level"; "info" ]
  in
  let port = read_port daemon_out in
  Printf.printf "ok: daemon up on port %d\n%!" port;
  let sock = connect port in
  let requests = requests ~seed:99 ~mix:Workload.default_mix total in
  let jobs =
    List.map
      (fun req ->
         match Server.job_of_request req with
         | Ok j -> j
         | Error reason -> fail "smoke request rejected locally: %s" reason)
      requests
  in
  let send = send sock in
  (* the daemon must answer every submission with a Decision, and the
     decided polytope must equal an in-process execution of the same
     instance (both sides run it under the deterministic fifo schedule) *)
  let dec = Frame.decoder () in
  let got = Hashtbl.create total in
  let read_responses k =
    for i = 1 to k do
      match recv_response sock dec with
      | Frame.Decision { id; output; _ } -> Hashtbl.replace got id output
      | Frame.Rejected { id; reason } ->
        fail "daemon rejected instance %d: %s" id reason
      | exception Unix.Unix_error (e, _, _) ->
        fail "frame read %d/%d (have %d): %s" i k (Hashtbl.length got)
          (Unix.error_message e)
    done
  in
  (* two submission waves with the admin scrapes between them: the
     daemon cannot reach --limit before wave 2 is even submitted, so
     every scrape provably answers while instances are being served *)
  let wave1, wave2 =
    List.partition (fun (Frame.Submit { id; _ }) -> id < total / 2) requests
  in
  hostile_client port;
  List.iter send wave1;
  read_responses (total / 4);
  let metrics = scrape port "/metrics" in
  check "mid-run /metrics is 200"
    (contains ~sub:"HTTP/1.0 200 OK" metrics);
  List.iter
    (fun family ->
       check (Printf.sprintf "mid-run /metrics has %s" family)
         (contains ~sub:family metrics))
    [ "# TYPE chc_serve_instances_total counter";
      "chc_serve_decision_latency_seconds_bucket";
      "# TYPE chc_serve_violations_total counter";
      "chc_serve_inflight" ];
  List.iter send wave2;
  let statusz = scrape port "/statusz" in
  check "mid-run /statusz is 200"
    (contains ~sub:"HTTP/1.0 200 OK" statusz);
  check "second scrape counts the first"
    (contains ~sub:"chc_serve_admin_requests_total{endpoint=\"metrics\"}"
       (scrape port "/metrics"));
  (match Codec.Json.of_string (String.trim (body_of statusz)) with
   | Error e -> fail "statusz body does not parse: %s" e
   | Ok j ->
     List.iter
       (fun key -> ignore (json_member key j : Codec.Json.t))
       [ "uptime_s"; "shards"; "fuel"; "inflight"; "completed";
         "violations"; "decision_latency"; "shard"; "wal"; "memo"; "log" ];
     (match json_member "completed" j with
      | Codec.Json.Int c when c >= total / 4 -> ()
      | Codec.Json.Int c ->
        fail "statusz.completed = %d mid-run (< %d)" c (total / 4)
      | _ -> fail "statusz.completed is not an Int");
     check "statusz parses with all keys mid-run" true);
  let health = scrape port "/healthz" in
  check "mid-run /healthz is 200 ok"
    (contains ~sub:"HTTP/1.0 200 OK" health
     && contains ~sub:"\"status\":\"ok\"" (body_of health));
  read_responses (total - total / 4);
  Unix.close sock;
  await_exit daemon_out;
  check "all submissions answered" (Hashtbl.length got = total);
  let reference = Server.create ~shards:1 ~fuel:64 () in
  List.iter (Server.submit reference) jobs;
  let outcomes = Server.drain reference in
  List.iter
    (fun (o : Server.outcome) ->
       match Server.response_of_outcome o with
       | Frame.Decision { id; output; _ } ->
         (match Hashtbl.find_opt got id with
          | Some remote when Geometry.Polytope.equal remote output -> ()
          | Some _ -> fail "instance %d: socket and in-process decisions differ" id
          | None -> fail "instance %d never answered" id)
       | Frame.Rejected _ -> fail "reference execution rejected an instance")
    outcomes;
  Printf.printf "ok: %d socket decisions match in-process executions\n%!" total;
  (* every line of the daemon's structured log must be valid JSON with
     the envelope fields; the run must have logged decisions *)
  let ic = open_in log_file in
  let lines = ref 0 and decides = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       match Codec.Json.of_string line with
       | Error e -> fail "log line %d is not JSON (%s): %s" !lines e line
       | Ok j ->
         List.iter
           (fun key -> ignore (json_member key j : Codec.Json.t))
           [ "ts_ns"; "level"; "event" ];
         if Codec.Json.member "event" j = Some (Codec.Json.Str "decide")
         then incr decides
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove log_file;
  check
    (Printf.sprintf "daemon log: %d JSONL lines, %d decide events"
       !lines !decides)
    (!lines >= total && !decides = total)

(* --- leg 4: idle connections past select(2)'s reach ------------------- *)

(* [k] connections that never send a byte, paced below the daemon's
   listen backlog (64): a full accept queue drops SYNs, and each
   retransmit stalls connect for a second. *)
let open_idle port k =
  List.init k (fun i ->
      if i mod 48 = 47 then Unix.sleepf 0.02;
      match connect port with
      | fd -> fd
      | exception Unix.Unix_error (e, _, _) ->
        fail "idle connection %d of %d: %s (raise ulimit -n)" i k
          (Unix.error_message e))

(* select(2) cannot watch a descriptor at or past FD_SETSIZE (1024).
   With 1,030 idle connections held open, the daemon must close each
   one it cannot watch as it accepts it (or, with a lower descriptor
   limit, pause accepting), and still decide every instance of wave 1
   on the connection opened first. *)
let idle_flood_leg daemon_exe =
  let wave = 100 and idle = 1030 in
  let log_file = Filename.temp_file "chc_serve_smoke" ".jsonl" in
  let daemon_out =
    spawn daemon_exe
      [ "listen"; "--port"; "0"; "--limit"; string_of_int (wave + 1);
        "--log"; log_file; "--log-level"; "info" ]
  in
  let port = read_port daemon_out in
  let sock = connect port in
  let idlers = open_idle port idle in
  let reqs = requests ~seed:99 ~mix:Workload.default_mix (wave + 1) in
  let wave1, last =
    List.partition (fun (Frame.Submit { id; _ }) -> id < wave) reqs
  in
  List.iter (send sock) wave1;
  let dec = Frame.decoder () in
  for i = 1 to wave do
    match recv_response sock dec with
    | Frame.Decision _ -> ()
    | Frame.Rejected { id; reason } ->
      fail "idle flood: instance %d rejected: %s" id reason
    | exception Unix.Unix_error (e, _, _) ->
      fail "idle flood: response %d/%d: %s" i wave (Unix.error_message e)
  done;
  check
    (Printf.sprintf "wave 1 decided with %d idle connections held" idle)
    true;
  List.iter Unix.close idlers;
  let refused =
    Option.value ~default:0.
      (metric_value (scrape_answered port "/metrics")
         "chc_serve_connections_refused_total")
  in
  (* one more instance after the flood: the daemon keeps serving, and
     reaching --limit makes it exit and flush its log *)
  List.iter (send sock) last;
  (match recv_response sock dec with
   | Frame.Decision _ -> ()
   | Frame.Rejected { reason; _ } -> fail "post-flood instance: %s" reason);
  Unix.close sock;
  await_exit daemon_out;
  let events = log_events log_file in
  Sys.remove log_file;
  check
    (Printf.sprintf "connections past the daemon's reach refused (%.0f) or \
                     accepting paused"
       refused)
    (refused > 0. || List.mem "accept_paused" events)

(* --- leg 5: a WAL daemon out of descriptors ------------------------- *)

(* Seconds of CPU the process has used, from /proc (None elsewhere). *)
let cpu_s pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> None
  | ic ->
    let line = input_line ic in
    close_in ic;
    (* utime and stime are fields 14 and 15, in clock ticks (100 per
       second on Linux). Field 2, the command name, may hold spaces, so
       fields are counted from its closing parenthesis. *)
    let i = String.rindex line ')' in
    let fields =
      String.split_on_char ' '
        (String.sub line (i + 2) (String.length line - i - 2))
    in
    let ticks k = float_of_string (List.nth fields (k - 3)) in
    Some ((ticks 14 +. ticks 15) /. 100.)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* A --wal-dir daemon limited to 64 descriptors. Each live instance
   holds n WAL files, so a burst of submits runs it out: every submit
   must still be answered, with a Decision or a Rejected. Idle
   connections past the limit must pause accepting without spinning
   the select loop, and once they close the daemon must serve again. *)
let wal_exhaustion_leg daemon_exe =
  let burst = 30 and limit = 40 in
  let wal_dir = Filename.temp_file "chc_serve_smoke" ".wal" in
  Sys.remove wal_dir;
  let log_file = Filename.temp_file "chc_serve_smoke" ".jsonl" in
  (* sh execs the daemon, so the pid is the daemon's *)
  let daemon_out =
    spawn "sh"
      [ "-c"; "ulimit -n 64; exec \"$0\" \"$@\""; daemon_exe; "listen";
        "--port"; "0"; "--wal-dir"; wal_dir; "--limit"; string_of_int limit;
        "--log"; log_file; "--log-level"; "info" ]
  in
  let pid = Unix.process_in_pid daemon_out in
  let port = read_port daemon_out in
  let sock = connect port in
  let dec = Frame.decoder () in
  let shape = { Workload.n = 4; f = 1; d = 1; recover = false } in
  let reqs = Array.of_list (requests ~seed:5 ~mix:[ shape ] (burst + limit)) in
  let answer () =
    match recv_response sock dec with
    | Frame.Decision _ -> `Decided
    | Frame.Rejected _ -> `Rejected
    | exception Unix.Unix_error (e, _, _) ->
      fail "descriptor exhaustion: %s" (Unix.error_message e)
  in
  for id = 0 to burst - 1 do send sock reqs.(id) done;
  let answers = List.init burst (fun _ -> answer ()) in
  let decided = List.length (List.filter (( = ) `Decided) answers) in
  check
    (Printf.sprintf "burst of %d under 64 descriptors: %d decided, %d rejected"
       burst decided (burst - decided))
    (decided >= 1 && decided < burst);
  (* idle connections past the limit: accepting pauses; the loop must
     sleep in select, not spin on the readable listener *)
  let idlers = open_idle port 80 in
  Unix.sleepf 0.3;
  (match cpu_s pid with
   | None -> print_endline "note: no /proc, spin check skipped"
   | Some c0 ->
     Unix.sleepf 1.0;
     (match cpu_s pid with
      | Some c1 ->
        check
          (Printf.sprintf "paused daemon idles (%.2fs CPU in 1s)" (c1 -. c0))
          (c1 -. c0 < 0.5)
      | None -> fail "daemon vanished while paused"));
  List.iter Unix.close idlers;
  let health = scrape_answered port "/healthz" in
  check "healthz degraded with the WAL error"
    (contains ~sub:"503" health && contains ~sub:"open files" health);
  (* the rest one at a time: nothing else holds descriptors now, so
     each decides, and the last brings the daemon to --limit *)
  for id = burst to burst + (limit - decided) - 1 do
    send sock reqs.(id);
    match answer () with
    | `Decided -> ()
    | `Rejected -> fail "instance %d rejected after the burst drained" id
  done;
  Unix.close sock;
  await_exit daemon_out;
  let events = log_events log_file in
  Sys.remove log_file;
  rm_rf wal_dir;
  check "log records accept_paused and wal_error"
    (List.mem "accept_paused" events && List.mem "wal_error" events)

let () =
  in_process ();
  metric_families ();
  if Array.length Sys.argv > 1 then
    (* dune passes the daemon path relative to the rule's cwd; make it
       absolute so the shell spawning it does not consult PATH *)
    let daemon =
      if Filename.is_relative Sys.argv.(1) then
        Filename.concat (Sys.getcwd ()) Sys.argv.(1)
      else Sys.argv.(1)
    in
    begin
      socket_leg daemon;
      idle_flood_leg daemon;
      wal_exhaustion_leg daemon
    end
  else print_endline "note: no daemon path given, socket leg skipped";
  print_endline "serve smoke: all checks passed"
