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
      inputs, and parse every line of the daemon's JSONL log. *)

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

(* One admin scrape over its own connection on the daemon's frame
   port: the first bytes being ASCII "GET " must hijack the connection
   into the HTTP responder. Reads to EOF (Connection: close). *)
let scrape port path =
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
         | 0 -> ()
         | k -> Buffer.add_subbytes b buf 0 k; go ()
         | exception Unix.Unix_error (e, _, _) ->
           fail "scrape %s died (%s) after %d bytes" path
             (Unix.error_message e) (Buffer.length b)
       in
       go ();
       Buffer.contents b)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

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

let socket_leg daemon_exe =
  let total = 200 in
  let log_file = Filename.temp_file "chc_serve_smoke" ".jsonl" in
  let daemon_out =
    Unix.open_process_in
      (Filename.quote_command daemon_exe
         [ "listen"; "--port"; "0"; "--limit"; string_of_int total;
           "--log"; log_file; "--log-level"; "info" ])
  in
  let port = read_port daemon_out in
  Printf.printf "ok: daemon up on port %d\n%!" port;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let rng = Runtime.Rng.create 99 in
  let mix = Array.of_list Workload.default_mix in
  (* requests as the daemon sees them; the daemon-side job (crash-free,
     via job_of_request) is what the reference execution must run *)
  let requests =
    List.init total (fun id ->
        let shape = mix.(id mod Array.length mix) in
        let j = Workload.job ~rng ~id shape in
        Frame.Submit
          { id; n = shape.Workload.n; f = shape.Workload.f;
            d = shape.Workload.d; eps = Q.of_ints 1 100; lo = Q.zero;
            hi = Q.one; inputs = j.Server.inputs })
  in
  let jobs =
    List.map
      (fun req ->
         match Server.job_of_request req with
         | Ok j -> j
         | Error reason -> fail "smoke request rejected locally: %s" reason)
      requests
  in
  let send req =
    let b = Buffer.create 256 in
    Frame.write_request b req;
    let frame = Frame.encode_frame (Buffer.contents b) in
    let n = Unix.write_substring sock frame 0 (String.length frame) in
    if n <> String.length frame then fail "short write to daemon"
  in
  (* the daemon must answer every submission with a Decision, and the
     decided polytope must equal an in-process execution of the same
     instance (both sides are deterministic FIFO loopbacks) *)
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
  (* drain the daemon's stdout to EOF (it must print the exit banner
     after serving --limit instances) before reaping it, so its final
     writes never race our side of the pipe closing *)
  let exited = ref false in
  (try
     while true do
       let line = input_line daemon_out in
       if contains ~sub:"instance(s) decided, exiting" line then
         exited := true
     done
   with End_of_file -> ());
  check "daemon printed its exit banner" !exited;
  (match Unix.close_process_in daemon_out with
   | Unix.WEXITED 0 -> ()
   | Unix.WEXITED c -> fail "daemon exited with %d" c
   | Unix.WSIGNALED s | Unix.WSTOPPED s -> fail "daemon killed by signal %d" s);
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
    socket_leg daemon
  else print_endline "note: no daemon path given, socket leg skipped";
  print_endline "serve smoke: all checks passed"
