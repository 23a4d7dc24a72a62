(* The serving daemon's pieces in isolation: the frame codec (protocol
   messages and the client vocabulary, plus chunked reassembly), the
   sharded server end-to-end with Theorem 2 grading, and the
   kill-restart path (scan_wal + submit ~resume). *)

module Q = Numeric.Q
module Vec = Geometry.Vec
module Polytope = Geometry.Polytope
module Frame = Serve.Frame
module Server = Serve.Server
module Workload = Serve.Workload
module Instance = Chc.Instance

let vec l = Vec.make (List.map Q.of_string l)

let msg_roundtrip () =
  let poly =
    Polytope.of_points ~dim:2
      [ vec [ "0"; "0" ]; vec [ "1"; "0" ]; vec [ "1/2"; "3/4" ] ]
  in
  let msgs =
    [ Instance.Input0 (vec [ "1/3"; "2/7" ]);
      Instance.Round (5, poly);
      Instance.Rejoin 12;
      Instance.Sv
        (Protocol.Stable_vector.msg_of_entries
           [ (0, vec [ "0"; "1" ]); (2, vec [ "1/2"; "1/2" ]) ]) ]
  in
  List.iter
    (fun m ->
       let s = Frame.msg_to_string m in
       match Frame.msg_of_string s with
       | Error e -> Alcotest.failf "roundtrip failed: %s" e
       | Ok m' ->
         Alcotest.(check string) "msg roundtrips" s (Frame.msg_to_string m'))
    msgs;
  (* trailing garbage is Malformed, not silently ignored *)
  (match Frame.msg_of_string (Frame.msg_to_string (Instance.Rejoin 3) ^ "x") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "trailing bytes accepted");
  (* unsorted sv entries rejected *)
  let bad = Buffer.create 16 in
  Codec.Wire.write_varint bad 0;
  Codec.Wire.write_varint bad 2;
  Codec.Wire.write_varint bad 2;
  Codec.Wire.write_vec bad (vec [ "0"; "0" ]);
  Codec.Wire.write_varint bad 1;
  Codec.Wire.write_vec bad (vec [ "1"; "1" ]);
  (match Frame.msg_of_string (Buffer.contents bad) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unsorted sv view accepted")

let request_response_roundtrip () =
  let req =
    Frame.Submit
      { id = 42; n = 4; f = 1; d = 1;
        eps = Q.of_ints 1 100; lo = Q.zero; hi = Q.one;
        inputs =
          [| vec [ "0" ]; vec [ "1/4" ]; vec [ "1/2" ]; vec [ "1" ] |] }
  in
  let b = Buffer.create 64 in
  Frame.write_request b req;
  let r = Codec.Wire.reader_of_string (Buffer.contents b) in
  (match Frame.read_request r with
   | Frame.Submit { id; n; d; inputs; _ } ->
     Alcotest.(check int) "id" 42 id;
     Alcotest.(check int) "n" 4 n;
     Alcotest.(check int) "d" 1 d;
     Alcotest.(check int) "inputs" 4 (Array.length inputs);
     Alcotest.(check bool) "fully consumed" true (Codec.Wire.reader_done r));
  let poly = Polytope.of_points ~dim:1 [ vec [ "1/3" ]; vec [ "1/2" ] ] in
  List.iter
    (fun resp ->
       let b = Buffer.create 64 in
       Frame.write_response b resp;
       let r = Codec.Wire.reader_of_string (Buffer.contents b) in
       (match (resp, Frame.read_response r) with
        | Frame.Decision { id; t_end; output },
          Frame.Decision { id = id'; t_end = t'; output = o' } ->
          Alcotest.(check int) "id" id id';
          Alcotest.(check int) "t_end" t_end t';
          Alcotest.(check bool) "output" true (Polytope.equal output o')
        | Frame.Rejected { id; reason }, Frame.Rejected { id = id'; reason = r' }
          ->
          Alcotest.(check int) "id" id id';
          Alcotest.(check string) "reason" reason r'
        | _ -> Alcotest.fail "response kind flipped");
       Alcotest.(check bool) "fully consumed" true (Codec.Wire.reader_done r))
    [ Frame.Decision { id = 7; t_end = 21; output = poly };
      Frame.Rejected { id = 8; reason = "n < (d+2)f + 1" } ]

(* Frames survive arbitrary chunk boundaries: three frames fed one
   byte at a time come back intact, in order. *)
let decoder_chunking () =
  let payloads = [ "alpha"; ""; String.make 300 'z' ] in
  let stream = String.concat "" (List.map Frame.encode_frame payloads) in
  let dec = Frame.decoder () in
  let got = ref [] in
  String.iteri
    (fun _ c ->
       Frame.feed dec (String.make 1 c);
       let rec drain () =
         match Frame.next dec with
         | Some p -> got := p :: !got; drain ()
         | None -> ()
       in
       drain ())
    stream;
  Alcotest.(check (list string)) "all frames, in order" payloads
    (List.rev !got);
  Alcotest.(check int) "nothing left over" 0 (Frame.pending dec)

(* A Submit frame that announces [count] inputs but carries one. With
   [count = 2^55] it is 41 bytes long. *)
let hostile_submit count =
  let b = Buffer.create 48 in
  List.iter (Codec.Wire.write_varint b) [ 0; 1 lsl 28; 4; 1; 1 ];
  List.iter (Codec.Wire.write_q b) [ Q.of_ints 1 100; Q.zero; Q.one ];
  Codec.Wire.write_varint b count;
  Codec.Wire.write_vec b (vec [ "1/2" ]);
  Frame.encode_frame (Buffer.contents b)

(* Frames whose counts exceed their bytes must decode to Malformed,
   which the daemon answers by dropping the client, and allocate next
   to nothing: neither an allocation failure that kills the daemon nor
   a count-sized buffer. test_codec covers the bigint and polytope
   counts inside a frame's payload. *)
let hostile_frames () =
  Alcotest.(check int) "2^55 Submit frame is 41 bytes" 41
    (String.length (hostile_submit (1 lsl 55)));
  let varints xs =
    let b = Buffer.create 16 in
    List.iter (Codec.Wire.write_varint b) xs;
    Buffer.contents b
  in
  let request r = ignore (Frame.read_request r : Frame.request) in
  let response r = ignore (Frame.read_response r : Frame.response) in
  List.iter
    (fun (name, payload, decode) ->
       let before = Gc.allocated_bytes () in
       let outcome =
         let dec = Frame.decoder () in
         Frame.feed dec payload;
         match Frame.next dec with
         | None -> "incomplete frame"
         | Some payload ->
           (match decode (Codec.Wire.reader_of_string payload) with
            | () -> "decoded"
            | exception (Frame.Malformed _ | Codec.Wire.Malformed _) ->
              "malformed"
            | exception e -> Printexc.to_string e)
       in
       let kib = (Gc.allocated_bytes () -. before) /. 1024. in
       Alcotest.(check string) (name ^ ": outcome") "malformed" outcome;
       Alcotest.(check bool)
         (Printf.sprintf "%s: %.1f KiB allocated (< 64)" name kib) true
         (kib < 64.))
    [ ("Submit count 2^55", hostile_submit (1 lsl 55), request);
      ("Submit count 2^32", hostile_submit (1 lsl 32), request);
      ("Submit count 2^26", hostile_submit (1 lsl 26), request);
      (* tag Rejected, id 8, reason length 2^55, one reason byte *)
      ("Rejected reason length 2^55",
       Frame.encode_frame (varints [ 1; 8; 1 lsl 55; Char.code 'x' ]),
       response) ]

let job shape ~id ~seed =
  let rng = Runtime.Rng.create seed in
  Workload.job ~rng ~id shape

(* A mixed batch through the server: everything decides, everything
   grades, ids round-trip, recovery instances report their revival. *)
let server_drain_and_grade () =
  let server = Server.create ~shards:2 ~fuel:16 () in
  let shapes =
    [ { Workload.n = 4; f = 1; d = 1; recover = false };
      { Workload.n = 5; f = 1; d = 2; recover = false };
      { Workload.n = 6; f = 1; d = 2; recover = true } ]
  in
  let started = Obs.Prof.now_ns () in
  List.iteri
    (fun id shape -> Server.submit server (job shape ~id ~seed:(100 + id)))
    shapes;
  Alcotest.(check int) "inflight" 3 (Server.inflight server);
  let outcomes = Server.drain server in
  let wall_s = Int64.to_float (Int64.sub (Obs.Prof.now_ns ()) started) /. 1e9 in
  Alcotest.(check int) "all decided" 3 (List.length outcomes);
  Alcotest.(check int) "none left" 0 (Server.inflight server);
  List.iter
    (fun (o : Server.outcome) ->
       if o.Server.latency_s < 0. || o.Server.latency_s > wall_s then
         Alcotest.failf "instance %d latency %gs outside [0, %gs]"
           o.Server.job.Server.id o.Server.latency_s wall_s;
       (match Server.grade o with
        | Ok () -> ()
        | Error msg ->
          Alcotest.failf "instance %d fails Theorem 2: %s"
            o.Server.job.Server.id msg);
       let recovery_job = o.Server.job.Server.id = 2 in
       Alcotest.(check bool)
         (Printf.sprintf "instance %d recovery" o.Server.job.Server.id)
         recovery_job
         (o.Server.recovered <> []);
       match Server.response_of_outcome o with
       | Frame.Decision { id; t_end; _ } ->
         Alcotest.(check int) "response id" o.Server.job.Server.id id;
         Alcotest.(check int) "response t_end" o.Server.t_end t_end
       | Frame.Rejected _ -> Alcotest.fail "decided instance rejected")
    outcomes;
  Alcotest.(check int) "completed counter" 3 (Server.completed server);
  (* duplicate live id rejected *)
  Server.submit server (job (List.hd shapes) ~id:50 ~seed:7);
  (match Server.submit server (job (List.hd shapes) ~id:50 ~seed:8) with
   | () -> Alcotest.fail "duplicate live id accepted"
   | exception Invalid_argument _ -> ());
  ignore (Server.drain server)

(* Grading looks at each distinct decision once, yet a validity failure
   still names the first offending process, and agreement still spans
   every pair of distinct decisions. *)
let grade_distinct_decisions () =
  let server = Server.create ~shards:1 ~fuel:16 () in
  let shape = { Workload.n = 4; f = 1; d = 1; recover = false } in
  Server.submit server (job shape ~id:0 ~seed:402);
  let o =
    match Server.drain server with
    | [ o ] -> o
    | _ -> Alcotest.fail "expected one outcome"
  in
  let decide f =
    { o with Server.outputs = List.map (fun (i, h) -> (i, f i h)) o.Server.outputs }
  in
  let far = Polytope.singleton (Vec.of_ints [ 5 ]) in
  (match Server.grade (decide (fun i h -> if i >= 2 then far else h)) with
   | Error msg ->
     Alcotest.(check string) "first offender"
       "validity: process 2 decided outside the correct hull" msg
   | Ok () -> Alcotest.fail "decision outside the hull graded Ok");
  let lo, hi =
    (Polytope.bounding_box
       (Polytope.of_points ~dim:1 (Array.to_list o.Server.job.Server.inputs))).(0)
  in
  let at x = Polytope.singleton (Vec.make [ x ]) in
  match Server.grade (decide (fun i _ -> if i = 0 then at lo else at hi)) with
  | Error msg ->
    Alcotest.(check bool) "agreement violated" true
      (String.starts_with ~prefix:"agreement" msg)
  | Ok () -> Alcotest.fail "decisions at opposite input extremes graded Ok"

let rm_rf dir =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* The kill-restart path: run half the batch to completion, abandon
   the server with the rest mid-flight (as a SIGKILL would), then
   scan the WAL directory from a fresh server and finish them through
   the restore path. Decisions must still grade. *)
let wal_restart () =
  let wal_dir = Filename.temp_file "chc_serve_test" "" in
  Sys.remove wal_dir;
  Fun.protect ~finally:(fun () -> rm_rf wal_dir) @@ fun () ->
  let shape = { Workload.n = 4; f = 1; d = 1; recover = false } in
  let first = Server.create ~shards:1 ~fuel:4 ~wal_dir () in
  for id = 0 to 3 do
    Server.submit first (job shape ~id ~seed:(200 + id))
  done;
  (* pump a little — enough for WALs to accumulate, nowhere near
     enough to finish — then walk away without closing anything *)
  for _ = 1 to 2 do
    ignore (Server.pump first)
  done;
  Alcotest.(check bool) "instances still in flight" true
    (Server.inflight first > 0);
  let pending = Server.scan_wal ~wal_dir in
  Alcotest.(check int) "scan finds exactly the unfinished"
    (Server.inflight first) (List.length pending);
  (* A shard starts two jobs at a time, so a job still queued at the
     kill left its meta.json and empty WALs behind, and resumes from
     nothing. *)
  let never_started =
    List.filter_map
      (fun ((j : Server.job), entries) ->
         let dir =
           Filename.concat wal_dir (Printf.sprintf "inst-%d" j.Server.id)
         in
         let empty pid =
           (Unix.stat (Filename.concat dir (Printf.sprintf "wal-%d.jsonl" pid)))
             .Unix.st_size = 0
         in
         if Array.for_all (( = ) []) entries
            && List.for_all empty (List.init (Array.length entries) Fun.id)
         then Some j.Server.id
         else None)
      pending
  in
  Alcotest.(check bool) "a pending job never started" true
    (never_started <> []);
  let second = Server.create ~shards:1 ~fuel:8 ~wal_dir () in
  List.iter
    (fun (j, entries) -> Server.submit second ~resume:entries j)
    pending;
  let outcomes = Server.drain second in
  Alcotest.(check int) "every resumed instance decides"
    (List.length pending) (List.length outcomes);
  List.iter
    (fun (o : Server.outcome) ->
       Alcotest.(check bool) "marked resumed" true o.Server.resumed;
       match Server.grade o with
       | Ok () -> ()
       | Error msg ->
         Alcotest.failf "resumed instance %d fails Theorem 2: %s"
           o.Server.job.Server.id msg)
    outcomes;
  List.iter
    (fun id ->
       Alcotest.(check bool)
         (Printf.sprintf "never-started instance %d decides on resume" id)
         true
         (List.exists
            (fun (o : Server.outcome) -> o.Server.job.Server.id = id)
            outcomes))
    never_started;
  (* after finishing, a second scan finds nothing *)
  Alcotest.(check int) "markers written" 0
    (List.length (Server.scan_wal ~wal_dir))

(* job_of_request validation speaks the CLI's vocabulary. *)
let request_validation () =
  let mk ?(n = 4) ?(f = 1) ?(d = 1) ?(inputs = 4) () =
    Frame.Submit
      { id = 0; n; f; d; eps = Q.of_ints 1 10; lo = Q.zero; hi = Q.one;
        inputs = Array.init inputs (fun i -> vec [ Printf.sprintf "%d/10" i ]) }
  in
  (match Server.job_of_request (mk ()) with
   | Ok j -> Alcotest.(check int) "valid request" 4 j.Server.config.Chc.Config.n
   | Error e -> Alcotest.failf "valid request rejected: %s" e);
  (match Server.job_of_request (mk ~n:3 ~inputs:3 ()) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "resilience violation accepted");
  (match Server.job_of_request (mk ~inputs:3 ()) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "wrong input count accepted")

let percentile () =
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.(check (float 1e-9)) "p50" 3. (Workload.percentile xs 0.5);
  Alcotest.(check (float 1e-9)) "p99" 5. (Workload.percentile xs 0.99);
  Alcotest.(check (float 1e-9)) "empty" 0. (Workload.percentile [] 0.5)

(* ------------------------------------------------------------------ *)
(* The admin plane. *)

module Admin = Serve.Admin

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let status_of resp =
  match String.index_opt resp '\r' with
  | Some i -> String.sub resp 0 i
  | None -> resp

let body_of resp =
  let rec find i =
    if i + 3 >= String.length resp then None
    else if String.sub resp i 4 = "\r\n\r\n" then Some (i + 4)
    else find (i + 1)
  in
  match find 0 with
  | Some i -> String.sub resp i (String.length resp - i)
  | None -> ""

(* Request-level routing, no sockets involved. *)
let admin_routing () =
  let ok_source =
    { Admin.metrics = (fun () -> "# TYPE chc_x counter\nchc_x 1\n");
      healthz = (fun () -> (true, Codec.Json.Obj [ ("status", Codec.Json.Str "ok") ]));
      statusz = (fun () -> Codec.Json.Obj [ ("inflight", Codec.Json.Int 0) ]) }
  in
  let req path = Admin.handle_request ok_source
      (Printf.sprintf "GET %s HTTP/1.0\r\nHost: x\r\n\r\n" path) in
  Alcotest.(check string) "metrics 200" "HTTP/1.0 200 OK"
    (status_of (req "/metrics"));
  Alcotest.(check bool) "metrics content-type versioned" true
    (contains ~sub:"text/plain; version=0.0.4" (req "/metrics"));
  Alcotest.(check string) "healthz 200" "HTTP/1.0 200 OK"
    (status_of (req "/healthz"));
  Alcotest.(check string) "statusz 200" "HTTP/1.0 200 OK"
    (status_of (req "/statusz"));
  Alcotest.(check string) "query string stripped" "HTTP/1.0 200 OK"
    (status_of (req "/metrics?refresh=1"));
  Alcotest.(check string) "unknown path 404" "HTTP/1.0 404 Not Found"
    (status_of (req "/favicon.ico"));
  Alcotest.(check string) "non-GET 405" "HTTP/1.0 405 Method Not Allowed"
    (status_of
       (Admin.handle_request ok_source "POST /metrics HTTP/1.0\r\n\r\n"));
  Alcotest.(check string) "garbage 400" "HTTP/1.0 400 Bad Request"
    (status_of (Admin.handle_request ok_source "NOT AN HTTP LINE\r\n\r\n"));
  (* unhealthy renders 503; a raising thunk renders 500, not a crash *)
  let sick =
    { ok_source with
      Admin.healthz =
        (fun () ->
           (false, Codec.Json.Obj [ ("status", Codec.Json.Str "degraded") ]));
      statusz = (fun () -> failwith "boom") }
  in
  Alcotest.(check string) "unhealthy 503" "HTTP/1.0 503 Service Unavailable"
    (status_of (Admin.handle_request sick "GET /healthz HTTP/1.0\r\n\r\n"));
  Alcotest.(check string) "raising thunk 500"
    "HTTP/1.0 500 Internal Server Error"
    (status_of (Admin.handle_request sick "GET /statusz HTTP/1.0\r\n\r\n"));
  (* frame-vs-http first-byte discrimination *)
  Alcotest.(check bool) "GET looks like http" true
    (Admin.looks_like_http "GET /metrics HTTP/1.0");
  Alcotest.(check bool) "LEB128 frame does not" false
    (Admin.looks_like_http (Frame.encode_frame "payload"))

(* Drive one HTTP exchange against a real listener, pumping it
   ourselves (the test is single-threaded, like the daemon's loop).
   [writes] lets callers split the request across TCP segments. *)
let http_exchange admin writes =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.connect fd
         (Unix.ADDR_INET (Unix.inet_addr_loopback, Admin.port admin));
       let b = Buffer.create 512 in
       let buf = Bytes.create 4096 in
       let deadline = Unix.gettimeofday () +. 5.0 in
       List.iter
         (fun w ->
            ignore (Unix.write_substring fd w 0 (String.length w));
            Admin.poll ~timeout:0.01 admin)
         writes;
       let rec drain () =
         if Unix.gettimeofday () > deadline then
           Alcotest.fail "admin response timed out";
         Admin.poll ~timeout:0.01 admin;
         match Unix.select [ fd ] [] [] 0.05 with
         | [ _ ], _, _ ->
           (match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> ()  (* server closed: response complete *)
            | k ->
              Buffer.add_subbytes b buf 0 k;
              drain ())
         | _ -> drain ()
       in
       drain ();
       Buffer.contents b)

(* The full admin stack over a real socket, against a server that has
   actually done work: scrape all three endpoints, split one request
   across writes, and parse statusz with the strict JSON decoder. *)
let admin_over_socket () =
  let server = Server.create ~shards:2 ~fuel:16 () in
  let shapes =
    [ { Workload.n = 4; f = 1; d = 1; recover = false };
      { Workload.n = 5; f = 1; d = 2; recover = false };
      { Workload.n = 6; f = 1; d = 2; recover = true } ]
  in
  List.iteri
    (fun id shape -> Server.submit server (job shape ~id ~seed:(300 + id)))
    shapes;
  let outcomes = Server.drain server in
  Alcotest.(check int) "workload decided" 3 (List.length outcomes);
  let admin = Admin.create ~port:0 (Server.admin_source server) in
  Fun.protect ~finally:(fun () -> Admin.close admin) @@ fun () ->
  Alcotest.(check bool) "ephemeral port bound" true (Admin.port admin > 0);
  let metrics = http_exchange admin [ "GET /metrics HTTP/1.0\r\n\r\n" ] in
  Alcotest.(check string) "metrics 200" "HTTP/1.0 200 OK"
    (status_of metrics);
  List.iter
    (fun family ->
       Alcotest.(check bool) (family ^ " exposed") true
         (contains ~sub:family (body_of metrics)))
    [ "# TYPE chc_serve_instances_total counter";
      "# HELP chc_serve_instances_total";
      (* no exact value: the registry is process-wide, and other tests
         in this binary also decide instances *)
      "chc_serve_instances_total{status=\"decided\"}";
      "chc_serve_decision_latency_seconds_bucket";
      "# TYPE chc_serve_violations_total counter" ];
  (* request split across TCP segments *)
  let health =
    http_exchange admin [ "GET /hea"; "lthz HTT"; "P/1.0\r\n\r\n" ]
  in
  Alcotest.(check string) "chunked healthz 200" "HTTP/1.0 200 OK"
    (status_of health);
  (match Codec.Json.of_string (String.trim (body_of health)) with
   | Error e -> Alcotest.failf "healthz body unparseable: %s" e
   | Ok j ->
     Alcotest.(check bool) "status ok" true
       (Codec.Json.member "status" j = Some (Codec.Json.Str "ok"));
     Alcotest.(check bool) "violations 0" true
       (Codec.Json.member "violations" j = Some (Codec.Json.Int 0)));
  let statusz = http_exchange admin [ "GET /statusz HTTP/1.0\r\n\r\n" ] in
  (match Codec.Json.of_string (String.trim (body_of statusz)) with
   | Error e -> Alcotest.failf "statusz body unparseable: %s" e
   | Ok j ->
     Alcotest.(check bool) "completed = 3" true
       (Codec.Json.member "completed" j = Some (Codec.Json.Int 3));
     Alcotest.(check bool) "inflight = 0" true
       (Codec.Json.member "inflight" j = Some (Codec.Json.Int 0));
     (match Codec.Json.member "shard" j with
      | Some (Codec.Json.List rows) ->
        Alcotest.(check int) "one row per shard" 2 (List.length rows)
      | _ -> Alcotest.fail "statusz.shard must be a list");
     List.iter
       (fun key ->
          Alcotest.(check bool) ("statusz has " ^ key) true
            (Codec.Json.member key j <> None))
       [ "uptime_s"; "fuel"; "decision_latency"; "wal"; "memo"; "log";
         "violations"; "slow_threshold_ms" ]);
  (* malformed request over the wire: a 400, not a hang or a crash *)
  let bad = http_exchange admin [ "completely wrong\r\n\r\n" ] in
  Alcotest.(check string) "malformed 400" "HTTP/1.0 400 Bad Request"
    (status_of bad)

(* A counted Theorem-2 violation flips /healthz to 503 and shows up in
   the violation counters; grading an honest outcome does not. *)
let healthz_degradation () =
  let server = Server.create ~shards:1 ~fuel:16 () in
  let shape = { Workload.n = 4; f = 1; d = 1; recover = false } in
  Server.submit server (job shape ~id:0 ~seed:400);
  (match Server.drain server with
   | [ o ] ->
     (match Server.grade_count server o with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "honest outcome misgraded: %s" msg)
   | _ -> Alcotest.fail "expected one outcome");
  let src = Server.admin_source server in
  Alcotest.(check string) "healthy before violation" "HTTP/1.0 200 OK"
    (status_of (Admin.handle_request src "GET /healthz HTTP/1.0\r\n\r\n"));
  (* a fabricated outcome with no decisions violates termination *)
  let bad_outcome =
    { Server.job = job shape ~id:99 ~seed:401;
      outputs = []; t_end = 0; steps = 0; latency_s = 0.;
      recovered = []; resumed = false }
  in
  (match Server.grade_count server bad_outcome with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "undecided outcome graded Ok");
  Alcotest.(check int) "violation counted" 1 (Server.violations server);
  let resp = Admin.handle_request src "GET /healthz HTTP/1.0\r\n\r\n" in
  Alcotest.(check string) "healthz degrades to 503"
    "HTTP/1.0 503 Service Unavailable" (status_of resp);
  (match Codec.Json.of_string (String.trim (body_of resp)) with
   | Error e -> Alcotest.failf "degraded healthz unparseable: %s" e
   | Ok j ->
     Alcotest.(check bool) "status string degraded" true
       (Codec.Json.member "status" j = Some (Codec.Json.Str "degraded"));
     Alcotest.(check bool) "violations visible" true
       (Codec.Json.member "violations" j = Some (Codec.Json.Int 1)))

(* Allocation ratchet for the delivery layer: minor words allocated
   per delivered message while Server drains crash-free jobs without a
   WAL. Once agreeing rounds do no geometry, this is the transport,
   effect and round-table machinery each message passes through. The
   count is the same on every run, so the ratchet catches a delivery
   regression at its own layer without timing noise. *)
let delivery_allocation () =
  List.iter
    (fun (label, shape, jobs, seed) ->
       let server = Server.create ~shards:1 ~fuel:64 () in
       let rng = Runtime.Rng.create seed in
       for id = 0 to jobs - 1 do
         Server.submit server (Workload.job ~rng ~id shape)
       done;
       let before = Gc.minor_words () in
       let outcomes = Server.drain server in
       let words = Gc.minor_words () -. before in
       Alcotest.(check int) (label ^ ": every job decided") jobs
         (List.length outcomes);
       let steps =
         List.fold_left (fun acc o -> acc + o.Server.steps) 0 outcomes
       in
       let per_message = words /. float_of_int steps in
       if per_message > 140. then
         Alcotest.failf
           "%s: %.1f minor words per delivered message (ratchet: 140)" label
           per_message)
    [ ("n4-d1", { Workload.n = 4; f = 1; d = 1; recover = false }, 40, 1);
      ("n6-d2", { Workload.n = 6; f = 1; d = 2; recover = false }, 10, 3) ]

(* GC ratchet under load: promoted words per decision while one shard
   holds 1,000 n4-d1 jobs in flight, with a new submit for every
   decision inside the measured window. A job whose instances are
   built at submit reaches the major heap before it runs, and every
   young object its run then links into it is promoted as well; built
   when it takes one of the shard's two slots, it lives and dies
   young. The count moves by under 1% from run to run and involves no
   clock, so the bound needs no timing margin: the eager-build parent
   reads about 9,700 and this shard about 1,800. *)
let promotion_under_load () =
  let server = Server.create ~shards:1 ~fuel:64 () in
  let shape = { Workload.n = 4; f = 1; d = 1; recover = false } in
  let rng = Runtime.Rng.create 5 in
  let next = ref 0 in
  let submit () =
    Server.submit server (Workload.job ~rng ~id:!next shape);
    incr next
  in
  for _ = 1 to 1000 do submit () done;
  let promoted () = (Gc.quick_stat ()).Gc.promoted_words in
  let before = promoted () in
  let decided = ref 0 in
  while !decided < 3000 do
    let outcomes = Server.pump server in
    decided := !decided + List.length outcomes;
    List.iter (fun _ -> submit ()) outcomes
  done;
  let per_decision = (promoted () -. before) /. float_of_int !decided in
  Alcotest.(check int) "1,000 still in flight" 1000 (Server.inflight server);
  ignore (Server.drain server);
  if per_decision > 4000. then
    Alcotest.failf
      "%.0f promoted words per decision at 1,000 in flight (ratchet: 4,000)"
      per_decision

(* Admission: a shard runs at most two started jobs, starts the rest
   in submission order as slots free, and a job's execution does not
   depend on when it started. *)
let admission () =
  let light = { Workload.n = 4; f = 1; d = 1; recover = false } in
  let heavy = { Workload.n = 6; f = 1; d = 2; recover = false } in
  let alone (j : Server.job) =
    let s = Server.create ~shards:1 ~fuel:64 () in
    Server.submit s j;
    match Server.drain s with
    | [ o ] -> o
    | _ -> Alcotest.fail "expected one outcome"
  in
  let same_as_alone (o : Server.outcome) =
    let a = alone o.Server.job in
    let id = o.Server.job.Server.id in
    Alcotest.(check int) (Printf.sprintf "%d: t_end" id) a.Server.t_end
      o.Server.t_end;
    Alcotest.(check int) (Printf.sprintf "%d: steps" id) a.Server.steps
      o.Server.steps;
    Alcotest.(check (list int)) (Printf.sprintf "%d: deciders" id)
      (List.map fst a.Server.outputs) (List.map fst o.Server.outputs);
    Alcotest.(check bool) (Printf.sprintf "%d: outputs" id) true
      (List.for_all2
         (fun (_, h) (_, h') -> Polytope.equal h h')
         a.Server.outputs o.Server.outputs)
  in
  let shard_rows server =
    match Codec.Json.member "shard" ((Server.admin_source server).Admin.statusz ()) with
    | Some (Codec.Json.List rows) ->
      List.map
        (fun row ->
           match (Codec.Json.member "live" row, Codec.Json.member "queued" row) with
           | Some (Codec.Json.Int live), Some (Codec.Json.Int queued) ->
             (live, queued)
           | _ -> Alcotest.fail "shard row lacks live/queued")
        rows
    | _ -> Alcotest.fail "statusz.shard must be a list"
  in
  (* pump to empty, checking the rows after every pump *)
  let drain_checked server =
    let acc = ref [] in
    while Server.inflight server > 0 do
      acc := List.rev_append (Server.pump server) !acc;
      let rows = shard_rows server in
      List.iter
        (fun (live, _) ->
           if live > 2 then Alcotest.failf "%d started on one shard" live)
        rows;
      Alcotest.(check int) "live + queued = inflight" (Server.inflight server)
        (List.fold_left (fun acc (l, q) -> acc + l + q) 0 rows)
    done;
    List.rev !acc
  in
  (* One shard: a heavy job first, then light ones that need fewer
     deliveries together than it does alone. *)
  let server = Server.create ~shards:1 ~fuel:64 () in
  let jobs =
    job heavy ~id:0 ~seed:500
    :: List.init 3 (fun k -> job light ~id:(k + 1) ~seed:(501 + k))
  in
  List.iter (Server.submit server) jobs;
  Alcotest.(check (list (pair int int))) "nothing starts before a pump"
    [ (0, 4) ] (shard_rows server);
  let outcomes = drain_checked server in
  let steps id =
    (List.find (fun (o : Server.outcome) -> o.Server.job.Server.id = id)
       outcomes).Server.steps
  in
  Alcotest.(check bool) "heavy job outweighs the rest" true
    (steps 0 > steps 1 + steps 2 + steps 3);
  Alcotest.(check (list int)) "light jobs pass the heavy one, in order"
    [ 1; 2; 3; 0 ]
    (List.map (fun (o : Server.outcome) -> o.Server.job.Server.id) outcomes);
  List.iter same_as_alone outcomes;
  (* Two shards, the daemon's mix, 16 at once. *)
  let server = Server.create ~shards:2 ~fuel:16 () in
  List.iteri
    (fun id shape -> Server.submit server (job shape ~id ~seed:(600 + id)))
    (List.concat [ Workload.default_mix; Workload.default_mix;
                   Workload.default_mix; [ light ] ]);
  let outcomes = drain_checked server in
  Alcotest.(check int) "all decided" 16 (List.length outcomes);
  List.iter same_as_alone outcomes;
  (* An input outside the job's bounds is refused at submit, not when
     a later pump would build the instance. *)
  let bad = job light ~id:99 ~seed:700 in
  let inputs = Array.copy bad.Server.inputs in
  inputs.(0) <- Vec.of_ints [ 2 ];
  (match Server.submit server { bad with Server.inputs } with
   | () -> Alcotest.fail "out-of-bounds input accepted"
   | exception Invalid_argument _ -> ());
  Alcotest.(check int) "nothing queued" 0 (Server.inflight server)

(* The daemon's bytes, pinned: [default_mix] jobs through the server,
   digested outcome by outcome (id, t_end, steps, recovered set,
   decisions) in id order, plus, with a [wal_dir], every file the
   daemon wrote, in sorted path order. A change to how served instances
   deliver, crash, recover or log shows up as a different digest. *)
let corpus_jobs count ~seed =
  let rng = Runtime.Rng.create seed in
  let mix = Array.of_list Workload.default_mix in
  List.init count (fun id ->
      Workload.job ~rng ~id mix.(id mod Array.length mix))

(* Keep [in_flight] jobs submitted until every job has decided. *)
let serve_corpus ?wal_dir ~shards ~in_flight jobs =
  let server = Server.create ~shards ~fuel:16 ?wal_dir () in
  let waiting = ref jobs in
  let rec top_up () =
    match !waiting with
    | j :: rest when Server.inflight server < in_flight ->
      Server.submit server j;
      waiting := rest;
      top_up ()
    | _ -> ()
  in
  let outcomes = ref [] in
  top_up ();
  while Server.inflight server > 0 do
    outcomes := List.rev_append (Server.pump server) !outcomes;
    top_up ()
  done;
  List.sort
    (fun (a : Server.outcome) (b : Server.outcome) ->
       compare a.Server.job.Server.id b.Server.job.Server.id)
    !outcomes

let outcome_bytes b (o : Server.outcome) =
  Printf.bprintf b "id=%d t_end=%d steps=%d recovered=[%s]\n"
    o.Server.job.Server.id o.Server.t_end o.Server.steps
    (String.concat "," (List.map string_of_int o.Server.recovered));
  List.iter
    (fun (i, h) -> Printf.bprintf b "%d: %s\n" i (Polytope.to_string h))
    o.Server.outputs

let rec files_under dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then
        List.map (Filename.concat name) (files_under path)
      else [ name ])

let digest_corpus ?wal_dir outcomes =
  let b = Buffer.create 65536 in
  List.iter (outcome_bytes b) outcomes;
  Option.iter
    (fun dir ->
       List.iter
         (fun rel ->
            Printf.bprintf b "== %s\n%s" rel
              (In_channel.with_open_bin (Filename.concat dir rel)
                 In_channel.input_all))
         (List.sort compare (files_under dir)))
    wal_dir;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_corpus () =
  let jobs = corpus_jobs 40 ~seed:31 in
  List.iter
    (fun shards ->
       Alcotest.(check string)
         (Printf.sprintf "40 jobs, 16 in flight, %d shard(s)" shards)
         "588f68a432b3d76556a42d06cad30971"
         (digest_corpus (serve_corpus ~shards ~in_flight:16 jobs)))
    [ 1; 2 ];
  (* The WAL leg is fsync-bound: one job per default_mix shape. *)
  let wal_dir = Filename.temp_file "chc_serve_pinned" "" in
  Sys.remove wal_dir;
  Fun.protect ~finally:(fun () -> rm_rf wal_dir) @@ fun () ->
  let outcomes =
    serve_corpus ~wal_dir ~shards:2 ~in_flight:16 (corpus_jobs 5 ~seed:32)
  in
  Alcotest.(check string) "5 jobs with a wal_dir"
    "8958b1292cc4c1e3be61e7b6b19e7f0d"
    (digest_corpus ~wal_dir outcomes)

(* What the daemon keeps once a job is graded, read from live words
   after a full major collection, before and after 60 more n6-d3 jobs
   are submitted, drained and graded. Grading builds each job's input
   hull, and a polytope engine that cached it would keep one certified
   dual per graded job until its table filled (about 870 words a job).
   Nothing a finished job built may stay reachable. *)
let graded_retention () =
  let server = Server.create ~shards:1 ~fuel:64 () in
  let shape = { Workload.n = 6; f = 1; d = 3; recover = false } in
  let rng = Runtime.Rng.create 17 in
  let next = ref 0 in
  let grade_jobs k =
    for _ = 1 to k do
      Server.submit server (Workload.job ~rng ~id:!next shape);
      incr next
    done;
    List.iter
      (fun o ->
         match Server.grade_count server o with
         | Ok () -> ()
         | Error e -> Alcotest.fail e)
      (Server.drain server)
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  grade_jobs 10;
  let before = live () in
  grade_jobs 60;
  let per_job = float_of_int (live () - before) /. 60. in
  if per_job > 100. then
    Alcotest.failf "%.0f live words retained per graded d=3 job (ratchet: 100)"
      per_job

let suite =
  [ ( "serve",
      [ Alcotest.test_case "protocol msg codec roundtrip" `Quick msg_roundtrip;
        Alcotest.test_case "request/response codec roundtrip" `Quick
          request_response_roundtrip;
        Alcotest.test_case "decoder survives chunking" `Quick decoder_chunking;
        Alcotest.test_case "server drain + Theorem 2 grade" `Slow
          (Gen.joins_global_pool server_drain_and_grade);
        Alcotest.test_case "kill-restart via scan_wal" `Slow wal_restart;
        Alcotest.test_case "request validation" `Quick request_validation;
        Alcotest.test_case "workload percentile" `Quick percentile;
        Alcotest.test_case "admin request routing" `Quick admin_routing;
        Alcotest.test_case "admin endpoints over a socket" `Slow
          (Gen.joins_global_pool admin_over_socket);
        Alcotest.test_case "healthz degradation on violation" `Quick
          healthz_degradation;
        Alcotest.test_case "grade checks distinct decisions" `Quick
          grade_distinct_decisions;
        Alcotest.test_case "hostile counts are Malformed" `Quick
          hostile_frames;
        Alcotest.test_case "delivery allocation ratchet" `Quick
          delivery_allocation;
        Alcotest.test_case "promotion under load ratchet" `Quick
          promotion_under_load;
        Alcotest.test_case "admission: two started per shard, FIFO" `Slow
          (Gen.joins_global_pool admission);
        Alcotest.test_case "pinned corpus" `Slow
          (Gen.joins_global_pool pinned_corpus);
        Alcotest.test_case "graded d=3 jobs retain nothing" `Quick
          graded_retention ] ) ]
