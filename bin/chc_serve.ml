(* chc_serve — the sharded multi-instance consensus daemon.

   One daemon multiplexes thousands of concurrent Algorithm CC
   instances, each over its own simulator in global send order, sharded
   across domains by the parallel pool (see lib/serve).

   Examples:
     dune exec bin/chc_serve.exe -- drive --instances 500 --concurrency 128
     dune exec bin/chc_serve.exe -- drive --wal-dir /tmp/chcwal --instances 50
     dune exec bin/chc_serve.exe -- resume --wal-dir /tmp/chcwal
     dune exec bin/chc_serve.exe -- listen --port 7465 --limit 100
     curl 127.0.0.1:7465/metrics      # admin plane, same port
     dune exec bin/chc_serve.exe -- listen --admin-port 9465 *)

open Cmdliner

module Cli = Chc.Cli
module Frame = Serve.Frame
module Admin = Serve.Admin
module Server = Serve.Server
module Workload = Serve.Workload

(* --- shared daemon flags --------------------------------------------- *)

let shards_arg =
  Arg.(value & opt (some int) None
       & info ["shards"] ~docv:"K"
           ~doc:"Number of instance shards, each pumped by one domain-pool \
                 task per round (default: the pool size, CHC_DOMAINS).")

let fuel_arg =
  Arg.(value & opt int 64
       & info ["fuel"] ~docv:"MSGS"
           ~doc:"Messages delivered per started instance per pump round \
                 — the per-instance latency vs cross-instance fairness \
                 dial. Each shard runs two started instances and queues \
                 the rest, so a pump round is at most twice $(docv) \
                 deliveries per shard.")

let wal_dir_arg =
  Arg.(value & opt (some string) None
       & info ["wal-dir"] ~docv:"DIR"
           ~doc:"Arm durability: every instance writes per-process WALs, \
                 a scenario file and a completion marker under \
                 $(docv)/inst-<id>/; a restarted daemon resumes the \
                 unfinished ones ($(b,chc_serve resume)).")

let metrics_arg =
  Arg.(value & flag
       & info ["metrics"]
           ~doc:"Print the Prometheus exposition of the full metrics \
                 registry when done.")

let print_metrics () = print_string (Obs.Metrics.exposition_all ())

let print_phase (p : Workload.phase) =
  Printf.printf
    "%-12s %6d instances  %7.2fs  %8.1f inst/s  p50 %6.1fms  p99 %6.1fms  \
     max %6.1fms  inflight<=%d\n"
    p.Workload.label p.Workload.instances p.Workload.wall_s
    p.Workload.throughput_ips
    (p.Workload.latency_p50_s *. 1e3)
    (p.Workload.latency_p99_s *. 1e3)
    (p.Workload.latency_max_s *. 1e3)
    p.Workload.max_inflight;
  List.iter (fun msg -> Printf.printf "  GRADE FAIL %s\n" msg)
    p.Workload.grade_failures

(* --- telemetry flags (log / profile / tracing), shared by every
   subcommand ----------------------------------------------------------- *)

type telem = {
  log_file : string option;
  log_level : string;
  log_rate : int option;
  slow_ms : int;
  profile_out : string option;
  causal_k : int;
}

let telem_term =
  let log_file =
    Arg.(value & opt (some string) None
         & info ["log"] ~docv:"FILE"
             ~doc:"Write structured JSONL logs (one JSON object per line) \
                   to $(docv), appending. Arms logging at --log-level.")
  in
  let log_level =
    Arg.(value & opt string "info"
         & info ["log-level"] ~docv:"LVL"
             ~doc:"Minimum level routed to --log: off, debug, info, warn \
                   or error. Without --log this flag is inert (logging \
                   stays disabled).")
  in
  let log_rate =
    Arg.(value & opt (some int) None
         & info ["log-rate"] ~docv:"N"
             ~doc:"Token-bucket rate limit: at most $(docv) log lines per \
                   second sustained (burst $(docv)); over-budget lines are \
                   dropped and counted (default 1000).")
  in
  let slow_ms =
    Arg.(value & opt int 1000
         & info ["slow-ms"] ~docv:"MS"
             ~doc:"Submit-to-decision latency above which an instance \
                   earns a warn-level slow_request log line.")
  in
  let profile_out =
    Arg.(value & opt (some string) None
         & info ["profile-out"] ~docv:"FILE"
             ~doc:"Enable the span profiler and write a Chrome \
                   trace-event / Perfetto JSON profile to $(docv) on \
                   exit; per-job slices land on one track per instance \
                   id. With --causal-k, critical-path sidecars go to \
                   $(docv).causal-<id>.json.")
  in
  let causal_k =
    Arg.(value & opt int 0
         & info ["causal-k"] ~docv:"K"
             ~doc:"Record per-job event traces and keep the $(docv) \
                   slowest jobs' traces; their happens-before critical \
                   paths are reported on exit (and written as JSON \
                   sidecars with --profile-out).")
  in
  Term.(const (fun log_file log_level log_rate slow_ms profile_out causal_k
                -> { log_file; log_level; log_rate; slow_ms; profile_out;
                     causal_k })
        $ log_file $ log_level $ log_rate $ slow_ms $ profile_out
        $ causal_k)

(* Arm logging/profiling per the flags; returns Error on a bad level.
   The daemon flushes the log between pump rounds; [teardown] drains
   whatever is left, dumps the profile and the causal sidecars. *)
let telem_setup t =
  match Obs.Log.level_of_string t.log_level with
  | Error msg -> Error ("--log-level: " ^ msg)
  | Ok lvl ->
    (match t.log_file with
     | None -> ()
     | Some path ->
       Obs.Log.open_file ~path;
       (match t.log_rate with
        | None -> ()
        | Some n -> Obs.Log.set_rate ~per_s:n ~burst:n);
       Obs.Log.set_level lvl);
    if t.profile_out <> None then Obs.Prof.set_enabled true;
    Ok ()

let telem_teardown t server =
  (match t.profile_out with
   | None ->
     if t.causal_k > 0 then
       List.iter
         (fun (id, latency_s, causal) ->
            Printf.printf
              "slowest: instance %-6d %.1fms  critical chain %d hop(s)\n"
              id (latency_s *. 1e3)
              (Obs.Causal.max_chain_length causal))
         (Server.slowest server)
   | Some path ->
     Obs.Prof.set_enabled false;
     let write path body =
       match Obs.Sink.write_string ~path body with
       | Ok () -> true
       | Error msg ->
         Printf.eprintf "chc_serve: %s\n%!" msg;
         false
     in
     if write path (Obs.Prof.to_chrome_json ()) then
       Printf.printf "chc_serve: profile (%d spans) written to %s\n"
         (Obs.Prof.span_count ()) path;
     List.iter
       (fun (id, _, causal) ->
          let spath = Printf.sprintf "%s.causal-%d.json" path id in
          if write spath (Obs.Causal.to_json causal) then
            Printf.printf "chc_serve: critical path of instance %d in %s\n"
              id spath)
       (Server.slowest server));
  if t.log_file <> None then Obs.Log.close ();
  Obs.Log.set_level None

let slow_s_of t = float_of_int t.slow_ms /. 1000.

(* --- periodic metrics exposition (drive / resume) --------------------- *)

let metrics_every_arg =
  Arg.(value & opt (some int) None
       & info ["metrics-every"] ~docv:"N"
           ~doc:"Every $(docv) pump rounds, write the full Prometheus \
                 exposition to --metrics-out (atomic replace — a \
                 textfile-collector snapshot). A pump round is at most \
                 twice --fuel deliveries per shard, so choose $(docv) \
                 by that, not by the number in flight.")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info ["metrics-out"] ~docv:"FILE"
           ~doc:"Destination snapshot file for --metrics-every.")

(* The per-pump hook: flush buffered log lines, and every [n] pumps
   snapshot the metrics registry. *)
let make_on_pump ~metrics_every ~metrics_out =
  let pumps = ref 0 in
  fun () ->
    incr pumps;
    Obs.Log.flush ();
    match (metrics_every, metrics_out) with
    | Some n, Some path when n > 0 && !pumps mod n = 0 ->
      (match Obs.Sink.write_string ~path (Obs.Metrics.exposition_all ()) with
       | Ok () -> ()
       | Error msg -> Printf.eprintf "chc_serve: metrics-out: %s\n%!" msg)
    | _ -> ()

let check_metrics_every ~metrics_every ~metrics_out k =
  match (metrics_every, metrics_out) with
  | Some _, None -> `Error (false, "--metrics-every needs --metrics-out")
  | Some n, Some _ when n < 1 -> `Error (false, "--metrics-every: must be >= 1")
  | _ -> k ()

(* --- drive: in-process synthetic workload ---------------------------- *)

let instances_arg =
  Arg.(value & opt int 200
       & info ["instances"] ~docv:"K"
           ~doc:"Consensus instances to complete.")

let concurrency_arg =
  Arg.(value & opt int 64
       & info ["concurrency"] ~docv:"K"
           ~doc:"Instances held in flight (closed-loop).")

let drive_cmd kernel seed shards fuel wal_dir metrics telem metrics_every
    metrics_out instances concurrency =
  Cli.with_kernel kernel @@ fun () ->
  if instances < 1 then `Error (false, "--instances: must be >= 1")
  else if concurrency < 1 then `Error (false, "--concurrency: must be >= 1")
  else
    check_metrics_every ~metrics_every ~metrics_out @@ fun () ->
    match telem_setup telem with
    | Error msg -> `Error (false, msg)
    | Ok () ->
      let server =
        Server.create ?shards ~fuel ~slow_s:(slow_s_of telem)
          ~causal_k:telem.causal_k ?wal_dir ()
      in
      Printf.printf
        "chc_serve drive: %d instances, concurrency %d, %d shard(s), fuel %d%s\n%!"
        instances concurrency (Server.shards server) fuel
        (match wal_dir with None -> "" | Some d -> ", wal " ^ d);
      let rng = Runtime.Rng.create seed in
      let phase =
        Workload.closed_loop
          ~on_pump:(make_on_pump ~metrics_every ~metrics_out)
          ~server ~rng ~mix:Workload.default_mix
          ~label:"closed" ~first_id:0 ~concurrency ~total:instances ()
      in
      print_phase phase;
      telem_teardown telem server;
      if metrics then print_metrics ();
      if phase.Workload.grade_failures = [] then `Ok ()
      else `Error (false, "Theorem 2 violations under load (see above)")

let drive_term =
  Term.(ret
          (const drive_cmd $ Cli.kernel_arg $ Cli.seed_arg
           $ shards_arg
           $ fuel_arg $ wal_dir_arg $ metrics_arg $ telem_term
           $ metrics_every_arg $ metrics_out_arg $ instances_arg
           $ concurrency_arg))

let drive_info =
  Cmd.info "drive"
    ~doc:"Run a synthetic closed-loop workload through an in-process daemon."
    ~man:
      [ `S Manpage.s_description;
        `P "Submits a deterministic mix of problem shapes — including \
            crash-recovery instances — keeps --concurrency of them in \
            flight until --instances have decided, grades every decision \
            against the paper's Theorem 2 properties on the spot, and \
            prints throughput and decision-latency percentiles. Exit \
            status is non-zero iff any instance violated a property." ]

(* --- resume: restart recovery from a WAL directory -------------------- *)

let resume_cmd kernel shards fuel wal_dir metrics telem metrics_every
    metrics_out =
  Cli.with_kernel kernel @@ fun () ->
  match wal_dir with
  | None -> `Error (false, "--wal-dir is required for resume")
  | Some dir ->
    check_metrics_every ~metrics_every ~metrics_out @@ fun () ->
    match telem_setup telem with
    | Error msg -> `Error (false, msg)
    | Ok () ->
      let pending = Server.scan_wal ~wal_dir:dir in
      Printf.printf "chc_serve resume: %d unfinished instance(s) under %s\n%!"
        (List.length pending) dir;
      if pending = [] then `Ok ()
      else begin
        let server =
          Server.create ?shards ~fuel ~slow_s:(slow_s_of telem)
            ~causal_k:telem.causal_k ~wal_dir:dir ()
        in
        List.iter
          (fun (job, entries) -> Server.submit server ~resume:entries job)
          pending;
        let on_pump = make_on_pump ~metrics_every ~metrics_out in
        let outcomes = ref [] in
        while Server.inflight server > 0 do
          outcomes := List.rev_append (Server.pump server) !outcomes;
          on_pump ()
        done;
        let outcomes = List.rev !outcomes in
        let failures =
          List.filter_map
            (fun o ->
               match Server.grade_count server o with
               | Ok () -> None
               | Error msg ->
                 Some
                   (Printf.sprintf "instance %d: %s" o.Server.job.Server.id
                      msg))
            outcomes
        in
        List.iter
          (fun o ->
             Printf.printf "instance %-6d decided after resume (t_end %d%s)\n"
               o.Server.job.Server.id o.Server.t_end
               (if o.Server.recovered = [] then ""
                else
                  Printf.sprintf ", recovered {%s}"
                    (String.concat ","
                       (List.map string_of_int o.Server.recovered))))
          outcomes;
        telem_teardown telem server;
        if metrics then print_metrics ();
        match failures with
        | [] -> `Ok ()
        | msgs -> `Error (false, String.concat "\n" msgs)
      end

let resume_term =
  Term.(ret
          (const resume_cmd $ Cli.kernel_arg $ shards_arg
           $ fuel_arg
           $ wal_dir_arg $ metrics_arg $ telem_term $ metrics_every_arg
           $ metrics_out_arg))

let resume_info =
  Cmd.info "resume"
    ~doc:"Finish instances a killed daemon left behind in its WAL directory."
    ~man:
      [ `S Manpage.s_description;
        `P "Scans --wal-dir for inst-<id> directories without a completion \
            marker, reloads each process's surviving write-ahead log, and \
            resubmits the instances through the crash-recovery rejoin path \
            (log replay with muted sends, then rejoin). Decisions are \
            graded against Theorem 2 before the daemon exits." ]

(* --- listen: the socket front-end ------------------------------------- *)

let port_arg =
  Arg.(value & opt int 7465
       & info ["port"] ~docv:"PORT"
           ~doc:"TCP port on 127.0.0.1 (0 picks an ephemeral port, \
                 printed on startup).")

let admin_port_arg =
  Arg.(value & opt (some int) None
       & info ["admin-port"] ~docv:"PORT"
           ~doc:"Also serve the admin endpoint (/metrics /healthz \
                 /statusz) on a dedicated 127.0.0.1 port (0: ephemeral, \
                 printed on startup). The main --port answers admin GETs \
                 either way.")

let limit_arg =
  Arg.(value & opt int 0
       & info ["limit"] ~docv:"K"
           ~doc:"Exit after deciding this many instances (0: run until \
                 killed). Lets tests and benchmarks drive a bounded \
                 session over a real socket.")

(* Write a whole frame; false if the client vanished mid-write. *)
let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off >= len then true
    else
      match Unix.write_substring fd s off (len - off) with
      | 0 -> false
      | k -> go (off + k)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        false
  in
  go 0

(* A fresh connection on the frame port is either a frame client or an
   admin scraper — decided by its first bytes ({!Admin.looks_like_http}:
   an ASCII method name can never begin a LEB128-framed stream). *)
type client_state =
  | Fresh
  | Frames of Frame.decoder
  | Http of Admin.conn

let listen_cmd kernel shards fuel wal_dir telem port admin_port limit =
  Cli.with_kernel kernel @@ fun () ->
  match telem_setup telem with
  | Error msg -> `Error (false, msg)
  | Ok () ->
    let server =
      Server.create ?shards ~fuel ~slow_s:(slow_s_of telem)
        ~causal_k:telem.causal_k ?wal_dir ()
    in
    let admin_src = Server.admin_source server in
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen sock 64;
    let actual_port =
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    Printf.printf
      "chc_serve: listening on 127.0.0.1:%d (%d shard(s), fuel %d)\n%!"
      actual_port (Server.shards server) fuel;
    let admin =
      Option.map (fun p -> Admin.create ~port:p admin_src) admin_port
    in
    (match admin with
     | Some a ->
       Printf.printf
         "chc_serve: admin on 127.0.0.1:%d (/metrics /healthz /statusz)\n%!"
         (Admin.port a)
     | None ->
       Printf.printf
         "chc_serve: admin GETs (/metrics /healthz /statusz) answered on \
          port %d\n%!"
         actual_port);
    let clients : (Unix.file_descr, client_state) Hashtbl.t =
      Hashtbl.create 16
    in
    (* instance id -> the connection that submitted it; a response for a
       vanished client is dropped (the WAL, if armed, still records the
       decision). *)
    let owner : (int, Unix.file_descr) Hashtbl.t = Hashtbl.create 256 in
    let buf = Bytes.create 65536 in
    let decided = ref 0 in
    (* Out of descriptors (EMFILE/ENFILE on accept), the listeners stay
       out of the select set until a descriptor is released: a client
       disconnects or a decided instance closes its WAL. A readable
       listener that cannot be accepted from would spin the loop. *)
    let accepting = ref true in
    let release () =
      if not !accepting then Obs.Log.info "accept_resumed" [];
      accepting := true;
      Option.iter Admin.resume_accepting admin
    in
    let drop fd =
      Hashtbl.remove clients fd;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      release ()
    in
    let respond fd resp =
      let b = Buffer.create 256 in
      Frame.write_response b resp;
      if not (write_all fd (Frame.encode_frame (Buffer.contents b))) then
        drop fd
    in
    let handle_payload fd payload =
      let r = Codec.Wire.reader_of_string payload in
      match Frame.read_request r with
      | Frame.Submit { id; _ } as req ->
        if not (Codec.Wire.reader_done r) then
          raise (Frame.Malformed "trailing bytes after request");
        (match Server.job_of_request req with
         | Error reason -> respond fd (Frame.Rejected { id; reason })
         | Ok job ->
           (match Server.submit server job with
            | () -> Hashtbl.replace owner id fd
            | exception Invalid_argument reason ->
              respond fd (Frame.Rejected { id; reason })
            | exception Obs.Sink.Write_error { path; message } ->
              let reason = "wal unavailable: " ^ path ^ ": " ^ message in
              respond fd (Frame.Rejected { id; reason })))
    in
    let feed_frames fd dec data =
      Frame.feed dec data;
      let rec frames () =
        match Frame.next dec with
        | Some payload ->
          handle_payload fd payload;
          if Hashtbl.mem clients fd then frames ()
        | None -> ()
      in
      try frames () with
      | Frame.Malformed msg | Codec.Wire.Malformed msg ->
        Printf.eprintf "chc_serve: dropping client (malformed: %s)\n%!" msg;
        drop fd
    in
    let feed_http fd conn data =
      match Admin.feed admin_src conn data with
      | `More -> ()
      | `Respond resp | `Bad resp ->
        ignore (write_all fd resp);
        drop fd
    in
    let serve_client fd =
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> drop fd
      | k ->
        let data = Bytes.sub_string buf 0 k in
        (match Hashtbl.find clients fd with
         | Fresh when Admin.looks_like_http data ->
           let conn = Admin.conn () in
           Hashtbl.replace clients fd (Http conn);
           feed_http fd conn data
         | Fresh ->
           let dec = Frame.decoder () in
           Hashtbl.replace clients fd (Frames dec);
           feed_frames fd dec data
         | Frames dec -> feed_frames fd dec data
         | Http conn -> feed_http fd conn data)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> drop fd
    in
    let finished () = limit > 0 && !decided >= limit in
    while not (finished ()) do
      let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] in
      let fds = if !accepting then sock :: fds else fds in
      let fds =
        match admin with None -> fds | Some a -> Admin.fds a @ fds
      in
      (* Busy only while instances are in flight; idle select blocks
         briefly so a killed --limit run still exits promptly. *)
      let timeout = if Server.inflight server > 0 then 0. else 0.05 in
      let ready, _, _ = Unix.select fds [] [] timeout in
      List.iter
        (fun fd ->
           match admin with
           | Some a when Admin.owns a fd -> Admin.handle_ready a fd
           | _ ->
             if fd == sock then begin
               match Admin.accept sock with
               | `Client cfd -> Hashtbl.replace clients cfd Fresh
               | `Refused -> ()
               | `Exhausted ->
                 accepting := false;
                 Obs.Log.warn "accept_paused"
                   [ ("reason", Obs.Log.S "out of file descriptors");
                     ("clients", Obs.Log.I (Hashtbl.length clients)) ]
             end
             else if Hashtbl.mem clients fd then serve_client fd)
        ready;
      let outcomes = Server.pump server in
      if outcomes <> [] && wal_dir <> None then release ();
      List.iter
        (fun (o : Server.outcome) ->
           incr decided;
           ignore (Server.grade_count server o : (unit, string) result);
           let id = o.Server.job.Server.id in
           (match Hashtbl.find_opt owner id with
            | Some fd when Hashtbl.mem clients fd ->
              respond fd (Server.response_of_outcome o)
            | Some _ | None -> ());
           Hashtbl.remove owner id)
        outcomes;
      Obs.Log.flush ()
    done;
    Hashtbl.iter
      (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
      clients;
    Option.iter Admin.close admin;
    Unix.close sock;
    Printf.printf "chc_serve: %d instance(s) decided, exiting\n" !decided;
    telem_teardown telem server;
    `Ok ()

let listen_term =
  Term.(ret
          (const listen_cmd $ Cli.kernel_arg $ shards_arg
           $ fuel_arg
           $ wal_dir_arg $ telem_term $ port_arg $ admin_port_arg
           $ limit_arg))

let listen_info =
  Cmd.info "listen"
    ~doc:"Serve consensus instances over a TCP socket."
    ~man:
      [ `S Manpage.s_description;
        `P "Clients speak length-prefixed binary frames (unsigned LEB128 \
            length, Codec.Wire payload): a Submit request names an \
            instance id, a problem shape (n, f, d, eps, bounds) and the \
            n input points; the daemon answers with a Decision frame \
            carrying the decided polytope, or a Rejected frame naming \
            the validation error. Instances from many clients run \
            concurrently, sharded across domains. A connection opening \
            with an HTTP GET is answered by the admin plane instead \
            (/metrics, /healthz, /statusz) — see also --admin-port." ]

(* --- entry ------------------------------------------------------------ *)

let () =
  (* a client closing mid-write must surface as EPIPE (handled in
     write_all), not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let info =
    Cmd.info "chc_serve" ~version:"1.0"
      ~doc:"Sharded multi-instance convex hull consensus daemon."
  in
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group info
            [ Cmd.v drive_info drive_term;
              Cmd.v resume_info resume_term;
              Cmd.v listen_info listen_term ])
     with
     | Obs.Sink.Write_error { path; message } ->
       Printf.eprintf "chc_serve: write failed: %s: %s\n" path message;
       74
     | Chc.Scenario.Data_error e ->
       Printf.eprintf "chc_serve: bad input data: %s\n"
         (Chc.Scenario.error_to_string e);
       65)
