module Q = Numeric.Q
module Polytope = Geometry.Polytope
module Transport = Runtime.Transport
module Sim = Runtime.Sim
module Crash = Runtime.Crash
module Config = Chc.Config
module Instance = Chc.Instance
module Recovery = Chc.Recovery
module Sink = Obs.Sink

type job = {
  id : int;
  config : Config.t;
  inputs : Geometry.Vec.t array;
  crash : Crash.plan array;
  round0 : Instance.round0_mode;
}

type outcome = {
  job : job;
  outputs : (Transport.pid * Polytope.t) list;
  t_end : int;
  steps : int;
  latency_s : float;
  recovered : Transport.pid list;
  resumed : bool;
}

(* --- metrics ----------------------------------------------------------- *)

let submitted_total =
  Obs.Metrics.counter "chc_serve_instances_total"
    ~help:"Lifecycle transitions of served instances, by status."
    ~labels:[ ("status", "submitted") ]

let decided_total =
  Obs.Metrics.counter "chc_serve_instances_total"
    ~labels:[ ("status", "decided") ]

let resumed_total =
  Obs.Metrics.counter "chc_serve_instances_total"
    ~labels:[ ("status", "resumed") ]

let inflight_gauge =
  Obs.Metrics.gauge "chc_serve_inflight"
    ~help:"Instances accepted and not yet decided, queued or started, \
           across all shards."

let throughput_gauge =
  Obs.Metrics.gauge "chc_serve_throughput_ips"
    ~help:"Decided instances per second over the last pump window."

let latency_hist =
  Obs.Metrics.histogram "chc_serve_decision_latency_seconds"
    ~help:"Submit-to-decision latency, on the monotonic clock."

let violations_total =
  Obs.Metrics.counter "chc_serve_violations_total"
    ~help:"Graded outcomes that violated a Theorem-2 property."

let wal_bytes_total =
  Obs.Metrics.counter "chc_serve_wal_bytes_total"
    ~help:"Bytes appended to per-process write-ahead logs."

let wal_errors_total =
  Obs.Metrics.counter "chc_serve_wal_errors_total"
    ~help:"WAL append/sync failures; the process degrades to non-durable."

(* --- jobs -------------------------------------------------------------- *)

let job_of_request (Frame.Submit { id; n; f; d; eps; lo; hi; inputs }) =
  match Config.make ~n ~f ~d ~eps ~lo ~hi with
  | exception Invalid_argument msg -> Error msg
  | config ->
    if Array.length inputs <> n then
      Error
        (Printf.sprintf "need %d inputs, got %d" n (Array.length inputs))
    else begin
      match Array.iter (Config.validate_input config) inputs with
      | () ->
        Ok
          { id; config; inputs; crash = Array.make n Crash.Never;
            round0 = `Stable_vector }
      | exception Invalid_argument msg -> Error msg
    end

let is_recover_plan = function
  | Crash.Crash_recover _ -> true
  | Crash.Never | Crash.After_sends _ | Crash.After_receives _ -> false

let graded_set job recovered =
  Chc.Grade.graded ~n:job.config.Config.n ~faulty:(Chc.Cc.fault_set job.crash)
    ~recovered:(fun i -> List.mem i recovered)

let response_of_outcome o =
  match o.outputs with
  | (_, output) :: _ ->
    Frame.Decision { id = o.job.id; t_end = o.t_end; output }
  | [] -> Frame.Rejected { id = o.job.id; reason = "no graded process decided" }

let grade o =
  let config = o.job.config in
  let graded = graded_set o.job o.recovered in
  if List.length o.outputs < List.length graded then
    Error
      (Printf.sprintf "termination: %d of %d graded processes decided"
         (List.length o.outputs) (List.length graded))
  else begin
    let hull = Chc.Grade.hull config o.job.inputs graded in
    (* processes that agree decide equal polytopes: grade each once *)
    let distinct = Polytope.distinct (List.map snd o.outputs) in
    match Chc.Grade.first_invalid ~hull distinct with
    | Some bad ->
      let i, _ = List.find (fun (_, h) -> Polytope.equal h bad) o.outputs in
      Error
        (Printf.sprintf "validity: process %d decided outside the correct hull"
           i)
    | None ->
      if List.length o.outputs < 2
         || Chc.Grade.agrees config (Chc.Grade.max_hausdorff2 distinct)
      then Ok ()
      else Error "agreement: pairwise Hausdorff distance at or above eps"
  end

(* --- the sharded multiplexer ------------------------------------------- *)

(* Every duration below is read off the monotonic clock: wall-clock
   time can step backwards under NTP and make a latency negative. *)
let seconds_since = Obs.Prof.seconds_since

(* Started instances a shard pumps at once. A job's instances are
   built only when it takes a slot, so they are allocated young and
   die young instead of waiting out the queue in the major heap; see
   DESIGN, "build on admission, two started per shard". Two, not one:
   while a slow instance holds one slot, the other keeps cycling
   through the queue. *)
let slots = 2

(* An accepted job in its shard's FIFO: what the client's answer and a
   restart depend on, but nothing it runs with yet. *)
type pending = {
  pjob : job;
  resume : Recovery.event list array option;
  wal : Sink.appender array option;
  inst_dir : string option;
  submitted_ns : int64;
}

(* A started job: its n instances over their private transport. *)
type running = {
  p : pending;
  insts : Instance.t array;
  sys : Instance.msg Sim.t;
  trace : Obs.Trace.t option;  (* armed when causal_k > 0 *)
}

type shard = {
  queue : pending Queue.t;  (** accepted, not yet started: the admission FIFO *)
  mutable live : running list;  (** started, at most [slots], start order *)
  mutable starved : int;  (* fuel debt: live jobs that ate a full budget
                             last pump and still did not finish *)
}

(* WAL telemetry shared with worker domains (appends run inside
   pump_shard), hence atomics. [appends_at_sync] snapshots the append
   count at the most recent sync anywhere: the difference to [appends]
   is the daemon's append lag — lines written past the last barrier. *)
type wal_stats = {
  ws_bytes : int Atomic.t;
  ws_appends : int Atomic.t;
  ws_syncs : int Atomic.t;
  ws_appends_at_sync : int Atomic.t;
  ws_errors : int Atomic.t;
  ws_last_error : string option Atomic.t;
}

type t = {
  shard_count : int;
  fuel : int;
  slow_s : float;
  causal_k : int;
  wal_dir : string option;
  shards_arr : shard array;
  live_ids : (int, unit) Hashtbl.t;
  created_ns : int64;
  ws : wal_stats;
  mutable violations : int;
  mutable slowest : (float * int * int * Obs.Trace.t) list;
      (* (latency_s, id, n, trace), slowest first, length <= causal_k *)
  mutable last_pump_ns : int64;
  mutable decided_count : int;
  mutable mark_ns : int64;
  mutable mark_decided : int;
}

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    match Unix.mkdir path 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | exception Unix.Unix_error (err, fn, _) ->
      raise
        (Sink.Write_error
           { path;
             message = Printf.sprintf "%s: %s" fn (Unix.error_message err) })
  end

let create ?shards ?(fuel = 64) ?(slow_s = 1.0) ?(causal_k = 0) ?wal_dir ()
  =
  let shard_count =
    match shards with Some s -> s | None -> Parallel.Pool.global_size ()
  in
  if shard_count < 1 then invalid_arg "Server.create: shards < 1";
  if fuel < 1 then invalid_arg "Server.create: fuel < 1";
  if causal_k < 0 then invalid_arg "Server.create: causal_k < 0";
  Option.iter mkdir_p wal_dir;
  { shard_count;
    fuel;
    slow_s;
    causal_k;
    wal_dir;
    shards_arr =
      Array.init shard_count (fun _ ->
          { queue = Queue.create (); live = []; starved = 0 });
    live_ids = Hashtbl.create 256;
    created_ns = Obs.Prof.now_ns ();
    ws =
      { ws_bytes = Atomic.make 0;
        ws_appends = Atomic.make 0;
        ws_syncs = Atomic.make 0;
        ws_appends_at_sync = Atomic.make 0;
        ws_errors = Atomic.make 0;
        ws_last_error = Atomic.make None };
    violations = 0;
    slowest = [];
    last_pump_ns = Obs.Prof.now_ns ();
    decided_count = 0;
    mark_ns = Obs.Prof.now_ns ();
    mark_decided = 0 }

let shards t = t.shard_count
let inflight t = Hashtbl.length t.live_ids
let completed t = t.decided_count
let violations t = t.violations
let wal_error t = Atomic.get t.ws.ws_last_error

let grade_count t o =
  match grade o with
  | Ok () -> Ok ()
  | Error reason ->
    t.violations <- t.violations + 1;
    Obs.Metrics.incr violations_total;
    Obs.Log.error "violation"
      [ ("id", Obs.Log.I o.job.id); ("reason", Obs.Log.S reason) ];
    Error reason

let note_wal_error t msg =
  Atomic.incr t.ws.ws_errors;
  Atomic.set t.ws.ws_last_error (Some msg);
  Obs.Metrics.incr wal_errors_total

(* Every served instance runs over Sim under the fifo schedule, whose
   in-flight messages wait in one global queue in send order. The
   schedule draws no randomness, so the seed is fixed. *)
let scheduler = Runtime.Scheduler.fifo
let seed = 0

(* Same arming rule as {!Chc.Cc.execute}, plus: a wal_dir or a resume
   always arms durability (the whole point of the daemon's WAL). *)
let wal_spec t ~resumed job =
  if t.wal_dir <> None || resumed || Array.exists is_recover_plan job.crash
  then Some Runtime.Wal.default_config
  else None

let submit t ?resume job =
  if Hashtbl.mem t.live_ids job.id then
    invalid_arg
      (Printf.sprintf "Server.submit: instance %d already live" job.id);
  let n = job.config.Config.n in
  if Array.length job.crash <> n then
    invalid_arg "Server.submit: need n crash plans";
  (* [Instance.create] checks the inputs too, but only once the shard
     starts the job, inside a pump: refuse here, where the caller can
     be told. *)
  Array.iter (Config.validate_input job.config) job.inputs;
  let shard_ix =
    ((job.id mod t.shard_count) + t.shard_count) mod t.shard_count
  in
  let inst_dir, wal =
    match t.wal_dir with
    | None -> (None, None)
    | Some root ->
      let dir = Filename.concat root (Printf.sprintf "inst-%d" job.id) in
      let fresh = not (Sys.file_exists dir) in
      let meta = Filename.concat dir "meta.json" in
      let wal_path pid =
        Filename.concat dir (Printf.sprintf "wal-%d.jsonl" pid)
      in
      let opened = ref [] in
      (match
         mkdir_p dir;
         (* The persisted scenario names the daemon's own schedule, so
            it replays (and re-grades) this execution. *)
         Chc.Scenario.save ~path:meta
           (Chc.Scenario.make ~config:job.config ~inputs:job.inputs
              ~crash:job.crash ~scheduler ~seed
              ~round0:job.round0
              ?wal:(wal_spec t ~resumed:(resume <> None) job) ());
         Array.init n (fun pid ->
             let ap = Sink.append_open ~path:(wal_path pid) in
             opened := ap :: !opened;
             ap)
       with
       | aps -> (Some dir, Some aps)
       | exception (Sink.Write_error { path; message } as e) ->
         (* Out of descriptors or disk: the instance never starts.
            Close what was opened and, if this submit created the
            directory, remove it (unlink and rmdir need no descriptor)
            so a restart does not resume an instance whose client saw
            it rejected. *)
         List.iter
           (fun ap -> try Sink.append_close ap with Sink.Write_error _ -> ())
           !opened;
         if fresh then begin
           List.iter
             (fun p -> try Sys.remove p with Sys_error _ -> ())
             (meta :: List.init n wal_path);
           try Unix.rmdir dir with Unix.Unix_error _ -> ()
         end;
         let msg = path ^ ": " ^ message in
         note_wal_error t msg;
         Obs.Log.error "wal_error"
           [ ("id", Obs.Log.I job.id); ("error", Obs.Log.S msg) ];
         raise e)
  in
  Queue.push
    { pjob = job; resume; wal; inst_dir; submitted_ns = Obs.Prof.now_ns () }
    t.shards_arr.(shard_ix).queue;
  Hashtbl.replace t.live_ids job.id ();
  Obs.Metrics.incr submitted_total;
  if resume <> None then Obs.Metrics.incr resumed_total;
  Obs.Metrics.set inflight_gauge (float_of_int (inflight t));
  if Obs.Log.enabled Obs.Log.Debug then
    Obs.Log.debug "submit"
      [ ("id", Obs.Log.I job.id);
        ("n", Obs.Log.I n);
        ("f", Obs.Log.I job.config.Config.f);
        ("d", Obs.Log.I job.config.Config.d);
        ("shard", Obs.Log.I shard_ix);
        ("resumed", Obs.Log.B (resume <> None)) ]

(* Admission: build the job's n instances and their system.
   Runs inside the shard's pump, so on a worker domain when there are
   several shards: it reads the server's settings and changes none of
   its state. *)
let start t p =
  let job = p.pjob in
  let n = job.config.Config.n in
  if Obs.Prof.enabled () then
    Obs.Prof.slice ~track:job.id ~ts_ns:p.submitted_ns
      ~dur_ns:(Int64.sub (Obs.Prof.now_ns ()) p.submitted_ns) "queued";
  let spec =
    Instance.spec ~round0:job.round0
      ?wal:(wal_spec t ~resumed:(p.resume <> None) job)
      job.config
  in
  let insts =
    Array.init n (fun i ->
        Instance.create spec ~me:i ~input:job.inputs.(i))
  in
  let wal_ok = Array.make n true in
  let trace =
    if t.causal_k > 0 then Some (Obs.Trace.create ()) else None
  in
  (* A WAL write error degrades this process to non-durable (no
     further appends, error recorded for /healthz and the counter)
     instead of killing the pump round: serving availability over
     durability of one instance. *)
  let wal_degrade pid exn =
    wal_ok.(pid) <- false;
    let msg =
      match exn with
      | Sink.Write_error { path; message } -> path ^ ": " ^ message
      | e -> Printexc.to_string e
    in
    note_wal_error t msg;
    Obs.Log.error "wal_error"
      [ ("id", Obs.Log.I job.id); ("pid", Obs.Log.I pid);
        ("error", Obs.Log.S msg) ]
  in
  let io (ep : Instance.msg Transport.ep) =
    let pid = ep.Transport.me in
    Instance.io ~send:ep.Transport.send
      ~broadcast:(fun m -> ep.Transport.broadcast m)
      ~sends:ep.Transport.sends
      ?on_wal:
        (Option.map
           (fun aps e ->
              if wal_ok.(pid) then begin
                let line = Recovery.event_to_string e in
                match Sink.append_line aps.(pid) line with
                | () ->
                  Atomic.incr t.ws.ws_appends;
                  ignore
                    (Atomic.fetch_and_add t.ws.ws_bytes
                       (String.length line + 1));
                  Obs.Metrics.add wal_bytes_total (String.length line + 1)
                | exception exn -> wal_degrade pid exn
              end)
           p.wal)
      ?on_sync:
        (Option.map
           (fun aps () ->
              if wal_ok.(pid) then begin
                match Sink.append_sync aps.(pid) with
                | () ->
                  Atomic.incr t.ws.ws_syncs;
                  Atomic.set t.ws.ws_appends_at_sync
                    (Atomic.get t.ws.ws_appends)
                | exception exn -> wal_degrade pid exn
              end)
           p.wal)
      ?emit:(Option.map Obs.Trace.emit trace)
      ()
  in
  let kickoff =
    match p.resume with
    | None -> Instance.start
    | Some entries ->
      fun inst -> Instance.restore inst ~entries:entries.(Instance.me inst)
  in
  let sys =
    Chc.Cc.system ?trace ~io ~kickoff ~crash:job.crash ~scheduler ~seed insts
  in
  { p; insts; sys; trace }

let finalize t r =
  let job = r.p.pjob in
  let recovered =
    List.filter (Sim.recovered_of r.sys) (List.init (Sim.n r.sys) Fun.id)
  in
  let outputs =
    graded_set job recovered
    |> List.filter_map (fun i ->
        Option.map (fun h -> (i, h)) (Instance.poll_decision r.insts.(i)))
  in
  let m = Sim.metrics r.sys in
  (match r.p.wal with Some aps -> Array.iter Sink.append_close aps | None -> ());
  (match r.p.inst_dir with
   | None -> ()
   | Some dir ->
     let marker =
       Printf.sprintf "{\"id\":%d,\"t_end\":%d,\"decided\":%d}" job.id
         (Instance.t_end r.insts.(0))
         (List.length outputs)
     in
     (* A lost marker only means a redundant (idempotent) resume. *)
     (match
        Sink.write_string ~path:(Filename.concat dir "decided.json") marker
      with
      | Ok () -> ()
      | Error msg -> Printf.eprintf "chc_serve: %s\n%!" msg));
  let latency_s = seconds_since r.p.submitted_ns in
  Obs.Metrics.observe latency_hist latency_s;
  Obs.Metrics.incr decided_total;
  let t_end = Instance.t_end r.insts.(0) in
  if Obs.Log.enabled Obs.Log.Info then
    Obs.Log.info "decide"
      [ ("id", Obs.Log.I job.id);
        ("t_end", Obs.Log.I t_end);
        ("steps", Obs.Log.I m.Sim.steps);
        ("decided", Obs.Log.I (List.length outputs));
        ("recovered", Obs.Log.I (List.length recovered));
        ("latency_s", Obs.Log.F latency_s) ];
  if latency_s > t.slow_s then
    Obs.Log.warn "slow_request"
      [ ("id", Obs.Log.I job.id);
        ("latency_s", Obs.Log.F latency_s);
        ("threshold_s", Obs.Log.F t.slow_s);
        ("steps", Obs.Log.I m.Sim.steps);
        ("t_end", Obs.Log.I t_end) ];
  if Obs.Prof.enabled () then begin
    (* envelope slice for the whole job on its own track *)
    let now = Obs.Prof.now_ns () in
    Obs.Prof.slice ~track:job.id ~ts_ns:r.p.submitted_ns
      ~dur_ns:(Int64.sub now r.p.submitted_ns)
      ~attrs:
        [ ("t_end", string_of_int t_end);
          ("steps", string_of_int m.Sim.steps) ]
      "job"
  end;
  { job;
    outputs;
    t_end;
    steps = m.Sim.steps;
    latency_s;
    recovered;
    resumed = r.p.resume <> None }

let pump_shard t shard =
  while
    List.compare_length_with shard.live slots < 0
    && not (Queue.is_empty shard.queue)
  do
    shard.live <- shard.live @ [ start t (Queue.pop shard.queue) ]
  done;
  let completed = ref [] in
  let starved = ref 0 in
  let still =
    List.filter
      (fun r ->
         let profiling = Obs.Prof.enabled () in
         let t0 = if profiling then Obs.Prof.now_ns () else 0L in
         let budget = ref t.fuel in
         while !budget > 0 && Sim.step r.sys do
           decr budget
         done;
         let consumed = t.fuel - !budget in
         if profiling && consumed > 0 then
           Obs.Prof.slice ~track:r.p.pjob.id ~ts_ns:t0
             ~dur_ns:(Int64.sub (Obs.Prof.now_ns ()) t0)
             ~attrs:[ ("steps", string_of_int consumed) ]
             "pump";
         if Sim.quiescent r.sys then begin
           completed := (finalize t r, r) :: !completed;
           false
         end
         else begin
           if !budget = 0 then incr starved;
           true
         end)
      shard.live
  in
  shard.live <- still;
  shard.starved <- !starved;
  List.rev !completed

(* Keep the [causal_k] slowest completed jobs' traces (latency
   descending). Runs on the pumping thread, after the parallel map. *)
let note_slowest t (o, r) =
  match r.trace with
  | None -> ()
  | Some tr ->
    let entry = (o.latency_s, o.job.id, o.job.config.Config.n, tr) in
    let merged =
      List.sort (fun (a, _, _, _) (b, _, _, _) -> compare b a)
        (entry :: t.slowest)
    in
    t.slowest <- List.filteri (fun i _ -> i < t.causal_k) merged

let pump t =
  let completed =
    Parallel.Pool.parallel_map
      (Parallel.Pool.global ())
      (pump_shard t)
      (Array.to_list t.shards_arr)
    |> List.concat
  in
  List.iter (note_slowest t) completed;
  let outcomes = List.map fst completed in
  List.iter (fun o -> Hashtbl.remove t.live_ids o.job.id) outcomes;
  t.decided_count <- t.decided_count + List.length outcomes;
  let now = Obs.Prof.now_ns () in
  t.last_pump_ns <- now;
  Obs.Metrics.set inflight_gauge (float_of_int (inflight t));
  let dt = Int64.to_float (Int64.sub now t.mark_ns) /. 1e9 in
  if dt >= 1.0 then begin
    Obs.Metrics.set throughput_gauge
      (float_of_int (t.decided_count - t.mark_decided) /. dt);
    t.mark_ns <- now;
    t.mark_decided <- t.decided_count
  end;
  outcomes

let slowest t =
  List.map
    (fun (latency_s, id, n, tr) ->
       (id, latency_s, Obs.Causal.analyze ~n tr))
    t.slowest

let drain ?(max_rounds = 100_000) t =
  let rec go rounds acc =
    if inflight t = 0 then List.rev acc
    else if rounds >= max_rounds then raise Sim.Step_limit_exceeded
    else go (rounds + 1) (List.rev_append (pump t) acc)
  in
  go 0 []

(* --- admin plane -------------------------------------------------------- *)

(* Floats render as strings: Codec.Json is exact (ints/strings only),
   and keeping the admin pages inside its vocabulary lets the tests
   parse every response with the in-repo decoder. *)
let json_ms s = Codec.Json.Str (Printf.sprintf "%.3f" (s *. 1000.))
let json_s s = Codec.Json.Str (Printf.sprintf "%.3f" s)

let healthz t () =
  let wal_err = wal_error t in
  let healthy = t.violations = 0 && wal_err = None in
  ( healthy,
    Codec.Json.Obj
      [ ("status", Codec.Json.Str (if healthy then "ok" else "degraded"));
        ("shards", Codec.Json.Int t.shard_count);
        ("inflight", Codec.Json.Int (inflight t));
        ("violations", Codec.Json.Int t.violations);
        ( "wal_error",
          match wal_err with
          | None -> Codec.Json.Null
          | Some m -> Codec.Json.Str m );
        ("uptime_s", json_s (seconds_since t.created_ns));
        ("since_last_pump_s", json_s (seconds_since t.last_pump_ns)) ] )

let statusz t () =
  let open Codec.Json in
  let uptime = seconds_since t.created_ns in
  let latency =
    match
      List.find_map
        (fun s ->
           match s.Obs.Metrics.value with
           | Obs.Metrics.Histogram h
             when s.Obs.Metrics.metric = "chc_serve_decision_latency_seconds"
             ->
             Some h
           | _ -> None)
        (Obs.Metrics.snapshot_all ())
    with
    | None -> Obj [ ("count", Int 0) ]
    | Some h ->
      Obj
        [ ("count", Int h.Obs.Metrics.count);
          ("p50_ms", json_ms h.Obs.Metrics.p50);
          ("p90_ms", json_ms h.Obs.Metrics.p90);
          ("p99_ms", json_ms h.Obs.Metrics.p99);
          ("max_ms", json_ms h.Obs.Metrics.max_seen) ]
  in
  let shard_rows =
    Array.to_list t.shards_arr
    |> List.map (fun s ->
        Obj
          [ ("live", Int (List.length s.live));
            ("queued", Int (Queue.length s.queue));
            ("fuel_starved", Int s.starved) ])
  in
  let wal =
    match t.wal_dir with
    | None -> Null
    | Some dir ->
      Obj
        [ ("dir", Str dir);
          ("bytes", Int (Atomic.get t.ws.ws_bytes));
          ("appends", Int (Atomic.get t.ws.ws_appends));
          ("syncs", Int (Atomic.get t.ws.ws_syncs));
          ( "append_lag",
            Int
              (Atomic.get t.ws.ws_appends
               - Atomic.get t.ws.ws_appends_at_sync) );
          ("errors", Int (Atomic.get t.ws.ws_errors));
          ( "last_error",
            match Atomic.get t.ws.ws_last_error with
            | None -> Null
            | Some m -> Str m ) ]
  in
  let memo =
    List
      (Parallel.Memo.all_stats ()
       |> Stdlib.List.map (fun (name, st) ->
           let total = st.Parallel.Memo.hits + st.Parallel.Memo.misses in
           Obj
             [ ("table", Str name);
               ("hits", Int st.Parallel.Memo.hits);
               ("misses", Int st.Parallel.Memo.misses);
               ( "hit_rate",
                 Str
                   (if total = 0 then "0.000"
                    else
                      Printf.sprintf "%.3f"
                        (float_of_int st.Parallel.Memo.hits
                         /. float_of_int total)) ) ]))
  in
  Obj
    [ ("uptime_s", json_s uptime);
      ("shards", Int t.shard_count);
      ("fuel", Int t.fuel);
      ("inflight", Int (inflight t));
      ("completed", Int t.decided_count);
      ("violations", Int t.violations);
      ( "throughput_avg_ips",
        json_s
          (if uptime > 0. then float_of_int t.decided_count /. uptime
           else 0.) );
      ("decision_latency", latency);
      ("shard", List shard_rows);
      ("wal", wal);
      ("memo", memo);
      ( "log",
        Obj
          [ ("dropped", Int (Obs.Log.dropped ()));
            ("pending", Int (Obs.Log.pending ())) ] );
      ("slow_threshold_ms", json_ms t.slow_s) ]

let admin_source t =
  { Admin.metrics = (fun () -> Obs.Metrics.exposition_all ());
    healthz = healthz t;
    statusz = statusz t }

(* --- restart discovery ------------------------------------------------- *)

let read_lines path =
  match open_in_bin path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    let lines = go [] in
    close_in_noerr ic;
    lines

(* Decode the longest well-formed prefix: a torn final line is the
   expected shape of a crash mid-append, and everything after a torn
   line is untrusted anyway (the disk-prefix model). *)
let decode_prefix ~dim ~path lines =
  let rec go acc = function
    | [] -> List.rev acc
    | "" :: rest -> go acc rest
    | line :: rest -> (
        match Recovery.event_of_string ~dim line with
        | Ok e -> go (e :: acc) rest
        | Error msg ->
          Printf.eprintf "chc_serve: %s: truncating at undecodable entry: %s\n%!"
            path msg;
          List.rev acc)
  in
  go [] lines

let scan_wal ~wal_dir =
  let dirs =
    match Sys.readdir wal_dir with
    | exception Sys_error _ -> [||]
    | names -> names
  in
  Array.to_list dirs
  |> List.filter_map (fun name ->
      match
        if String.length name > 5 && String.sub name 0 5 = "inst-" then
          int_of_string_opt
            (String.sub name 5 (String.length name - 5))
        else None
      with
      | None -> None
      | Some id ->
        let dir = Filename.concat wal_dir name in
        if
          (not (Sys.is_directory dir))
          || Sys.file_exists (Filename.concat dir "decided.json")
        then None
        else begin
          match Chc.Scenario.load (Filename.concat dir "meta.json") with
          | Error e ->
            Printf.eprintf "chc_serve: %s: skipping: %s\n%!" dir
              (Chc.Scenario.error_to_string e);
            None
          | Ok scen ->
            let config = scen.Chc.Scenario.config in
            let n = config.Config.n in
            let dim = config.Config.d in
            let entries =
              Array.init n (fun pid ->
                  let path =
                    Filename.concat dir (Printf.sprintf "wal-%d.jsonl" pid)
                  in
                  decode_prefix ~dim ~path (read_lines path))
            in
            (* A resumed run restarts every process from its log; the
               original crash plans already played out (or died with
               the daemon), so they do not re-arm. *)
            let job =
              { id; config; inputs = scen.Chc.Scenario.inputs;
                crash = Array.make n Crash.Never;
                round0 = scen.Chc.Scenario.round0 }
            in
            Some (job, entries)
        end)
  |> List.sort (fun (a, _) (b, _) -> compare a.id b.id)
