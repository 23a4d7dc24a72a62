(** The serving daemon's core: many concurrent Algorithm CC instances,
    each running over its own {!Runtime.Sim} transport, sharded across
    domains via {!Parallel.Pool}.

    One {!job} is one consensus instance — [n] sans-IO
    {!Chc.Instance}s wired to a private [Sim] by {!Chc.Cc.system}, the
    executor's own wiring, under {!Runtime.Scheduler.fifo}: in-flight
    messages wait in one global queue in send order, O(1) per event,
    and a WAL directory's [meta.json] records that schedule. Jobs are
    assigned to a shard by [id mod shards] and wait in the shard's
    admission FIFO. A shard runs at most two started jobs: at the start
    of every pump it builds the instances of the jobs at the head of
    its FIFO until both slots are full. {!pump} advances every shard
    in parallel (one pool task per shard, each delivering up to [fuel]
    messages per started instance), so throughput scales with domains
    while each instance's execution stays single-threaded and
    deterministic: its decision does not depend on when it started.
    Completed instances come back as {!outcome}s, which {!grade}
    checks against the paper's Theorem 2 properties.

    With a [wal_dir], every instance writes per-process WALs through
    {!Obs.Sink} appenders during execution (the {!Chc.Instance}
    [Wal_append]/[Wal_sync] mirror effects), plus a [meta.json]
    scenario and a [decided.json] completion marker — so a daemon
    killed mid-flight can {!scan_wal} on restart and resubmit the
    unfinished instances via the {!Chc.Instance.restore} rejoin path.

    Metrics: [chc_serve_instances_total{status}] counters,
    [chc_serve_inflight] gauge, [chc_serve_throughput_ips] gauge
    (decided instances per second over the last pump window), the
    [chc_serve_decision_latency_seconds] histogram, plus
    [chc_serve_violations_total] (see {!grade_count}),
    [chc_serve_wal_bytes_total] and [chc_serve_wal_errors_total].

    Telemetry rides along without touching execution:
    {!Obs.Log} lines for submit / decide / slow-request / WAL-error
    (no-ops unless a level is set), per-job {!Obs.Prof} slices
    ([queued] for the FIFO wait, [pump], [job] on track = instance id)
    when profiling is enabled, and — with [causal_k > 0] — retained
    {!Obs.Trace}s of the slowest jobs for {!slowest}'s critical-path
    analysis.
    {!admin_source} packages the live view for {!Admin}. *)

type job = {
  id : int;  (** unique per daemon run; names the WAL directory *)
  config : Chc.Config.t;
  inputs : Geometry.Vec.t array;
  crash : Runtime.Crash.plan array;
  round0 : Chc.Instance.round0_mode;
}

val job_of_request : Frame.request -> (job, string) result
(** Validate a client [Submit] into a crash-free job; [Error] carries
    the {!Frame.Rejected} reason (resilience bound violated, wrong
    input count, out-of-range coordinates). *)

type outcome = {
  job : job;
  outputs : (Runtime.Transport.pid * Geometry.Polytope.t) list;
      (** decisions of the graded (fault-free or recovered) processes,
          by pid ascending *)
  t_end : int;
  steps : int;         (** deliveries (scheduler steps) consumed *)
  latency_s : float;   (** submit-to-decision time, monotonic clock *)
  recovered : Runtime.Transport.pid list;
  resumed : bool;      (** went through the WAL restore path *)
}

val response_of_outcome : outcome -> Frame.response
(** [Decision] carrying the lowest-pid output, or [Rejected] if no
    graded process decided (cannot happen for jobs within the
    resilience bound). *)

val grade : outcome -> (unit, string) result
(** Theorem 2 over the outcome: termination (every graded process
    decided), validity (each output inside the hull of the graded
    processes' inputs) and ε-agreement (max pairwise squared Hausdorff
    distance [< ε²], exact). [Error] names the first violated
    property. *)

type t

val create :
  ?shards:int ->
  ?fuel:int ->
  ?slow_s:float ->
  ?causal_k:int ->
  ?wal_dir:string ->
  unit ->
  t
(** [shards] defaults to the global pool size; [fuel] (messages
    delivered per started instance per pump, default 64) trades
    per-instance latency against cross-instance fairness. A pump is at
    most [2 * fuel] deliveries per shard, however many jobs are in
    flight. [wal_dir] arms per-job durability (created if missing).
    [slow_s] (default 1.0) is the submit-to-decision latency above
    which an instance earns a [slow_request] log line. [causal_k]
    (default 0) arms per-job event traces and retains the [k] slowest
    jobs' traces for {!slowest} — tracing costs memory per started
    instance, so it is opt-in.
    @raise Invalid_argument if [shards < 1], [fuel < 1] or
    [causal_k < 0];
    @raise Obs.Sink.Write_error if [wal_dir] cannot be created. *)

val shards : t -> int

val inflight : t -> int
(** Jobs accepted by {!submit} and not yet decided: started ones and
    those still in their shard's FIFO. *)

val completed : t -> int
(** Lifetime decided-instance count. *)

val violations : t -> int
(** Gradings (via {!grade_count}) that failed so far — non-zero
    degrades [/healthz]. *)

val wal_error : t -> string option
(** Most recent WAL write failure, if any ("path: message"). A failed
    process keeps running but stops writing its log; the daemon serves
    on, degraded. *)

val grade_count : t -> outcome -> (unit, string) result
(** {!grade}, plus the telemetry side effects on [Error]: bump
    {!violations} and [chc_serve_violations_total], and emit an
    error-level [violation] log line. The serving paths use this;
    {!grade} stays pure for tests and offline re-grading. *)

val submit : t -> ?resume:Chc.Recovery.event list array -> job -> unit
(** Accept a job: append it to its shard's admission FIFO. Its
    instances are built only when the shard starts it, in a later
    {!pump}; a [wal_dir] server creates the job's directory,
    [meta.json] and WAL files here, so a job that never started
    resumes after a restart from empty WALs. With [resume], each
    process restores from the given WAL entries (the restart path)
    instead of starting fresh.
    @raise Invalid_argument on a duplicate live [id], a crash-plan
    array not of length [n], or an input outside the job's bounds.
    @raise Obs.Sink.Write_error if a [wal_dir] server cannot create the
    instance's files (out of descriptors, say): the job is then not
    enqueued, the files it opened are closed, the directory it created
    is removed, and the error shows on [/healthz] and in
    [chc_serve_wal_errors_total]. *)

val pump : t -> outcome list
(** One parallel pump round. Every shard first starts jobs from the
    head of its FIFO until two are started, then advances each started
    job's instances by up to [fuel] deliveries. Returns the jobs that
    reached quiescence during this round (decided, or dead-ended by
    unrecovered crashes), oldest-submission first within a shard. A
    slot freed in this round is filled at the next. *)

val drain : ?max_rounds:int -> t -> outcome list
(** Pump until nothing is in flight (default [max_rounds = 100_000]).
    The pumps needed grow with the queue, as each shard runs two jobs
    at a time.
    @raise Runtime.Sim.Step_limit_exceeded if instances are
    still live after [max_rounds] pumps. *)

val slowest : t -> (int * float * Obs.Causal.t) list
(** With [causal_k > 0]: the slowest completed jobs so far as
    [(id, latency_s, critical-path analysis)], latency descending, at
    most [causal_k] entries. Analysis runs on demand from the retained
    traces. Empty when tracing is off. *)

val admin_source : t -> Admin.source
(** The live telemetry view for the admin endpoint: [/metrics] is the
    process-wide {!Obs.Metrics.exposition_all}; [/healthz] is healthy
    iff no Theorem-2 violation has been counted and no WAL write has
    failed; [/statusz] is the full JSON status page (uptime, per-shard
    [live] (started jobs, at most two), [queued] (the admission FIFO's
    length) and [fuel_starved], decision-latency percentiles, WAL byte
    and append-lag counters, memo hit rates, log drop counts — floats
    rendered as strings to stay within {!Codec.Json}). The thunks read
    mutable daemon state, so call them from the thread that pumps —
    the daemon's select loop does exactly that. *)

val scan_wal : wal_dir:string -> (job * Chc.Recovery.event list array) list
(** Restart discovery: every [inst-<id>] subdirectory with a readable
    [meta.json] and no [decided.json] marker, as a job plus its
    per-process surviving WAL entries — ready for
    [submit ~resume]. Unreadable directories are skipped with a note
    on stderr, and each WAL is decoded up to its first undecodable
    line (a half-written tail is the expected crash shape, not an
    error — the disk-prefix model). Sorted by id. *)
