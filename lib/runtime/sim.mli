(** Deterministic discrete-event simulator of the paper's system model,
    and the only implementation of {!Transport}: [n] processes on a
    complete graph, reliable exactly-once FIFO channels, full
    asynchrony (an adversarial scheduler picks the next delivery), and
    crash faults with send budgets (see {!Crash}). The executor and the
    serving daemon both run their instances over it.

    An execution is a pure function of (handlers, crash plans,
    scheduler policy, seed): re-running with the same arguments yields
    the identical schedule, which the property-based tests and the
    experiment harness rely on.

    {b Two queue orders, one state machine.} How in-flight messages
    wait follows from the arguments to {!create}. Under
    {!Scheduler.fifo} with an empty [prefix] (the daemon's case) they
    wait in one global queue in send order, O(1) per event. Under any
    other scheduler, or [fifo] with a replay prefix, they wait in one
    queue per (src, dst) channel and the scheduler picks among the
    heads. Because sequence numbers come from one system-wide counter,
    the global queue delivers exactly what [fifo]'s pick would choose
    from the per-channel heads, so the transcript is the same byte for
    byte; the conformance suite pins that. Crash firing, revival,
    endpoints, delivery and metrics are shared by both orders.

    Processes are event-driven {!Transport.handlers}: [on_start] runs
    once for every process (including ones that crash immediately —
    their sends are dropped), then [on_receive] runs for each delivered
    message. Handlers interact with the world only through the
    {!Transport.ep} they are handed. *)

type pid = Transport.pid

type 'msg t

val create :
  ?trace:Obs.Trace.t ->
  ?prefix:(int * int) list ->
  ?on_crash:(pid -> keep:int -> unit) ->
  ?on_recover:('msg Transport.ep -> unit) ->
  n:int ->
  seed:int ->
  scheduler:Scheduler.t ->
  crash:Crash.plan array ->
  make:(pid -> 'msg Transport.handlers) ->
  unit ->
  'msg t
(** Build a system. [crash] must have length [n]. [make i] constructs
    process [i]'s handlers (captured state lives in the closure).
    When a [trace] is given, every transport event (send / drop /
    deliver / dead-letter / crash / recover, including crashed-at-start
    processes) is emitted into it in schedule order; tracing never
    changes the execution.

    [on_crash] and [on_recover] hook the crash-{e recovery} extension
    ({!Crash.Crash_recover} plans): [on_crash i ~keep] fires at the
    moment [i]'s crash triggers (synchronously, before any further
    event) carrying the plan's disk-prefix choice, so the durability
    layer can truncate [i]'s write-ahead log; [on_recover ep] fires at
    revival, with a live endpoint for process [ep.me] — replayed state
    re-enters the protocol by sending from inside this callback.
    Messages delivered while a process is down are dead-lettered
    (lost). Revival happens once the plan's [delay] scheduler steps
    have elapsed (due revivals in pid order), or immediately when the
    system would otherwise quiesce (the earliest due first; equal due
    steps go to the higher pid); the plan is then disarmed (at most
    one crash each). The plan array is copied, callers never observe
    the disarming.

    [prefix] is the replay-injection hook used by the fuzzer's
    shrinker: a list of (src, dst) channel choices forced on the
    scheduler, in order, before the strategy takes over. Each step
    consumes prefix entries until one names a currently non-empty
    channel (stale entries — e.g. after the shrinker removed the
    messages they referred to — are skipped deterministically); once
    the prefix is exhausted the configured scheduler decides. A prefix
    recorded from a run's transcript ({!Obs.Trace.schedule}) replays
    that run's delivery order exactly. *)

exception Step_limit_exceeded
(** Raised by {!run} after [max_steps] deliveries, and by
    [Serve.Server.drain] after [max_rounds] pumps: a liveness-bug
    guard. *)

val n : _ t -> int

val step : 'msg t -> bool
(** One event: run every [on_start] if not yet started, revive the
    processes whose revival has come due, then deliver one message, or,
    when nothing is in flight but a revival is pending, revive the
    earliest one (the simulated clock jumps). Returns [false] only at
    quiescence, and keeps returning [false] after it. The daemon pumps
    its instances with [step]. *)

val quiescent : 'msg t -> bool
(** Started, nothing in flight and no revival pending: {!step} would
    return [false]. *)

val run : ?max_steps:int -> 'msg t -> unit
(** {!step} until quiescence.
    @raise Step_limit_exceeded after [max_steps] deliveries
    (default [2_000_000]) — a liveness bug guard. *)

val crashed : 'msg t -> pid -> bool
(** Whether the process is crashed {e now} (a recovered process reads
    [false] again after revival). *)

val recovered_of : 'msg t -> pid -> bool
(** Whether the process crashed and was revived at least once. *)

val sends_of : 'msg t -> pid -> int
(** Number of sends by this process that actually entered a channel so
    far. Protocol layers use before/after deltas to tell whether a
    broadcast got at least one message out (the paper's
    ["sent a round-t message"] predicate behind [F[t]]). *)

val receives_of : 'msg t -> pid -> int
(** Number of messages actually delivered to (and processed by) this
    process so far. Drives {!Crash.After_receives} budgets and the
    crash-plan clamping of {!Crash.clamp}. *)

(** {1 Metrics} *)

type metrics = {
  sent : int;            (** messages accepted into channels *)
  dropped : int;         (** sends swallowed by crashes *)
  delivered : int;       (** messages handed to a live receiver *)
  dead_lettered : int;   (** deliveries to already-crashed receivers *)
  recoveries : int;      (** crash-recovery revivals performed *)
  steps : int;           (** scheduler decisions taken *)
}

val metrics : 'msg t -> metrics
