(** Algorithm CC — the paper's asynchronous approximate convex hull
    consensus protocol (Section 4).

    Round 0: every process broadcasts its input through the
    {!Protocol.Stable_vector} primitive, waits for a stable view [R_i],
    forms the input multiset [X_i], and computes

    {[ h_i[0] = ∩_{C ⊆ X_i, |C| = |X_i| - f} H(C) ]}

    Rounds [1 .. t_end]: broadcast [h_i[t-1]]; on first hearing [n - f]
    round-[t] polytopes (own included), set [h_i[t]] to their equal-
    weight linear combination [L] and advance. [h_i[t_end]] is the
    decision.

    The [round0] parameter selects the ablation of experiment E6:
    [`Naive] replaces stable vector by "first [n - f] inputs heard",
    which is still safe (validity holds) but forfeits the containment
    property and hence the optimality guarantee of Theorem 3.

    Every execution is deterministic in (config, inputs, crash plans,
    scheduler, seed). *)

module Q = Numeric.Q

type round0_mode = [ `Stable_vector | `Naive ]

type result = {
  t_end : int;
  outputs : Geometry.Polytope.t option array;
    (** decision per process; [None] when it crashed before deciding *)
  round0_views : (int * Geometry.Vec.t) list option array;
    (** [R_i] as (origin, input) pairs, sorted by origin; [None] when
        round 0 never completed at that process *)
  history : (int * Geometry.Polytope.t) list array;
    (** per process: [(t, h_i[t])] for every completed round, ascending *)
  senders : (int * int list) list array;
    (** per process: [(t, senders of the frozen MSG_i[t])] for rounds
        [t >= 1], ascending; sender lists in arrival order *)
  sent_round : (int * bool) list array;
    (** per process: did at least one round-[t] message reach a
        channel? (drives the paper's [F[t]] sets) *)
  crashed : bool array;
  recovered : bool array;
    (** per process: crashed and was revived (crash-recovery mode) *)
  redecided : int list;
    (** processes whose replayed decision differed from their first
        externalized one — always empty under a [Strict] WAL; the
        durability oracle's smoking gun under [Unsound] *)
  wal_log : Recovery.event list array;
    (** per process: surviving write-ahead log at quiescence (empty
        arrays when recovery mode is off) *)
  sends_attempted : int array;
    (** per process: sends that actually entered a channel *)
  receives_seen : int array;
    (** per process: messages delivered to (and processed by) it —
        together with [sends_attempted] this is what
        {!Runtime.Crash.clamp} needs from a crash-free probe run *)
  metrics : Runtime.Sim.metrics;
}

val execute :
  ?trace:Obs.Trace.t ->
  ?prefix:(int * int) list ->
  ?round0:round0_mode ->
  ?wal:Runtime.Wal.config ->
  config:Config.t ->
  inputs:Geometry.Vec.t array ->
  crash:Runtime.Crash.plan array ->
  scheduler:Runtime.Scheduler.t ->
  seed:int ->
  unit ->
  result
(** Run one complete execution to quiescence. [prefix] forces the head
    of the delivery schedule (see [Runtime.Sim.create]) — the replay
    hook behind [chc_sim replay] and the fuzzer's shrinker.
    When a [trace] is given, the full transcript is recorded: the
    simulator's transport events plus protocol-level [Round_enter]
    (every computed [h_i[t]], round 0 included), [Stable] (stable
    vector stabilization) and [Decide] events. Executions are
    deterministic in (config, inputs, crash, scheduler, seed), so the
    recorded trace is byte-identical across re-runs and across
    parallel-pool sizes.

    {b Crash recovery.} When any plan is {!Runtime.Crash.Crash_recover}
    (or [wal] is given explicitly), every process keeps a
    {!Runtime.Wal} of its state-bearing deliveries ({!Recovery.event})
    with interleaved checkpoints, synced before every send and before
    deciding. A crashing process's log is truncated by the plan's
    disk-prefix choice; at revival the process replays the surviving
    prefix with sends muted, re-broadcasts its current round message,
    and broadcasts [Rejoin] — live processes answer directly with
    their round-0 knowledge and any round messages the rejoiner may
    have missed. Trace events are deduplicated across replay, so
    recovered executions still produce byte-identical transcripts.
    @raise Invalid_argument on malformed inputs (wrong count,
    dimension, or out-of-range coordinates). *)

val system :
  ?trace:Obs.Trace.t ->
  ?prefix:(int * int) list ->
  io:(Instance.msg Runtime.Transport.ep -> Instance.io) ->
  kickoff:(Instance.t -> Instance.effect list) ->
  crash:Runtime.Crash.plan array ->
  scheduler:Runtime.Scheduler.t ->
  seed:int ->
  Instance.t array ->
  Instance.msg Runtime.Sim.t
(** The n-instance system over {!Runtime.Sim}, one process per
    instance (process [i] is [insts.(i)]), not yet started. A process
    interprets its effects through one io, built by [io] from its
    endpoint on its first effects. [kickoff inst] is what it does at
    start ({!Instance.start} for a fresh execution, {!Instance.restore}
    for one reloaded from disk). Crash and recovery hooks go to
    {!Instance.crash} and {!Instance.recover}. [trace], [prefix],
    [crash], [scheduler] and [seed] are {!Runtime.Sim.create}'s.
    {!execute} runs this system to quiescence; the serving daemon pumps
    it with {!Runtime.Sim.step} under {!Runtime.Scheduler.fifo}. *)

val fault_set : Runtime.Crash.plan array -> int list
(** Indices with a non-[Never] plan — the model's faulty set [F]
    (faulty processes have incorrect inputs and may crash). *)

val round0_polytope :
  dim:int -> f:int -> Geometry.Vec.t list -> Geometry.Polytope.t
(** Line 5 of Algorithm CC on an explicit input multiset:
    [∩_{C ⊆ X, |C| = |X|-f} H(C)]. Non-empty whenever
    [|X| >= (d+1)f + 1] (Lemma 2, via Tverberg's theorem).
    @raise Failure if the intersection is empty (fewer points than the
    Tverberg guarantee requires). *)
