(** One process of Algorithm CC as a sans-IO state machine.

    This is the protocol core of {!Cc}, inverted: instead of a closure
    handed to the simulator, an instance is a value that consumes
    inputs ({!start}, {!handle}, {!crash}, {!recover}) and produces an
    {!effect} list describing what must happen in the world — sends,
    trace events, WAL appends, write barriers. The same instance
    therefore runs unchanged over {!Runtime.Sim}, wired by {!Cc.system}
    for the executor and the serving daemon alike, and under plain unit
    tests with a recording interpreter.

    {b The effect contract.} Effects must be interpreted strictly in
    order, exactly once, via {!interpret} (which also resolves the two
    stateful effect forms): [Tracked] wraps a broadcast whose
    success/failure must be fed back into the instance's sent-round
    log, and [Defer] carries a protocol continuation that runs {e at
    its stream position}. Deferral is what preserves crash semantics
    bit-for-bit: a transport may crash the sender synchronously inside
    a send (budget exhausted → the driver calls {!crash} from its
    crash hook), and the code after that broadcast must observe the
    [down] flag exactly as the pre-refactor closure code did. Replay
    during {!recover} forces all continuations internally, so the
    effects returned by {!recover} are only the replay's trace events
    followed by the rejoin messages.

    Determinism: an instance's behaviour is a pure function of
    ({!spec}, [me], [input], the sequence of calls, and the interpreted
    send outcomes). {!Cc.execute} composes [n] instances with [Sim]
    and is byte-identical to the pre-split implementation; the digest
    corpora in [test/test_polytope.ml] (executor) and
    [test/test_serve.ml] (daemon) pin that. *)

type pid = Runtime.Transport.pid

type round0_mode = [ `Stable_vector | `Naive ]

type msg =
  | Sv of Geometry.Vec.t Protocol.Stable_vector.msg
      (** round-0 stable-vector view exchange *)
  | Input0 of Geometry.Vec.t     (** naive round-0 input broadcast *)
  | Round of int * Geometry.Polytope.t
      (** round-[t] message carrying the sender's [h\[t-1\]] *)
  | Rejoin of int
      (** "I recovered in round [r], answer me directly" *)

type effect =
  | Send of pid * msg
  | Broadcast of msg
      (** unit sends to all other processes, transport order *)
  | Trace of Obs.Trace.event
      (** protocol-level event ([Round_enter] / [Stable] / [Decide]) at
          its true position between the sends *)
  | Wal_append of Recovery.event
      (** mirror of an in-memory WAL append, for an external
          durability sink (the daemon's on-disk log) *)
  | Wal_sync
      (** mirror of the write barrier: an external sink must flush
          everything appended so far before the following sends *)
  | Tracked of { round : int; replace : bool; inner : effect list }
      (** interpret [inner], then record whether it put at least one
          message on a channel — resolved by {!interpret} via the
          [sends] counter *)
  | Defer of (unit -> unit)
      (** protocol continuation; {!interpret} forces it at this stream
          position (it pushes further effects, interpreted inline) *)

type io = {
  send : pid -> msg -> unit;
  broadcast : msg -> unit;
  sends : unit -> int;
      (** sends by this process that actually entered a channel —
          {!Runtime.Transport.ep}[.sends] under a real transport *)
  emit : Obs.Trace.event -> unit;
  on_wal : Recovery.event -> unit;
  on_sync : unit -> unit;
}
(** How {!interpret} talks to the world. *)

val io :
  ?emit:(Obs.Trace.event -> unit) ->
  ?on_wal:(Recovery.event -> unit) ->
  ?on_sync:(unit -> unit) ->
  send:(pid -> msg -> unit) ->
  broadcast:(msg -> unit) ->
  sends:(unit -> int) ->
  unit ->
  io
(** Build an {!io}; the observer callbacks default to no-ops. *)

type round0_table
(** The execution's round-0 polytopes, one per distinct view. *)

type spec = private {
  config : Config.t;
  round0 : round0_mode;
  wal : Runtime.Wal.config option;
      (** [Some _] arms durability (in-memory WAL + mirror effects);
          [None] keeps the WAL layer entirely out of the hot path.
          Must be [Some] for {!crash}/{!recover}/{!restore}. *)
  t_end : int;  (** [Bounds.t_end config], computed once for all [n] *)
  round0_table : round0_table;
      (** [h\[0\]] for each distinct view point multiset seen so far
          (at most [n] entries): the first process to finish round 0
          with a view computes it, and every later process with the
          same points gets the physically same polytope, counted by
          [chc_round0_total{result="computed"|"shared"}] *)
}
(** What all [n] instances of one execution share. (Deliberately not
    {!Scenario.t}: a scenario also fixes the transport-level crash
    plans, scheduler and seed, which are the {e driver's} business.) *)

val spec :
  ?round0:round0_mode -> ?wal:Runtime.Wal.config -> Config.t -> spec
(** Build a spec ([round0] defaults to [`Stable_vector], durability to
    off), precomputing the round bound, with an empty round-0
    table. Build one per execution: the table is mutable and must not
    be shared across domains. *)

type t

val create : spec -> me:pid -> input:Geometry.Vec.t -> t
(** A fresh process [me] with its own input (a process never needs the
    other inputs — that is the point of the protocol).
    @raise Invalid_argument if the input is malformed for the config. *)

val start : t -> effect list
(** The round-0 kickoff ([on_start] under a transport). Returns [[]]
    if the instance is {!down} (crashed before starting). *)

val handle : t -> src:pid -> msg -> effect list
(** One delivered message. Returns [[]] if the instance is {!down}
    (a real transport dead-letters such deliveries anyway). *)

val interpret : t -> io -> effect list -> unit
(** Run an effect list against the world, in order: resolves [Defer]
    continuations and [Tracked] send feedback against this instance.
    Effects must be interpreted by the instance that produced them,
    exactly once. *)

val crash : t -> keep:int -> unit
(** The transport's crash hook: mark the process down and let the
    disk-prefix adversary truncate the WAL to the synced prefix plus
    [keep] unsynced entries (no-op on the WAL when durability is not
    armed). Call synchronously at the crash point — mid-interpretation
    when a send exhausts the budget. *)

val recover : t -> effect list
(** Revival: replay the surviving WAL prefix with sends muted (their
    trace events still come out, in order), then rejoin — the returned
    effects re-externalize the current round and broadcast [Rejoin].
    @raise Invalid_argument if durability is not armed. *)

val restore : t -> entries:Recovery.event list -> effect list
(** Daemon-restart path: seed a {e fresh} instance's WAL with entries
    reloaded from disk (they become the durable prefix) and run the
    {!recover} replay-and-rejoin.
    @raise Invalid_argument if durability is not armed. *)

(** {1 Observers} *)

val poll_decision : t -> Geometry.Polytope.t option
(** The decision [h\[t_end\]], once reached. *)

val me : t -> pid
val down : t -> bool
val decided : t -> bool
val t_end : t -> int
val current_round : t -> int
(** 0 during round 0; [t_end + 1] once decided. *)

val view : t -> (int * Geometry.Vec.t) list option
(** The round-0 view [R_i] as (origin, input) pairs, once stable. *)

val history : t -> (int * Geometry.Polytope.t) list
(** [(t, h\[t\])] for every completed round, ascending. *)

val senders : t -> (int * int list) list
(** Frozen sender sets per round [t >= 1], ascending. *)

val sent_round : t -> (int * bool) list
(** Per-round "at least one copy escaped" flags (the paper's F[t]). *)

val redecided : t -> bool
(** A replayed decision differed from the first externalized one —
    always [false] under a [Strict] WAL. *)

val wal_entries : t -> Recovery.event list
(** Surviving WAL entries, oldest first; [[]] when durability is off. *)

(** {1 Geometry helper} *)

val round0_polytope :
  dim:int -> f:int -> Geometry.Vec.t list -> Geometry.Polytope.t
(** Line 5 of Algorithm CC on an explicit input multiset:
    [∩_{C ⊆ X, |C| = |X|-f} H(C)], by {!Geometry.Polytope.depth_region}.
    Non-empty whenever [|X| >= (d+1)f + 1] (Lemma 2, via Tverberg's
    theorem).
    @raise Failure if the intersection is empty (fewer points than the
    Tverberg guarantee requires). *)
