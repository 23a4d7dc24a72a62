(** Adversarial delivery schedulers as first-class, serializable
    strategies.

    The system model is fully asynchronous: at every step the adversary
    chooses any non-empty channel and delivers its head message (FIFO
    within a channel, reliable, exactly-once). A scheduler is that
    adversary. Every strategy usable here must be fair in the limit —
    every sent message is eventually delivered — which is all the model
    demands; the paper's theorems are quantified over {e all} such
    adversaries, so the fuzzer explores this space (see [lib/fuzz]).

    A strategy is a named value with serializable parameters: the pair
    [(name, params)] written by {!to_spec} and read back by {!of_spec}
    identifies the adversary exactly, which is what makes recorded
    scenarios replayable artifacts. Strategies may keep internal
    mutable state across picks; {!instantiate} creates a fresh instance
    per execution so replays are deterministic. New adversaries are
    added through {!register} (e.g. [Fuzz.Strategies.register_builtin]
    contributes delay-burst, stab-boundary and swarm mixtures). *)

type channel = { src : int; dst : int }

type pick_fn =
  rng:Rng.t -> step:int -> candidates:(channel * int) list -> channel
(** One scheduling decision: choose a candidate channel. Each candidate
    carries the send sequence number of its head message; the list is
    non-empty and given in deterministic (src, dst) order. *)

type t = {
  name : string;         (** registry key, e.g. ["lag"] *)
  params : string;       (** serializable parameters, e.g. ["0,1"] *)
  fresh : unit -> pick_fn;
      (** a fresh instance; per-execution mutable state lives in the
          returned closure *)
}

val make : name:string -> ?params:string -> (unit -> pick_fn) -> t
(** A strategy with per-execution state created by the thunk. *)

val stateless : name:string -> ?params:string -> pick_fn -> t
(** A strategy whose pick function needs no per-execution state. *)

val name : t -> string
val params : t -> string

val to_spec : t -> string
(** Canonical textual form: [name] or [name:params]. Inverse of
    {!of_spec} for registered strategies. *)

val equal : t -> t -> bool
(** Equality of canonical specs (the pick closures are not compared). *)

val instantiate : t -> pick_fn
(** A fresh pick function for one execution. The returned function
    raises [Invalid_argument] on an empty candidate list. *)

(** {1 The four core adversaries} *)

val random_uniform : t
(** uniform choice among non-empty channels *)

val round_robin : t
(** cycles deterministically over channels *)

val lifo_bias : t
(** prefers the channel whose head message was sent last — an
    out-of-order-heavy schedule that stresses round buffering *)

val fifo : t
(** global send order: always deliver the oldest in-flight message.
    Not an adversary — it is the serving daemon's schedule. {!Sim}
    recognises this value (physically) and, with no replay prefix,
    keeps its in-flight messages in one global queue in send order
    instead of asking the pick; this pick stays the reference that the
    global queue must match, and the conformance suite runs it over
    per-channel queues as the oracle. *)

val lag_sources : int list -> t
(** messages {e from} the given processes are starved: delivered only
    when nothing else is pending. This is the adversary of the paper's
    Theorem 3 proof, which makes up to [f] processes "so slow that the
    other fault-free processes must terminate before receiving any
    messages" from them. *)

(** {1 Registry} *)

val register : name:string -> (string -> (t, string) result) -> unit
(** [register ~name ctor] makes [name\[:params\]] resolvable by
    {!of_spec}; [ctor params] builds the strategy or explains why the
    parameters are malformed. Re-registering a name replaces the
    previous constructor (idempotent registration is fine). *)

val registered : unit -> string list
(** Registered names, sorted. *)

val of_spec : string -> (t, string) result
(** Parse ["name"] or ["name:params"] against the registry. *)
