(** Synthetic workloads for the serving daemon — the generator behind
    experiment E15 and the serve smoke test.

    A workload is a {!mix} of problem shapes sampled round-robin, with
    inputs drawn deterministically from a seeded {!Runtime.Rng}, driven
    through a {!Server.t} in one of two classic load patterns:

    - {!closed_loop} holds a fixed number of instances in flight
      (decide one, submit the next) — the throughput measurement;
    - {!open_loop} submits at a fixed number of instances per pump
      regardless of completions — the latency-under-arrival-pressure
      measurement.

    Every completed instance is graded on the spot
    ({!Server.grade_count}, so violations also reach the metrics
    registry and the health page); a phase reports Theorem 2
    violations rather than hiding them in a throughput number.

    [on_pump] (both loops) runs after every pump round on the driving
    thread — the hook behind [--metrics-every] periodic exposition and
    the admin poller in [chc_serve drive]. *)

type mix_item = {
  n : int;
  f : int;
  d : int;
  recover : bool;
      (** arm a crash-recovery plan on process 0 (crash at its third
          delivery, revive 8 steps later, WAL intact) *)
}

val default_mix : mix_item list
(** Five shapes spanning the cheap-to-moderate range, one with
    recovery: (4,1,1), (5,1,2), (6,1,2), (6,1,3), (6,1,2)+recover. *)

val job : rng:Runtime.Rng.t -> id:int -> mix_item -> Server.job
(** One job of the given shape: ε = 1/100 over the unit box, inputs
    from {!Chc.Scenario.random_inputs}. Deterministic in the rng
    state. *)

type phase = {
  label : string;
  instances : int;       (** completed during the phase *)
  wall_s : float;
      (** phase duration on the monotonic clock the server times
          latencies with, so every latency is at most [wall_s] *)
  throughput_ips : float;  (** instances / wall_s *)
  latency_p50_s : float;
  latency_p99_s : float;
  latency_max_s : float;
  max_inflight : int;
  grade_failures : string list;
      (** one entry per instance that violated a Theorem 2 property —
          must be empty *)
}

val closed_loop :
  ?on_pump:(unit -> unit) ->
  server:Server.t ->
  rng:Runtime.Rng.t ->
  mix:mix_item list ->
  label:string ->
  first_id:int ->
  concurrency:int ->
  total:int ->
  unit ->
  phase
(** Keep [concurrency] instances in flight until [total] have
    completed. Ids are [first_id ..] (pass a fresh range per phase —
    ids must not collide with live instances). *)

val open_loop :
  ?on_pump:(unit -> unit) ->
  server:Server.t ->
  rng:Runtime.Rng.t ->
  mix:mix_item list ->
  label:string ->
  first_id:int ->
  per_pump:int ->
  pumps:int ->
  unit ->
  phase
(** Submit [per_pump] new instances before each of [pumps] pump
    rounds, then drain. *)

val percentile : float list -> float -> float
(** [percentile samples p] with [p] a fraction in [0, 1]: exact
    nearest-rank percentile on the sorted list; [0.] on an empty
    list. Exposed for the bench's JSON writer and tests. *)
