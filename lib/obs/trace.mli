(** Typed execution traces — the transcript of one simulated run.

    The paper's model makes an execution a pure function of
    (config, inputs, seed, adversary), so a recorded event trace is a
    complete, replayable artifact: re-running the same spec reproduces
    the same trace byte-for-byte, whatever the size of the domain
    pool (the pool runs whole jobs side by side; it never touches
    scheduling). The test suite and the
    [chc_sim trace] subcommand rely on exactly this.

    Layers emit into a trace through {!emit}:
    - [Runtime.Sim] records transport events (send / drop / deliver /
      dead-letter / crash);
    - [Protocol.Stable_vector] records view stabilization;
    - [Chc.Cc] records round transitions and decisions.

    Traces are owned by a single simulator loop and are not
    thread-safe; worker domains never emit. *)

type event =
  | Send of { src : int; dst : int; seq : int }
      (** message accepted into channel [src→dst]; [seq] is the global
          send sequence number *)
  | Drop of { src : int }
      (** a send swallowed because [src] has crashed *)
  | Deliver of { step : int; src : int; dst : int; seq : int }
      (** scheduler decision [step] delivered message [seq] *)
  | Dead_letter of { step : int; src : int; dst : int; seq : int }
      (** delivery to an already-crashed receiver *)
  | Crash of { pid : int; sends : int }
      (** [pid] crashed after [sends] successful sends *)
  | Recover of { pid : int; step : int }
      (** [pid] revived from a {!Runtime.Crash.Crash_recover} crash at
          scheduler step [step] (its log replay and rejoin sends follow
          immediately) *)
  | Round_enter of { pid : int; round : int; vertices : int }
      (** [pid] computed [h_pid[round]] with that many hull vertices *)
  | Stable of { pid : int; view : int }
      (** [pid]'s stable vector stabilized on a [view]-entry view *)
  | Decide of { pid : int; round : int; vertices : int }
      (** [pid] decided (round = t_end) *)

type t

val create : unit -> t

val emit : t -> event -> unit
(** Append an event. O(1). *)

val length : t -> int

val events : t -> event list
(** In emission order. *)

val schedule : t -> (int * int) list
(** The run's scheduler decisions as (src, dst) channel choices, in
    order — the [Deliver] and [Dead_letter] events, which consume one
    decision each. Feeding this list back as [Runtime.Sim]'s [prefix]
    replays the recorded delivery order exactly; the fuzzer's shrinker
    uses truncations of it. *)

val event_to_json : event -> string
(** One compact JSON object, fixed key order, integer fields only —
    equal events render identically. *)

val to_jsonl : t -> string
(** One event per line, in emission order. *)

val output : out_channel -> t -> unit
