(** Low-overhead monotonic-clock span profiler.

    Wall-clock timing is deliberately kept {e out} of {!Trace}: traces
    are deterministic replay artifacts (byte-identical across pool
    sizes and machines), while spans measure one run of one machine.
    This module is the timing side: scoped spans recorded into
    per-domain buffers, merged only at export time, so worker domains
    never contend on a shared sink.

    Disabled (the default), {!with_span} runs its thunk directly after
    one atomic load — hot paths additionally guard with {!enabled} so
    the profiling-off cost is a branch, never a closure. Tier-1
    determinism is untouched: spans never influence scheduling, and
    nothing here writes into a {!Trace}.

    Timestamps come from the CLOCK_MONOTONIC stub of
    [bechamel.monotonic_clock] and are clamped to be non-decreasing
    per domain, so exported tracks are always well-formed. *)

val set_enabled : bool -> unit
(** Globally switch span recording. Enable before the workload, disable
    (and {!reset}) after export. *)

val enabled : unit -> bool
(** One atomic load — the hot-path guard. *)

val reset : unit -> unit
(** Drop every recorded span. Only call while no instrumented workload
    is running. *)

val now_ns : unit -> int64
(** The profiler's clock (CLOCK_MONOTONIC, ns) — for callers measuring
    {!slice} intervals themselves. *)

val seconds_since : int64 -> float
(** Seconds elapsed on {!now_ns}'s clock since an earlier reading —
    the interval timer for anything that must not step under NTP. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span. Exceptions still
    close the span (and re-raise), so begin/end events always match.
    Nested calls nest by stack order within their domain. *)

val slice :
  ?attrs:(string * string) list ->
  track:int ->
  ts_ns:int64 ->
  dur_ns:int64 ->
  string ->
  unit
(** A {e complete} slice ([ph:"X"]) on an explicit track — the
    serving daemon's per-job timelines, where one instance id is one
    Perfetto track whatever worker domain happened to pump it. The
    caller supplies the measured interval (take [ts_ns] from the same
    monotonic clock spans use). Slices are buffered on the recording
    domain but exported under a dedicated process id, grouped by
    [track]; they do not count toward {!span_count}. No-op while
    disabled. *)

(** {1 Export} *)

type event = {
  tid : int;                      (** recording domain's id *)
  phase : [ `B | `E | `X of int64 * int ];
  name : string;                  (** [""] on [`E] events *)
  ts_ns : int64;
      (** monotonic; non-decreasing per tid for [`B]/[`E] (explicit
          [`X] timestamps are the caller's) *)
  attrs : (string * string) list;
}

val events : unit -> event list
(** All recorded events, grouped by domain (tid ascending), in
    recording order within each domain. *)

val span_count : unit -> int
(** Completed spans recorded so far. *)

val to_chrome_json : unit -> string
(** Chrome trace-event / Perfetto JSON: one array of ["B"]/["E"]
    events, one pid (= tid) per domain, plus ["X"] complete slices
    under a dedicated track process (pid 1000000, tid = the slice's
    track); [ts] in microseconds rebased to the earliest event. Loads
    directly in [ui.perfetto.dev] or [chrome://tracing]. *)

type stat = {
  calls : int;
  total_ns : float;   (** inclusive time *)
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  max_ns : float;
}

val summary : unit -> (string * stat) list
(** Per-span-name latency aggregate over all domains (inclusive
    durations; percentiles exact, computed from the recorded spans;
    [`X] slices contribute their explicit duration), sorted by
    descending total time. *)
