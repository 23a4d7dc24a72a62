(** Process-wide metrics registry: named counters, gauges and
    log-scaled-bucket histograms, with a stable Prometheus-style text
    exposition.

    This replaces the ad-hoc counter plumbing that {!Report} used to
    carry (memo-table and pool records hard-wired into the report
    type): any layer registers its instruments — or a {e collector}
    that snapshots counters it already maintains — and every reporting
    surface ([chc_sim run --verbose], bench-smoke, [Report.to_json])
    reads one uniform snapshot.

    Naming scheme (Prometheus conventions): all metrics are prefixed
    [chc_]; monotone counts end in [_total]; histograms carry a unit
    suffix ([_seconds], [_bytes]); subsystem labels distinguish
    instances, e.g. [chc_memo_hits_total{table="minkowski"}].

    All instruments are thread-/domain-safe (one mutex per instrument;
    registry under its own mutex). Snapshots are consistent per
    instrument, not across instruments — fine for reporting. *)

type labels = (string * string) list
(** Label pairs, e.g. [[("table", "hull")]]. Order is normalized
    (sorted by key) so equal label sets are equal. *)

(** {1 Instruments} *)

type counter

val counter : ?help:string -> ?labels:labels -> string -> counter
(** Find-or-create: the same (name, labels) always yields the same
    underlying counter. Hold the result in the hot path rather than
    re-resolving. [help] attaches a one-line family description for
    the exposition's [# HELP] header (first registration wins). *)

val incr : counter -> unit
val add : counter -> int -> unit

type gauge

val gauge : ?help:string -> ?labels:labels -> string -> gauge
val set : gauge -> float -> unit

type histogram

val histogram : ?help:string -> ?labels:labels -> string -> histogram
(** Log-scaled buckets: powers of two from [2^-30] to [2^33] plus an
    overflow bucket, so one shape serves latencies in seconds and
    payload sizes in bytes alike. *)

val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type histogram_stats = {
  count : int;
  sum : float;
  buckets : (float * int) list;
      (** (upper bound, observations in that bucket) — non-cumulative,
          empty buckets omitted; the overflow bucket has bound
          [infinity] *)
  p50 : float;
  p90 : float;
  p99 : float;
      (** percentile estimates: the upper bound of the bucket holding
          the rank, clamped to [max_seen] — exact to within one
          power-of-two bucket *)
  max_seen : float;  (** exact *)
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_stats

type snapshot = {
  metric : string;
  labels : labels;
  value : value;
}

val register_collector : (unit -> snapshot list) -> unit
(** Adapt counters a subsystem already maintains (e.g.
    [Parallel.Memo.all_stats]) into the registry: the thunk runs at
    every {!snapshot_all}. Collectors must be re-entrant and must not
    call back into the registry. *)

val snapshot_all : unit -> snapshot list
(** Registered instruments plus every collector's output, sorted by
    (metric, labels) — the order is stable across runs. *)

(** {1 Exposition} *)

val set_help : string -> string -> unit
(** Attach a [# HELP] description to a metric family (first write
    wins) — for collector-backed families whose instruments live
    elsewhere. *)

val exposition : snapshot list -> string
(** Prometheus text format: per family, an optional [# HELP] line then
    one [# TYPE] line, then one sample per (labels) instance;
    histograms expose cumulative [_bucket{le="..."}] samples (empty
    buckets elided, ["+Inf"] always present) plus [_sum] and [_count].
    Conformance to the text-format grammar is pinned by the checker in
    [test/test_obs.ml]. Equal snapshots render to byte-identical
    text. *)

val exposition_all : unit -> string
(** [exposition (snapshot_all ())]. *)

(** {1 Test hooks} *)

val percentile_of_stats : histogram_stats -> float -> float
(** Recompute a percentile from the bucket list (exposed so tests can
    cross-check p50/p90/p99). *)
