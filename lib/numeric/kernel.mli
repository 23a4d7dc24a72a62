(** Arithmetic-kernel selection: exact or filtered.

    Both kernels produce identical results. [Filtered] answers
    sign/comparison predicates from a certified float-interval filter
    when possible and falls back to exact rationals otherwise; [Exact]
    always runs the rational path and is kept as the differential
    oracle. The process default comes from [CHC_KERNEL=exact|filtered]
    (default [filtered]; an unrecognized value warns and clamps) and
    can be overridden per call-tree with {!with_mode}. The override is
    domain-local, so concurrent fuzz trials on pool workers don't
    race, and it covers every predicate of the call: geometry runs on
    the domain that calls it. *)

type mode = Exact | Filtered

val to_string : mode -> string
val parse : string -> (mode, string) result

val set_default : mode -> unit
(** Set the process-wide default (e.g. from [chc_sim --kernel]). *)

val get_default : unit -> mode

val mode : unit -> mode
(** Effective mode in the current domain: the innermost {!with_mode}
    override if any, otherwise the process default. *)

val filtered : unit -> bool
(** [mode () = Filtered] — the hot-path guard in {!Filter}. *)

val with_mode : mode -> (unit -> 'a) -> 'a
(** Run a thunk under a domain-local mode override. Nested uses
    restore the previous override on exit (also on exceptions). *)

(** {1 Filter telemetry}

    Per-domain hit/fallback counters with racy-but-benign snapshots;
    exposed through [Obs.Metrics] by {!Filter}. *)

type pred = Sign | Compare | Dot | Cross

val pred_name : pred -> string

val hit : pred -> unit
(** The interval filter answered the predicate. *)

val fallback : pred -> unit
(** The interval filter was inconclusive; exact arithmetic ran. *)

type stat = { hits : int; fallbacks : int }

val stats : unit -> (string * stat) list
(** One entry per predicate class, summed over all domains. *)

val totals : unit -> stat
val reset_stats : unit -> unit
