(** Outward-rounded float interval arithmetic.

    The certified-filter substrate: every operation returns an interval
    guaranteed to enclose the exact real result, by widening each
    IEEE round-to-nearest endpoint one ulp outward. A predicate whose
    interval excludes zero is decided without exact arithmetic; an
    inconclusive interval triggers the exact fallback (see {!Filter}). *)

type t = { lo : float; hi : float }

val unset : t
(** Sentinel for "enclosure not yet computed" cache slots. Compare with
    physical equality ([==]); never use it as an operand. *)

val whole : t
(** The whole real line [[-inf, +inf]] — the trivially correct enclosure. *)

val exact : float -> t
(** [exact v] is the degenerate interval [[v, v]]. Only sound when [v]
    represents the value exactly (e.g. small integers). *)

val make : lo:float -> hi:float -> t
(** NaN endpoints degrade to {!whole}. *)

val up : float -> float
(** Round an upper bound one ulp up; NaN becomes [+inf]. *)

val down : float -> float
(** Round a lower bound one ulp down; NaN becomes [-inf]. *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div_pos : t -> t -> t
(** [div_pos a b] encloses [a / b] for a divisor whose reals are all
    positive (the denominator enclosure of a normalized rational). When
    [b]'s enclosure is not itself positive it returns the whole line. *)

val sign : t -> int option
(** [Some s] when every real in the interval has sign [s] (the interval
    excludes zero, or is exactly [[0, 0]]); [None] when inconclusive. *)

val contains_zero : t -> bool

val mag_lower : t -> float
(** Certified lower bound on the magnitude of any enclosed real; [0.0]
    when the interval touches or straddles zero. *)

val pp : Format.formatter -> t -> unit
