(** Arbitrary-precision signed integers.

    Hand-rolled because the build environment has no [zarith]. The
    representation is sign-magnitude with little-endian limbs in base
    [2^30], so limb products fit comfortably in OCaml's 63-bit native
    integers. Division uses Knuth's Algorithm D; [gcd] uses the binary
    GCD on magnitudes.

    All values are immutable. Functions never mutate their arguments. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Conversions} *)

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some n] iff [x] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure if the value does not fit in a native [int]. *)

val to_float : t -> float
(** Nearest-ish float; large values lose precision as usual. *)

val to_float_enclosure : t -> Interval.t
(** Certified interval enclosure of the exact value: exact for small
    magnitudes (≤ 53 bits), outward-padded by the conversion's static
    error bound otherwise. Never excludes the true value. *)

val to_scaled_enclosure : t -> Interval.t * int
(** [(iv, e)] with the exact value inside [iv] scaled by [2^e].
    Unlike {!to_float_enclosure} the mantissa interval is always
    finite and a few ulp wide, whatever the bit-width of the value —
    the enclosure of choice past float range. *)

val of_string : string -> t
(** Parses an optionally ['-']-prefixed decimal numeral.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation, ['-']-prefixed when negative. *)

val pp : Format.formatter -> t -> unit

(** {1 Queries} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Hash of the canonical (sign, limb) decomposition: equal values hash
    equally regardless of internal representation arm. *)

val is_small : t -> bool
(** True when the value is carried on the native-int fast path (|x|
    below 62 bits) — cheap size probe for filter gating. *)

val num_bits : t -> int
(** Number of significant bits of the magnitude; [num_bits zero = 0]. *)

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t
val succ : t -> t
val pred : t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], quotient truncated
    toward zero and [r] carrying the sign of [a] (OCaml [(/)] and
    [(mod)] semantics). @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val divmod_shift_subtract : t -> t -> t * t
(** Reference implementation of [divmod] by binary long division.
    Slower; exposed as a cross-checking oracle for the test suite. *)

val gcd : t -> t -> t
(** Non-negative gcd of magnitudes; [gcd zero zero = zero]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift of the magnitude (sign preserved); shifting right
    truncates toward zero on the magnitude. *)

val pow : t -> int -> t
(** [pow x k] for [k >= 0]. @raise Invalid_argument on negative [k]. *)

val min : t -> t -> t
val max : t -> t -> t
