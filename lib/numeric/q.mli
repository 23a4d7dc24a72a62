(** Exact rational numbers over {!Bigint}.

    Values are always normalized: the denominator is positive and
    coprime with the numerator; zero is [0/1]. All polytope state in
    this project is held in rationals so that set-level facts
    (validity, containment, polytope equality) can be decided exactly. *)

type t = private {
  num : Bigint.t;
  den : Bigint.t;
  mutable iv : Interval.t;
      (** Lazily cached certified float enclosure; [Interval.unset]
          until first demanded. Read it through {!enclosure}. *)
}

(** {1 Construction} *)

val make : Bigint.t -> Bigint.t -> t
(** [make num den] normalizes. @raise Division_by_zero if [den] is 0. *)

val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints a b] is [a/b]. @raise Division_by_zero if [b = 0]. *)

val of_bigint : Bigint.t -> t

val of_string : string -> t
(** Accepts ["a"], ["a/b"], and decimal notation ["-12.75"].
    @raise Invalid_argument on malformed input. *)

val zero : t
val one : t
val two : t
val half : t
val minus_one : t

(** {1 Queries} *)

val sign : t -> int
val is_zero : t -> bool
val equal : t -> t -> bool

val compare : t -> t -> int
(** Exact three-way comparison. Under the filtered kernel
    ({!Kernel.filtered}), big operands are first compared through their
    certified float enclosures; the exact cross-product comparison runs
    only when the enclosures overlap, so the result is always exact. *)

val enclosure : t -> Interval.t
(** Certified float enclosure of the exact value. The true rational
    always lies inside the interval. The first call computes it and
    stores it in [iv]; every later call returns that same interval. *)

val hash : t -> int
(** Hash of the canonical normalized form: [equal x y] implies
    [hash x = hash y] whatever arithmetic path produced each value. *)

val leq : t -> t -> bool
val lt : t -> t -> bool
val geq : t -> t -> bool
val gt : t -> t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero on zero divisor. *)

val inv : t -> t
(** @raise Division_by_zero on zero argument. *)

val min : t -> t -> t
val max : t -> t -> t

val pow : t -> int -> t
(** Integer powers; negative exponents invert.
    @raise Division_by_zero on [pow zero k] with [k < 0]. *)

val square : t -> t

val sum : t list -> t
val average : t list -> t
(** @raise Invalid_argument on the empty list. *)

val mul_int : t -> int -> t
val div_int : t -> int -> t

(** {1 Conversions} *)

val to_float : t -> float
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Infix operators}

    Conventional [zarith]-style operators for rational expressions. *)
module Infix : sig
  val ( +/ ) : t -> t -> t
  val ( -/ ) : t -> t -> t
  val ( */ ) : t -> t -> t
  val ( // ) : t -> t -> t
  val ( =/ ) : t -> t -> bool
  val ( </ ) : t -> t -> bool
  val ( <=/ ) : t -> t -> bool
  val ( >/ ) : t -> t -> bool
  val ( >=/ ) : t -> t -> bool
end
