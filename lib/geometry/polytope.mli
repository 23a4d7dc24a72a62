(** Convex polytopes — the state space of Algorithm CC.

    A value is a non-empty, bounded convex polytope in d-dimensional
    Euclidean space, held in a canonical V-representation:

    - d = 1: one or two vertices, increasing;
    - d = 2: the {!Hull2d} canonical form (CCW cycle from the
      lexicographically smallest vertex);
    - d ≥ 3: the lexicographically sorted list of extreme points.

    Canonical forms are unique per point set, so structural equality of
    vertex lists decides set equality. Emptiness is pushed to the type
    level: operations that can yield the empty set return an [option].

    All set-level operations (membership, inclusion, equality,
    intersection, the paper's linear-combination operator [L]) are
    exact over rationals. *)

module Q = Numeric.Q

type t

(** {1 Construction} *)

val of_points : dim:int -> Vec.t list -> t
(** Convex hull of a non-empty point multiset.
    @raise Invalid_argument on an empty list or dimension mismatch. *)

val singleton : Vec.t -> t

val vertices : t -> Vec.t list
(** Canonical vertex list (see above). *)

val dim : t -> int

(** {1 Predicates} *)

val equal : t -> t -> bool
val contains : t -> Vec.t -> bool
val subset : t -> t -> bool
(** [subset p q]: is [p ⊆ q]? Exact; [true] without any geometry when
    [equal p q]. *)

val is_point : t -> bool

val distinct : t list -> t list
(** The first occurrence of each polytope, in order. *)

(** {1 The paper's operators} *)

val linear_combination : (Q.t * t) list -> t
(** The paper's function [L]: the set
    [{Σ ci·pi | pi ∈ hi}] for weights [ci ≥ 0, Σci = 1] — equivalently
    the Minkowski sum of the scaled polytopes.

    Terms with equal polytopes are merged first ([aP ⊕ bP = (a+b)P]
    for convex [P]) and zero-weight terms are dropped, so when every
    polytope is the same [p] the result is [p] itself, computed
    without any geometry. [chc_lop_total{result="merged"}] counts how
    often that happens.
    @raise Invalid_argument if weights are negative or do not sum
    to 1, or on the empty list. *)

val average : t list -> t
(** [linear_combination] with identical weights [1/ν] — line 14 of
    Algorithm CC. *)

val intersect : t list -> t option
(** Intersection of a non-empty list of polytopes; [None] when empty.
    Repeated polytopes are dropped first.
    {!subset_hull_region} builds line 5 of Algorithm CC from it. *)

val depth_region : dim:int -> f:int -> Vec.t list -> t option
(** [∩_{C ⊆ X, |C| = |X|-f} H(C)] for the point multiset [X] — line 5
    of Algorithm CC and Section 6's [I_Z]; [None] when it is empty.
    Computed without building any subset hull: for [dim = 1] it is
    the order statistics [x_(f+1)] and [x_(|X|-f)]; for [dim = 2, 3]
    and full-dimensional [X] it is the intersection of the closed
    sides of hyperplanes through [dim] view points that hold at least
    [|X|-f] of them, counting multiplicity. Lower-dimensional views
    and [dim >= 4] run {!subset_hull_region}. Same set, same canonical
    form as {!subset_hull_region}.
    @raise Invalid_argument if [|X| <= f] or on a dimension mismatch. *)

val subset_hull_region : dim:int -> f:int -> Vec.t list -> t option
(** The same set as {!depth_region}, built literally: the hull of
    every [(|X|-f)]-subset of [X], then their {!intersect}. The
    fallback for views {!depth_region} cannot take, and its test
    oracle. @raise Invalid_argument if [|X| <= f]. *)

(** {1 Measures} *)

val hausdorff2 : t -> t -> Q.t
(** Exact squared Hausdorff distance; zero for equal polytopes without
    evaluating it. *)

val hausdorff : t -> t -> float

val volume : t -> Q.t option
(** Exact d-volume for d ≤ 3 ([Some]), [None] for d ≥ 4. Degenerate
    (lower-dimensional) polytopes have volume 0. *)

val diameter2 : t -> Q.t
(** Exact squared diameter (max vertex-pair distance). *)

(** {1 Geometry helpers} *)

val translate : Vec.t -> t -> t
val support : t -> Vec.t -> Q.t * Vec.t
(** [support p dir] is the maximum of [dir·x] over [p] and a vertex
    attaining it. *)

val bounding_box : t -> (Q.t * Q.t) array
(** Per-coordinate [(min, max)]. *)

val centroid : t -> Vec.t
(** Barycenter of the canonical vertex list. Exact and contained in
    the polytope; {b not} Lipschitz w.r.t. Hausdorff distance — use
    {!steiner_point} for the vector-consensus reduction. *)

val steiner_point : t -> Vec.t
(** A deterministic interior point that is (approximately, for d = 2)
    Lipschitz w.r.t. the Hausdorff distance: the exact midpoint for
    d = 1; for d = 2 the Steiner point [Σ (exterior angle / 2π)·vᵢ]
    with angle weights computed in floats and then rationalized (the
    result is an exact convex combination of vertices, hence exactly
    inside); the vertex centroid for d ≥ 3. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
