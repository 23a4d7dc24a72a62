(** Convex polytopes in arbitrary dimension, via exact H-representations.

    This module backs the general-dimension code paths of {!Polytope}
    (dimensions other than 1 and 2, and anything the fast planar paths
    cannot express). Everything is brute force over exact rationals:
    facet enumeration tries every d-subset of points, vertex enumeration
    tries every complementary subset of constraints. Instances in this
    project are small (the paper's resilience bound [n >= (d+2)f+1]
    keeps point sets near a dozen), so clarity wins over asymptotics.
    Every function runs on the calling domain, under its kernel and
    engine modes, and depends on its arguments alone.

    Lower-dimensional polytopes (points, segments, flat polygons
    embedded in d-space) are fully supported: the H-representation
    carries the affine-hull equalities alongside facet inequalities.

    Full-dimensional 3-d hulls are the exception: they go through
    {!Poly_engine}'s certified dual ({!dual_3d}), with this module's
    exact beneath–beyond as its fallback and oracle.
    {!extreme_points_dual} hands that dual back with the vertices, so
    a d=3 {!Polytope} keeps it and never asks for the same hull
    again. *)

module Q = Numeric.Q

type hrep = {
  dim : int;                       (** ambient dimension *)
  eqs : (Vec.t * Q.t) list;        (** [n·x = c] affine-hull constraints *)
  ineqs : (Vec.t * Q.t) list;      (** [n·x <= c] facet constraints *)
}

val of_points : dim:int -> Vec.t list -> hrep
(** H-representation of the convex hull of a non-empty point multiset.
    @raise Invalid_argument on an empty list. *)

val combine : hrep list -> hrep
(** H-representation of the intersection (constraint union), with
    duplicate constraints removed. All inputs must share [dim]. *)

val vertices : hrep -> Vec.t list
(** All extreme points of the (necessarily bounded, in this project)
    polytope; the empty list iff the polytope is empty. Results are
    deduplicated but not pruned — combine with {!extreme_points} for a
    canonical V-representation. *)

val extreme_points : Vec.t list -> Vec.t list
(** Subset of points that are vertices of the hull of the input,
    sorted lexicographically. Full-dimensional 3-d inputs go through
    the incremental hull plus a tight-constraint rank test; everything
    else falls back to {!extreme_points_lp}. *)

val extreme_points_dual : Vec.t list -> Vec.t list * Poly_engine.dual option
(** {!extreme_points} together with the dual it built:
    [Some] for full-dimensional 3-d inputs under the incremental
    engine, over the deduped input points, so a caller can keep it
    with the vertices; [None] otherwise, including every call under
    [Poly_engine.with_mode Rebuild]. *)

val mem_hrep : hrep -> Vec.t -> bool
(** Exact membership test against an H-representation. *)

val dedupe_points : Vec.t list -> Vec.t list
(** Sort lexicographically and drop duplicates — the canonical point
    order used throughout this module and expected by {!dual_3d}. *)

val dual_3d : Vec.t list -> Poly_engine.dual option
(** Dual (V-rep + integer H-rep) of the hull of a deduped, sorted,
    full-dimensional 3-d point list, built through {!Poly_engine}:
    the certified float-guided engine, falling back to this module's
    exact beneath–beyond when certification fails. The result depends
    on the point list alone. Under
    [Poly_engine.with_mode Rebuild] (the test oracle) the exact path
    runs alone. The facet set is the canonical primitive plane set
    either way. [None] when the input is lower-dimensional or the
    exact construction aborts. *)

(** {1 Internals exposed for cross-checking}

    The optimized paths below are property-tested against their
    brute-force counterparts; both sides stay exported so the test
    suite (and the bench harness's before/after entries) can run
    either one explicitly. *)

val facets_incremental_3d : Vec.t list -> (Vec.t * Q.t) list option
(** Beneath-beyond facet enumeration for a full-dimensional point set
    in 3-space; input need not be deduplicated. [None] when the set is
    not full-dimensional or hits a degenerate horizon (callers fall
    back to {!enumerate_facets_brute}). Output equals the brute-force
    facet list exactly (same normalization, same order). *)

val enumerate_facets_brute : dim:int -> Vec.t list -> (Vec.t * Q.t) list
(** Brute-force facet sweep over all [dim]-subsets of the (deduplicated)
    input — the pre-optimization reference path. Input must be
    full-dimensional in [dim]-space. *)

val extreme_points_lp : Vec.t list -> Vec.t list
(** Support-filter + per-point LP pruning — the reference extreme-point
    path used for non-3-d inputs and as the oracle in tests. *)

(** Testing hook for the static float visibility screen that
    {!facets_incremental_3d} runs: [screen a b p] is [Some v] when the
    screen decides [v = (a·p − b > 0)] for integer [a], [b], [p], and
    [None] when the exact predicate must. *)
module Dev : sig
  val screen : Vec.t -> Q.t -> Vec.t -> bool option
end
