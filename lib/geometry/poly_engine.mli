(** Certified float-guided polytope engine for d = 3.

    A dual polytope representation — V-rep (the point set) and H-rep
    (primitive integer facet planes) kept in sync, with the certified
    triangle soup between them. Hulls are built by a float-guided
    beneath–beyond pass, and intersection vertices are enumerated by
    float-guided pair-line clipping instead of exact
    {% $O(m^3)$ %} triple solves; both are certified exactly.

    The engine is stateless: a hull or an intersection depends only
    on its input (and on the calling domain's {!mode}), never on what
    was built before it.

    {b Exactness contract.} Every fast path is a {e candidate
    generator} whose output is certified against exact integer
    predicates ({!Numeric.Filter}) before being returned:

    - hulls: per-facet exact supporting-plane check, directed-edge
      pairing (closed oriented surface), and exact containment of all
      input points — together these force the primitive plane set to
      equal the exact path's canonical plane set;
    - intersections: exact membership of every emitted vertex plus a
      completeness certificate (every facet plane of the candidate
      hull must be an input constraint, which pins conv(W) = P).

    Certification failure falls back to the caller-supplied exact
    rebuild, so under both engine modes results are {e value
    identical} — the basis for the byte-identical-trace acceptance
    gate and the [Engine_equivalence] differential-fuzz oracle.

    A certified {!dual} is handed back to the caller: {!vertices_3d}
    returns the dual it certified, and every d=3 [Polytope.t] the
    incremental engine builds carries the dual it was built with, so
    its volume and containment tests read the scaled points, facet
    planes and soup instead of certifying the same hull again.
    {!covering} is the check that lets a volume be summed over the
    soup's triangles. Under {!Rebuild} nothing is carried, and every
    consumer runs its own exact path.

    The engine has one production path, {!Incremental}. {!Rebuild},
    the exact construction alone, is kept as the oracle of the
    differential tests, the fuzzer, smoke3d and E17, which select it
    for the calling domain with {!with_mode}; it is also the fallback
    the incremental path certifies against. *)

module Q = Numeric.Q
module B = Numeric.Bigint

(** {1 Engine mode} *)

type mode =
  | Rebuild      (** exact from-scratch construction, the oracle *)
  | Incremental  (** certified float-guided engine *)

val mode : unit -> mode
(** The calling domain's {!with_mode} override; {!Incremental} outside
    any. *)

val with_mode : mode -> (unit -> 'a) -> 'a
(** Domain-local override for the dynamic extent of the callback;
    restores the previous override on exit (exceptions included). *)

(** {1 Persistent dual representation} *)

type soup
(** A certified oriented facet soup: triangle corner indices into the
    scaled vertex array, the deduped primitive facet planes, and the
    plane each triangle lies on. *)

type dual = {
  pts : Vec.t list;
      (** the sorted, deduped points the hull was built over: every
          vertex, and possibly points that are not vertices *)
  spts : Vec.t list;     (** [pts] scaled by [scale] to integers *)
  facets : (Vec.t * Q.t) list;
      (** primitive integer planes [a·x <= b] in the scaled frame *)
  scale : B.t;
  shape : soup option;
      (** the certified soup when the engine built the dual; [None]
          from the exact path *)
}

val dual_3d : Vec.t list -> rebuild:(unit -> dual option) -> dual option
(** [dual_3d pts ~rebuild] builds the dual of conv(pts) (3-d,
    full-dimensional inputs). Under {!Rebuild} this is [rebuild ()]
    verbatim; under {!Incremental} it is built by the certified
    float-guided hull and falls back to [rebuild] on certification
    failure. [None] means the input is lower-dimensional or otherwise
    out of scope — the caller keeps its exact handling. *)

val covering : soup -> (int * int * int) array option
(** The soup's triangles, outward-oriented corner indices into the
    dual's [spts], when they cover the hull boundary exactly once;
    [None] otherwise. A certified soup covers it a whole number
    [k >= 1] of times, and [k = 1] exactly when the edges the
    triangles on one facet plane leave unpaired form one simple
    cycle, which is what this checks. *)

val vertices_3d :
  ineqs:(Vec.t * Q.t) list -> (Vec.t list * dual) option
(** [vertices_3d ~ineqs] is the exact vertex set of [{x : a·x <= b}]
    for 3-d constraint systems, enumerated by pair-line clipping and
    certified complete, with the dual of the hull it certified on the
    way. Every candidate is solved uniquely from three constraints and
    kept only if it lies inside all of them, so it is a vertex by
    construction: the dual's [pts] are the returned vertex list.
    [None] when the certificate fails, the system is degenerate, or
    the engine is in {!Rebuild} mode — callers run the exact
    enumeration. *)

(** {1 Canonical-form helpers}

    Shared with {!Hullnd} so both paths produce literally identical
    plane sets. *)

val normalize_ineq : Vec.t * Q.t -> Vec.t * Q.t
val compare_constraint : Vec.t * Q.t -> Vec.t * Q.t -> int
val dedupe_constraints : (Vec.t * Q.t) list -> (Vec.t * Q.t) list
val dedupe_points : Vec.t list -> Vec.t list
val primitive_plane : Vec.t * Q.t -> Vec.t * Q.t
val cross3 : Vec.t -> Vec.t -> Vec.t

(** {1 Test hooks} *)

module Dev : sig
  val dual_of_soup : Vec.t array -> (int * int * int) array -> dual option
  (** Certify an arbitrary triangle soup over integral points (the
      first four must span a tetrahedron) and wrap it as a dual at
      scale 1, [pts] = [spts] = the points; [None] when certification
      fails. *)

  val certify :
    Vec.t array -> (int * int * int) array -> (Vec.t * Q.t) list option
  (** Run the hull certification gauntlet on an arbitrary triangle
      soup over the given (scaled, integral) points: exact facet
      planes, directed-edge pairing, full containment. [None] when any
      check fails. *)
end
