(** Exact volume of 3-d convex polytopes.

    {!volume} is the divergence theorem over an outward-oriented facet
    triangulation: every facet's vertices are found by exact tight
    tests, ordered in the facet plane and fanned. {!of_dual} reads a
    certified dual instead: it sums the signed volumes of the soup's
    triangles when {!Poly_engine.covering} shows they cover the
    boundary exactly once, and takes the facet fans otherwise. Both
    are exact and give the same value. *)

module Q = Numeric.Q

val volume : Vec.t list -> Q.t
(** Volume of the convex hull of the given points; [0] for
    lower-dimensional hulls. @raise Invalid_argument unless the points
    are 3-dimensional. *)

val of_dual : Poly_engine.dual -> Q.t
(** Volume of the hull a dual describes, from its scaled points,
    facet planes and soup, with no hull construction. *)
