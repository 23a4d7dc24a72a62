(** Common-denominator grids for hull constructions.

    A construction scales its rational points onto an integer grid
    (the lcm of their denominators) through {!scale_points}, so its
    predicates run on integers. The grid belongs to the call: it
    depends on the call's points alone, and nothing is kept between
    calls. *)

val scale_points : Q.t array list -> Q.t array list * Bigint.t
(** [scale_points pts] is [(scaled, l)] where [l] is the lcm of the
    coordinate denominators of [pts] and [scaled = l * pts]
    coordinate-wise with every denominator 1. Each distinct
    denominator's cofactor [l / den] is computed once per call, so
    scaling a coordinate is one multiplication. *)
