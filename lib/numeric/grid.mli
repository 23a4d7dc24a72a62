(** Common-denominator grids for hull constructions.

    A construction scales its rational points onto an integer grid
    (the lcm of their denominators) through {!scale_points}, so its
    predicates run on integers. The protocol executor installs one
    grid per round ({!with_round}), and every construction in that
    round shares its lcm scan and cofactor cache. *)

type t
(** A scaling grid: a common multiple of point denominators plus a
    cofactor cache, so scaling a coordinate onto the integer grid is
    one multiplication (no per-coordinate gcd reduction). *)

val make : Q.t array list -> t
(** Scan a point set's (deduplicated) denominators and build their
    lcm grid. *)

val make_scaled : mult:int -> Q.t array list -> t
(** [make_scaled ~mult pts] is {!make} with the lcm multiplied by
    [mult]: the grid for points about to enter a 1/[mult]-weighted
    convex combination, whose results carry denominators dividing
    [mult * lcm]. *)

val scale_points : Q.t array list -> Q.t array list * Bigint.t
(** [scale_points pts] is [(scaled, l)] where [scaled = l * pts]
    coordinate-wise with every denominator 1. Uses the ambient round
    grid when one is installed and every denominator divides it
    (sharing its lcm scan and cofactor cache), otherwise a
    construction-local grid. *)

val with_round : (unit -> t) -> (unit -> 'a) -> 'a
(** [with_round build f] runs [f] with a {e pending} round grid
    installed (domain-local): the first {!scale_points} under [f]
    forces [build] and later calls reuse the grid. Nests by saving and
    restoring the previous slot. Rounds fully served by the memo
    tables never force [build]. *)

val ensure_round : (unit -> t) -> (unit -> 'a) -> 'a
(** Like {!with_round} but a no-op when a round grid is already
    installed — for construction-level entry points that should share
    a grid standalone without shadowing the executor's round grid. *)

val current : unit -> t option
(** Force and return the installed round grid, if any. *)

val grid_stats : unit -> int * int
(** [(local_scans, round_hits)] across all domains since startup. *)
