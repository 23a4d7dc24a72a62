(** Theorem 2 grading, shared by {!Executor} and the daemon's
    [Serve.Server.grade].

    The graded processes are the fault-free ones plus those that
    crashed and recovered: a recovered process must behave like a slow
    correct one. Validity asks that every decision lie in the hull of
    the graded processes' inputs; ε-agreement, that the largest
    pairwise Hausdorff distance between decisions be below ε. Callers
    pass the distinct decisions ([Geometry.Polytope.distinct]), since
    processes that agree decide equal polytopes. *)

val graded : n:int -> faulty:int list -> recovered:(int -> bool) -> int list
(** The graded processes in ascending order: each [i < n] that is not
    in [faulty] (the plan-based fault set), or that [recovered]. *)

val hull :
  Config.t -> Geometry.Vec.t array -> int list -> Geometry.Polytope.t
(** [hull config inputs graded]: the hull of the graded processes'
    inputs. *)

val first_invalid :
  hull:Geometry.Polytope.t -> Geometry.Polytope.t list ->
  Geometry.Polytope.t option
(** The first decision not contained in [hull], if any. *)

val max_hausdorff2 : Geometry.Polytope.t list -> Numeric.Q.t
(** The largest pairwise squared Hausdorff distance; zero for fewer
    than two decisions. *)

val agrees : Config.t -> Numeric.Q.t -> bool
(** [agrees config a2] iff [a2 < ε²]. *)
