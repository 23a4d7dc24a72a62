(** Exact-rational linear programming (two-phase primal simplex with
    Bland's rule, so termination is guaranteed).

    Sizes in this project are tiny — at most a few dozen variables and
    constraints — so a dense tableau over {!Numeric.Q} is both simple
    and fast enough. Exactness matters: convex-hull membership and
    polytope containment are *certified*, which the validity and
    optimality experiments rely on. *)

module Q = Numeric.Q

type solution =
  | Optimal of Q.t array * Q.t  (** primal solution and objective value *)
  | Unbounded
  | Infeasible

val maximize :
  objective:Q.t array ->
  eq:(Q.t array * Q.t) list ->
  nvars:int ->
  solution
(** [maximize ~objective ~eq ~nvars] solves
    [max objective . x] subject to [row . x = rhs] for each [(row, rhs)]
    in [eq] and [x >= 0]. Right-hand sides may have any sign. *)

val feasible_eq : eq:(Q.t array * Q.t) list -> nvars:int -> Q.t array option
(** A point of [{x >= 0 | row . x = rhs}] or [None] if empty. *)

val feasible_system :
  dim:int ->
  eqs:(Vec.t * Q.t) list ->
  ineqs:(Vec.t * Q.t) list ->
  Vec.t option
(** A point of [{x free | a.x = b for eqs, a.x <= b for ineqs}] in
    d-space, or [None] if the system is infeasible. Free variables are
    split internally. *)

val in_convex_hull : Vec.t list -> Vec.t -> bool
(** [in_convex_hull pts p]: is [p] a convex combination of [pts]?
    Exact. [false] on an empty point list. *)
