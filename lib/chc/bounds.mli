(** The termination round bound — equation (19) of the paper.

    [t_end] is the smallest positive integer [t] with

    {[ (1 - 1/n)^t * sqrt(d * n² * max(U², μ²)) < ε ]}

    decided exactly by comparing squares (both sides are positive, so
    squaring preserves the order), cross-multiplied into integers. *)

module Q = Numeric.Q

val omega2_bound : Config.t -> Q.t
(** The square of the paper's coarse bound on Ω:
    [d · n² · max(U², μ²)]. *)

val t_end : Config.t -> int
(** Smallest positive [t] satisfying (19). Always at least 1. *)

val contraction_at : Config.t -> int -> float
(** [(1 - 1/n)^t] as a float — the per-round convergence envelope used
    by the plots in experiment E1. *)
