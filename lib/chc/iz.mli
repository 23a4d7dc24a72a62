(** The optimality witness polytope [I_Z] of Section 6.

    From an execution's stable views: [Z = ∩_{i ∈ V−F} R_i],
    [X_Z = {x | (x,k,0) ∈ Z}], and

    {[ I_Z = ∩_{D ⊆ X_Z, |D| = |X_Z| − f} H(D) ]}

    Lemma 6 proves [I_Z ⊆ h_i[t]] for every fault-free process and
    round under Algorithm CC, and Theorem 3 shows no algorithm can
    guarantee more than [I_Z] — so checking that containment over an
    execution is an exact, machine-checkable optimality certificate.

    Under stable-vector round 0 the Containment property makes [Z] the
    minimum view, so [|X_Z| >= n - f] and [I_Z] is non-empty (Lemma 2).
    Under the naive round-0 ablation the views need not be comparable:
    [X_Z] can shrink below [(d+1)f + 1] and the intersection can be
    empty — {!compute} then returns [None], which the ablation
    experiment counts as a degraded optimality witness. *)

module Q = Numeric.Q

val compute :
  config:Config.t ->
  faulty:int list ->
  result:Cc.result ->
  Geometry.Polytope.t option
(** [I_Z] of an execution; [None] when the witness degenerates to the
    empty set (possible only without stable vector). It is the
    recorded [h\[0\]] of a fault-free process whose view holds the
    same point multiset as [X_Z], and otherwise
    {!Geometry.Polytope.depth_region} of [X_Z]. Requires every
    fault-free process to have a round-0 view (true whenever the run
    completed). @raise Invalid_argument if a fault-free view is
    missing. *)

val contained_in_all_rounds :
  iz:Geometry.Polytope.t option ->
  faulty:int list ->
  result:Cc.result ->
  bool
(** The Lemma 6 check on the [I_Z] that {!compute} returned: [I_Z]
    exists and [I_Z ⊆ h_i[t]] for every fault-free process [i] and
    every recorded round [t] (round 0 included). Exact. *)
