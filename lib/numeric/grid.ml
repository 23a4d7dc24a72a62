(* Common-denominator grids: the lcm scaling that hull constructions
   apply to their points, shared per protocol round.

   A hull construction scales its points onto the integer grid through
   {!scale_points}, and the protocol executor installs a per-round grid
   ({!with_round}) so every construction inside one round shares a
   single lcm scan and gcd-free scaling factors. *)

module B = Bigint

type t = {
  den : B.t;                          (* common multiple of all point dens *)
  mutable factors : (B.t * B.t) list; (* den |-> grid den / den *)
}

(* den |-> cofactor cache; point sets carry a handful of distinct
   denominators, so an assoc list beats any hashing. Raises [Exit]
   when [d] does not divide the grid denominator (the caller falls
   back to a construction-local grid). *)
let factor_of g d =
  if B.equal d B.one then g.den
  else begin
    let rec find = function
      | [] ->
        let q, r = B.divmod g.den d in
        if not (B.is_zero r) then raise_notrace Exit;
        g.factors <- (d, q) :: g.factors;
        q
      | (d', f) :: rest -> if B.equal d d' then f else find rest
    in
    find g.factors
  end

(* lcm of the coordinate denominators, deduplicating first: rounds
   funnel every vertex through the same averaging arithmetic, so a
   900-point set typically carries under a dozen distinct
   denominators and the gcd chain runs on those alone. *)
let distinct_dens pts acc0 =
  List.fold_left
    (fun acc (p : Q.t array) ->
       Array.fold_left
         (fun acc (q : Q.t) ->
            let d = q.Q.den in
            if B.equal d B.one then acc
            else if List.exists (B.equal d) acc then acc
            else d :: acc)
         acc p)
    acc0 pts

let lcm_of dens =
  List.fold_left
    (fun acc d -> B.mul (B.div acc (B.gcd acc d)) d)
    B.one dens

let make pts = { den = lcm_of (distinct_dens pts []); factors = [] }

(* Grid for points about to be scaled by a 1/mult-weighted combination
   (the round average): mult * lcm is a common multiple of every
   resulting denominator, since (Σ v_i)/mult has a denominator
   dividing mult times the lcm of the v_i's. *)
let make_scaled ~mult pts =
  let g = make pts in
  if mult <= 1 then g else { g with den = B.mul_int g.den mult }

(* ------------------------------------------------------------------ *)
(* Per-round lifecycle. The executor installs a *pending* grid around
   each round's geometry: the denominator scan is deferred until the
   first construction actually scales points (rounds fully served by
   the memo tables never pay for it), then every later construction in
   the round reuses the same grid. Domain-local, like the kernel-mode
   override, so concurrent fuzz trials don't share grids. *)

type slot = Idle | Pending of (unit -> t) | Ready of t

let slot_key : slot ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref Idle)

type gstat = {
  mutable scans : int;       (* construction-local lcm scans *)
  mutable round_hits : int;  (* constructions served by the round grid *)
}

let gstats_m = Mutex.create ()
let gstats : gstat list ref = ref []

let gstat_key : gstat Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = { scans = 0; round_hits = 0 } in
      Mutex.lock gstats_m;
      gstats := s :: !gstats;
      Mutex.unlock gstats_m;
      s)

let grid_stats () =
  Mutex.lock gstats_m;
  let ss = !gstats in
  Mutex.unlock gstats_m;
  List.fold_left
    (fun (sc, rh) s -> (sc + s.scans, rh + s.round_hits))
    (0, 0) ss

(* Runs once per protocol round: the slot is restored by hand rather
   than through [Fun.protect]'s closure. *)
let with_round build f =
  let slot = Domain.DLS.get slot_key in
  let saved = !slot in
  slot := Pending build;
  match f () with
  | v ->
    slot := saved;
    v
  | exception e ->
    slot := saved;
    raise e

(* Install only when no round grid is active: construction-level entry
   points (Polytope.linear_combination, intersect) use this so they
   share a grid when called standalone yet never shadow the executor's
   per-round grid. *)
let ensure_round build f =
  let slot = Domain.DLS.get slot_key in
  match !slot with Idle -> with_round build f | _ -> f ()

let current () =
  let slot = Domain.DLS.get slot_key in
  match !slot with
  | Idle -> None
  | Ready g -> Some g
  | Pending build ->
    let g = build () in
    slot := Ready g;
    Some g

(* ------------------------------------------------------------------ *)
(* Point scaling. [scale_points pts] returns the points scaled onto an
   integer grid together with the grid denominator [l] (so facet
   offsets map back as b/l): the ambient round grid when every
   denominator divides it, otherwise a construction-local grid. Either
   way the per-coordinate work is one multiplication — the cofactor
   cache replaces the gcd-pair reduction [Q.mul] would run per
   coordinate. *)

let scale_with g pts =
  List.map
    (fun (p : Q.t array) ->
       Array.map
         (fun (q : Q.t) ->
            if B.equal q.Q.den B.one && B.equal g.den B.one then q
            else Q.of_bigint (B.mul q.Q.num (factor_of g q.Q.den)))
         p)
    pts

let scale_points pts =
  let st = Domain.DLS.get gstat_key in
  match current () with
  | Some g ->
    (match scale_with g pts with
     | scaled ->
       st.round_hits <- st.round_hits + 1;
       (scaled, g.den)
     | exception Exit ->
       (* A denominator outside the round grid: scan locally. *)
       st.scans <- st.scans + 1;
       let g' = make pts in
       (scale_with g' pts, g'.den))
  | None ->
    st.scans <- st.scans + 1;
    let g = make pts in
    (scale_with g pts, g.den)

(* ------------------------------------------------------------------ *)
(* Telemetry: enclosure-cache size/evictions (the named-cache treatment
   Memo tables get) and grid reuse counters. *)

let () =
  Obs.Metrics.register_collector (fun () ->
      let e_inserts, e_evictions = Q.enclosure_cache_stats () in
      let scans, round_hits = grid_stats () in
      [ { Obs.Metrics.metric = "chc_cache_inserts_total";
          labels = [ ("cache", "enclosure") ];
          value = Obs.Metrics.Counter e_inserts };
        { Obs.Metrics.metric = "chc_cache_evictions_total";
          labels = [ ("cache", "enclosure") ];
          value = Obs.Metrics.Counter e_evictions };
        { Obs.Metrics.metric = "chc_grid_local_scans_total";
          labels = [];
          value = Obs.Metrics.Counter scans };
        { Obs.Metrics.metric = "chc_grid_round_hits_total";
          labels = [];
          value = Obs.Metrics.Counter round_hits } ])
