module Q = Numeric.Q
module Combin = Numeric.Combin
module Filter = Numeric.Filter

type hrep = {
  dim : int;
  eqs : (Vec.t * Q.t) list;
  ineqs : (Vec.t * Q.t) list;
}

(* Canonical form of a constraint row: scaled so the first non-zero
   coefficient has absolute value 1. Positive scaling preserves the
   inequality direction. Shared with Poly_engine so the certified
   fast paths produce literally identical canonical plane sets. *)
let normalize_ineq = Poly_engine.normalize_ineq

(* Equalities additionally fix the sign of the leading coefficient. *)
let normalize_eq (a, b) =
  let d = Vec.dim a in
  let rec first i = if i = d then None
    else if Q.is_zero a.(i) then first (i + 1) else Some a.(i)
  in
  match first 0 with
  | None -> (a, b)
  | Some lead ->
    let s = Q.inv lead in
    (Vec.scale s a, Q.mul s b)

let dedupe_constraints = Poly_engine.dedupe_constraints
let dedupe_points = Poly_engine.dedupe_points

let standard_basis d = List.init d (fun i ->
    Array.init d (fun j -> if i = j then Q.one else Q.zero))

(* ------------------------------------------------------------------ *)
(* Incremental (beneath-beyond) hull, d = 3.

   Brute-force facet enumeration tries all C(m,3) candidate planes; on
   the Minkowski-averaging hot path m reaches the hundreds and the
   sweep dominates the whole protocol run. The incremental hull
   inserts points one at a time (in the canonical sorted order, so the
   construction is deterministic), maintaining a triangulated boundary:
   per insertion it scans the current triangles for visibility, which
   is near-linear in the hull size instead of cubic in m.

   Exactness notes (all arithmetic rational, no epsilons):
   - "visible" means strictly outside a triangle's plane; a point
     coplanar with a facet is treated as not visible, so a point that
     satisfies every current constraint is inside the current hull and
     is skipped soundly.
   - a horizon edge (u,v) separates a visible from a non-visible
     triangle; p strictly violates the visible plane while u, v lie on
     it, so p is never collinear with u, v and every cone triangle
     (p,u,v) is non-degenerate.
   - orientation is fixed against an interior point (the centroid of
     the seed tetrahedron): facet planes support every intermediate
     hull, which contains the tetrahedron, so the centroid is strictly
     on the inner side of every plane ever produced.
   The triangles triangulate each facet, possibly several triangles
   per coplanar facet; normalizing and deduplicating their planes
   yields exactly the facet-plane set the brute-force sweep produces
   (any supporting plane through 3 affinely independent input points
   meets the hull in a 2-face). Equality with the brute-force output
   is property-tested in test/test_hullnd.ml. *)

module B = Numeric.Bigint

module I = Numeric.Interval

(* Static float screen for the beneath-beyond visibility test. An
   integer plane (a, b) and an integer point p are imaged as
   mid-mantissas at a per-object common exponent: a_i ≈ snf_i · 2^sne,
   b ≈ sbf · 2^sbe, p_i ≈ pf_i · 2^pe. The sign of a·p − b is then the
   sign of Σ snf_i·pf_i − sbf·2^(sbe−sne−pe), computable in plain
   doubles — provided the answer clears a conservative relative error
   bound; otherwise the exact ladder decides. The screen is built only
   for denominator-1 (grid-scaled) values with bounded per-coordinate
   exponent spread, so no imaged magnitude drops below ~2^-400 and
   every intermediate stays far from the double range edges. *)
type scr = { snf : float array; sne : int; sbf : float; sbe : int }

type tri = {
  ta : Vec.t;
  tb : Q.t;
  corners : Vec.t * Vec.t * Vec.t;
  scr : scr option;
}

(* Rounding budget: ≤ ~10 half-ulp contributions (input mids, three
   products, two sums, the ldexp'd offset, the final subtraction), all
   relative to the magnitude sum — 2^-44 leaves a ~26x safety factor
   over the worst-case 10·2^-52. *)
let screen_eps = Float.ldexp 1.0 (-44)

(* Common-exponent float image of an integer vector; [None] when a
   denominator is non-trivial or the exponent spread would push an
   imaged coordinate into unsafe ldexp territory. *)
let float_image (v : Vec.t) =
  let d = Array.length v in
  let ms = Array.make d 0.0 and es = Array.make d 0 in
  let emax = ref min_int and ok = ref true in
  for i = 0 to d - 1 do
    let q = v.(i) in
    if not (B.equal q.Q.den B.one) then ok := false
    else begin
      let iv, e = B.to_scaled_enclosure q.Q.num in
      let m = 0.5 *. (iv.I.lo +. iv.I.hi) in
      ms.(i) <- m;
      es.(i) <- e;
      if m <> 0.0 && e > !emax then emax := e
    end
  done;
  if not !ok then None
  else if !emax = min_int then Some (ms, 0) (* zero vector *)
  else begin
    for i = 0 to d - 1 do
      if ms.(i) <> 0.0 then begin
        let k = es.(i) - !emax in
        if k < -400 then ok := false else ms.(i) <- Float.ldexp ms.(i) k
      end
    done;
    if !ok then Some (ms, !emax) else None
  end

let scr_of_plane (a : Vec.t) (b : Q.t) =
  match float_image a with
  | None -> None
  | Some (snf, sne) ->
    if not (B.equal b.Q.den B.one) then None
    else begin
      let iv, sbe = B.to_scaled_enclosure b.Q.num in
      Some { snf; sne; sbf = 0.5 *. (iv.I.lo +. iv.I.hi); sbe }
    end

(* The screened sign of a·p − b for a plane image [s] and a point
   image (pf, pe): 1 or -1 when the magnitude clears the error bound,
   0 when the exact ladder must decide. Infinities or NaNs from
   degenerate scalings fail the clearance comparison and give 0. *)
let screen_sign s (pf, pe) =
  let s0 = s.snf.(0) *. pf.(0) in
  let s1 = s.snf.(1) *. pf.(1) in
  let s2 = s.snf.(2) *. pf.(2) in
  let delta = s.sbe - s.sne - pe in
  if delta > 900 || delta < -1000 then 0
  else begin
    let bs = Float.ldexp s.sbf delta in
    let d = s0 +. s1 +. s2 -. bs in
    let m = Float.abs s0 +. Float.abs s1 +. Float.abs s2 +. Float.abs bs in
    if Float.abs d > m *. screen_eps then (if d > 0.0 then 1 else -1) else 0
  end

(* Visible := ta·p − tb > 0. Screened when both float images exist and
   the screen decides; exact otherwise. *)
let tri_visible t (p : Vec.t) pscr =
  let v =
    match t.scr, pscr with
    | Some s, Some pi -> screen_sign s pi
    | _ -> 0
  in
  if v <> 0 then v > 0 else Filter.sign_of_dot_minus t.ta p t.tb > 0

let cross3 = Poly_engine.cross3

(* The construction runs on integer points: hull structure is
   invariant under the uniform positive scaling x ↦ L·x, so scaling by
   the lcm L of every coordinate denominator up front (through
   Numeric.Grid) turns all the inner-loop arithmetic (cross products,
   visibility dot products) into gcd-free integer Q operations. Facets
   map back as (a, b) ↦ (a, b/L). *)

(* Plane through p,q,r oriented so the interior point [c4]/4 satisfies
   a·x < b; [None] if p,q,r are collinear or the interior point lies
   on the plane. [c4] is 4× the interior point, keeping the
   orientation test in integers. *)
let oriented_plane ~c4 p q r =
  let a = cross3 (Vec.sub q p) (Vec.sub r p) in
  if Array.for_all Q.is_zero a then None
  else begin
    let b = Vec.dot a p in
    let mk a b = { ta = a; tb = b; corners = (p, q, r); scr = scr_of_plane a b } in
    match Filter.sign_of_dot_minus a c4 (Q.mul_int b 4) with
    | s when s < 0 -> Some (mk a b)
    | s when s > 0 -> Some (mk (Vec.neg a) (Q.neg b))
    | _ -> None
  end

(* Undirected-edge key, canonically ordered. *)
let edge u v = if Vec.compare u v <= 0 then (u, v) else (v, u)

let edge_compare (u1, v1) (u2, v2) =
  let c = Vec.compare u1 u2 in
  if c <> 0 then c else Vec.compare v1 v2

let tri_edges t =
  let (u, v, w) = t.corners in
  [ edge u v; edge v w; edge u w ]

(* Edges used by exactly one triangle of the visible set. The soup
   invariant (every edge borders exactly two triangles) means an edge
   can appear at most twice; a third occurrence signals a corrupted
   surface and aborts to the brute-force path. *)
let horizon_edges visible =
  let all = List.sort edge_compare (List.concat_map tri_edges visible) in
  let rec go = function
    | [] -> []
    | [ e ] -> [ e ]
    | e1 :: (e2 :: rest as tail) ->
      if edge_compare e1 e2 = 0 then begin
        (match rest with
         | e3 :: _ when edge_compare e2 e3 = 0 -> raise Exit
         | _ -> ());
        go rest
      end
      else e1 :: go tail
  in
  go all

(* The insertion step is only sound when the horizon is one simple
   closed cycle (that is what keeps the triangle soup a closed
   2-manifold inductively). Degenerate configurations that break this
   are rare and bail out to brute force via [Exit]. *)
let check_simple_cycle edges =
  match edges with
  | [] -> raise Exit
  | (start, _) :: _ ->
    let endpoints =
      List.sort Vec.compare (List.concat_map (fun (u, v) -> [ u; v ]) edges)
    in
    (* Every endpoint must have degree exactly 2. *)
    let rec degrees = function
      | [] -> ()
      | [ _ ] -> raise Exit
      | a :: b :: rest ->
        if Vec.equal a b then begin
          (match rest with
           | c :: _ when Vec.equal b c -> raise Exit
           | _ -> ());
          degrees rest
        end
        else raise Exit
    in
    degrees endpoints;
    (* Degree-2 everywhere means disjoint cycles; demand connectivity. *)
    let nvertices = List.length edges in (* |V| = |E| in a 2-regular graph *)
    let neighbours x =
      List.concat_map
        (fun (u, v) ->
           if Vec.equal u x then [ v ]
           else if Vec.equal v x then [ u ]
           else [])
        edges
    in
    let rec bfs visited = function
      | [] -> visited
      | x :: rest ->
        if List.exists (Vec.equal x) visited then bfs visited rest
        else bfs (x :: visited) (neighbours x @ rest)
    in
    if List.length (bfs [] [ start ]) <> nvertices then raise Exit

(* Canonical integer representative of an (integer) plane: divide by
   the content gcd. Positive scaling, so the inequality is unchanged;
   proportional planes collapse to equal values. *)
let primitive_plane = Poly_engine.primitive_plane

(* [incremental_planes_3d pts] for deduped, sorted [pts]: the
   beneath-beyond construction proper, on integer-scaled points.
   Returns [(scaled_pts, facets, l)] — the deduped primitive integer
   facet planes, valid for the scaled points — or [None] when the
   point set is not full-dimensional in 3-space (no seed tetrahedron
   exists) or a degenerate horizon aborts the construction; callers
   fall back to the brute-force sweep. *)
let incremental_planes_3d pts0 =
  (* Uniform positive scaling preserves the lexicographic point order,
     so the scaled list is still deduped and sorted. *)
  let pts, l =
    Obs.Prof.with_span "hullnd.scale" (fun () ->
        Numeric.Grid.scale_points pts0)
  in
  let find_seed = function
    | [] -> None
    | p0 :: rest0 ->
      (match List.find_opt (fun p -> not (Vec.equal p p0)) rest0 with
       | None -> None
       | Some p1 ->
         let d1 = Vec.sub p1 p0 in
         (match
            List.find_opt
              (fun p -> not (Array.for_all Q.is_zero (cross3 d1 (Vec.sub p p0))))
              rest0
          with
          | None -> None
          | Some p2 ->
            let nrm = cross3 d1 (Vec.sub p2 p0) in
            let b0 = Vec.dot nrm p0 in
            (match
               List.find_opt
                 (fun p -> Filter.sign_of_dot_minus nrm p b0 <> 0)
                 rest0
             with
             | None -> None
             | Some p3 -> Some (p0, p1, p2, p3))))
  in
  match find_seed pts with
  | None -> None
  | Some (p0, p1, p2, p3) ->
    let c4 = Vec.add (Vec.add p0 p1) (Vec.add p2 p3) in
    let face p q r =
      match oriented_plane ~c4 p q r with
      | Some t -> t
      | None -> assert false (* seed tetrahedron is non-degenerate *)
    in
    let seed = [ face p0 p1 p2; face p0 p1 p3; face p0 p2 p3; face p1 p2 p3 ] in
    let rest =
      List.filter
        (fun p ->
           not (Vec.equal p p0 || Vec.equal p p1 || Vec.equal p p2
                || Vec.equal p p3))
        pts
    in
    let insert tris p =
      let pscr = float_image p in
      let visible, hidden =
        List.partition (fun t -> tri_visible t p pscr) tris
      in
      if visible = [] then tris
      else begin
        let horizon = horizon_edges visible in
        check_simple_cycle horizon;
        let cone =
          List.map
            (fun (u, v) ->
               match oriented_plane ~c4 p u v with
               | Some t -> t
               | None -> raise Exit (* unreachable; see module comment *))
            horizon
        in
        hidden @ cone
      end
    in
    (try
       let tris =
         Obs.Prof.with_span "hullnd.insert_fold" (fun () ->
             List.fold_left insert seed rest)
       in
       (* Collapse proportional duplicate planes (coplanar triangle
          fans) to their primitive representative before anything
          downstream touches them: the verify pass below and every
          caller's per-point scan are linear in the plane count, and
          the dedupe factor on fused d=3 hulls is about 3x. *)
       let planes =
         Obs.Prof.with_span "hullnd.facet_dedupe" (fun () ->
             dedupe_constraints
               (List.map (fun t -> primitive_plane (t.ta, t.tb)) tris))
       in
       (* Belt and braces: a corrupted hull would cut off an input
          point; verify every point against every facet (linear in the
          output, negligible next to the construction). Deduping first
          is sound — primitive scaling preserves each halfspace. *)
       if
         Obs.Prof.with_span "hullnd.verify" (fun () ->
         List.for_all
           (fun p ->
              List.for_all (fun (a, b) -> Filter.sign_of_dot_minus a p b <= 0)
                planes)
           pts)
       then Some (pts, planes, l)
       else None
     with Exit -> None)

(* The engine front door for 3-d hulls: Poly_engine runs its
   certified float-guided build and falls back to this module's exact
   beneath-beyond whenever certification fails, or runs the exact
   path alone under [with_mode Rebuild]. Either way the resulting
   plane set is the canonical one, so downstream consumers cannot
   tell the paths apart. Nothing is cached: each call builds. *)
let dual_3d pts =
  Poly_engine.dual_3d pts ~rebuild:(fun () ->
      match incremental_planes_3d pts with
      | None -> None
      | Some (spts, planes, l) ->
        Some
          { Poly_engine.pts; spts; facets = planes; scale = l; shape = None })

let facets_incremental_3d pts =
  Obs.Prof.with_span "hullnd.incremental_3d" @@ fun () ->
  let pts = dedupe_points pts in
  match dual_3d pts with
  | None -> None
  | Some d ->
    (* Planes hold for the L-scaled points; b/L maps them back. *)
    let linv = Q.inv (Q.of_bigint d.Poly_engine.scale) in
    Some
      (dedupe_constraints
         (List.map
            (fun (a, b) -> normalize_ineq (a, Q.mul b linv))
            d.Poly_engine.facets))

(* Facets of a FULL-DIMENSIONAL point set in k-space. k = 3 runs the
   incremental hull above; other dimensions (and the unexpected
   degenerate 3-d corner) brute-force over k-subsets defining
   candidate hyperplanes. *)
let enumerate_facets_brute ~dim:k pts =
  Obs.Prof.with_span "hullnd.brute_facets" @@ fun () ->
  let pts = dedupe_points pts in
  let candidates = Combin.subsets_of_size k pts in
  let facet_of subset =
    match subset with
    | [] -> []
    | s0 :: rest ->
      let rows = Array.of_list (List.map (fun s -> Vec.sub s s0) rest) in
      (match Linsys.nullspace rows with
       | [a] ->
         let b = Vec.dot a s0 in
         let signs = List.map (fun p -> Filter.sign_of_dot_minus a p b) pts in
         let has_pos = List.exists (fun s -> s > 0) signs in
         let has_neg = List.exists (fun s -> s < 0) signs in
         if has_pos && has_neg then []
         else if has_pos then [normalize_ineq (Vec.neg a, Q.neg b)]
         else [normalize_ineq (a, b)]
       | _ -> [] (* affinely dependent subset, or not a hyperplane *))
  in
  dedupe_constraints (List.concat_map facet_of candidates)

let enumerate_facets ~dim:k pts =
  let pts = dedupe_points pts in
  if k = 1 then begin
    let xs = List.map (fun p -> p.(0)) pts in
    let lo = List.fold_left Q.min (List.hd xs) xs in
    let hi = List.fold_left Q.max (List.hd xs) xs in
    [ (Vec.make [Q.one], hi); (Vec.make [Q.minus_one], Q.neg lo) ]
  end
  else if k = 3 then
    match facets_incremental_3d pts with
    | Some facets -> facets
    | None -> enumerate_facets_brute ~dim:k pts
  else enumerate_facets_brute ~dim:k pts

let of_points ~dim pts =
  match dedupe_points pts with
  | [] -> invalid_arg "Hullnd.of_points: empty point set"
  | [p0] ->
    let eqs =
      List.map (fun e -> normalize_eq (e, Vec.dot e p0)) (standard_basis dim)
    in
    { dim; eqs; ineqs = [] }
  | (p0 :: _) as pts ->
    let dirs = List.filter_map
        (fun p -> let v = Vec.sub p p0 in
          if Vec.equal v (Vec.zero dim) then None else Some v)
        pts
    in
    let idx = Linsys.independent_rows dirs in
    let basis = List.map (List.nth dirs) idx in
    let k = List.length basis in
    assert (k >= 1);
    let normals =
      if k = dim then []
      else Linsys.nullspace (Array.of_list basis)
    in
    let eqs = List.map (fun n -> normalize_eq (n, Vec.dot n p0)) normals in
    if k = dim then
      { dim; eqs = []; ineqs = enumerate_facets ~dim pts }
    else begin
      (* Work in subspace coordinates x = p0 + B y, B the d×k matrix
         with the basis directions as columns. *)
      let bmat = Array.init dim (fun i ->
          Array.of_list (List.map (fun b -> b.(i)) basis))
      in
      let to_y p =
        match Linsys.solve_any bmat (Vec.sub p p0) with
        | Some y -> y
        | None -> assert false (* p lies in the affine hull by construction *)
      in
      let ypts = List.map to_y pts in
      let facets_y = enumerate_facets ~dim:k ypts in
      (* Lift a subspace inequality a·y <= b back to ambient space:
         pick k independent rows R of B, so y = B_R⁻¹ (x_R − p0_R);
         then w solving B_Rᵀ w = a gives the ambient functional. *)
      let brows = Array.to_list bmat in
      let rsel = Linsys.independent_rows brows in
      assert (List.length rsel = k);
      let bsub = Array.of_list (List.map (fun i -> bmat.(i)) rsel) in
      let bsub_t = Array.init k (fun i -> Array.init k (fun j -> bsub.(j).(i))) in
      let lift (a, b) =
        match Linsys.solve bsub_t a with
        | None -> assert false (* B_Rᵀ is invertible *)
        | Some w ->
          let n = Vec.zero dim in
          let n = Array.copy n in
          List.iteri (fun i r -> n.(r) <- w.(i)) rsel;
          let offset =
            List.fold_left
              (fun acc (wi, r) -> Q.add acc (Q.mul wi p0.(r)))
              b
              (List.combine (Array.to_list w) rsel)
          in
          normalize_ineq (n, offset)
      in
      { dim; eqs; ineqs = List.map lift facets_y }
    end

let combine hreps =
  match hreps with
  | [] -> invalid_arg "Hullnd.combine: empty list"
  | { dim; _ } :: _ ->
    List.iter (fun h -> if h.dim <> dim then
                  invalid_arg "Hullnd.combine: dimension mismatch") hreps;
    { dim;
      eqs = dedupe_constraints (List.concat_map (fun h -> h.eqs) hreps);
      ineqs = dedupe_constraints (List.concat_map (fun h -> h.ineqs) hreps) }

let satisfies_ineqs ineqs x =
  List.for_all (fun (a, b) -> Filter.sign_of_dot_minus a x b <= 0) ineqs

let satisfies_eqs eqs x =
  List.for_all (fun (a, b) -> Filter.sign_of_dot_minus a x b = 0) eqs

let mem_hrep h x = satisfies_eqs h.eqs x && satisfies_ineqs h.ineqs x

let vertices h =
  let d = h.dim in
  let eq_rows = List.map fst h.eqs and eq_rhs = List.map snd h.eqs in
  let r = if h.eqs = [] then 0 else Linsys.rank (Array.of_list eq_rows) in
  let need = d - r in
  let candidates =
    if need = 0 then begin
      match Linsys.solve_unique (Array.of_list eq_rows) (Array.of_list eq_rhs) with
      | Some x -> [x]
      | None -> []
    end
    else
      Combin.subsets_of_size need h.ineqs
      |> List.filter_map (fun subset ->
           let rows = Array.of_list (eq_rows @ List.map fst subset) in
           let rhs = Array.of_list (eq_rhs @ List.map snd subset) in
           Linsys.solve_unique rows rhs)
  in
  dedupe_points
    (List.filter
       (fun x -> satisfies_eqs h.eqs x && satisfies_ineqs h.ineqs x)
       candidates)

(* Support directions for the interior-point pre-filter: the full
   {-1,0,1}^d grid in low dimension, axes and diagonals otherwise. *)
let filter_directions d =
  if d <= 3 then begin
    let rec grid k =
      if k = 0 then [ [] ]
      else
        List.concat_map
          (fun tail -> List.map (fun c -> c :: tail) [-1; 0; 1])
          (grid (k - 1))
    in
    grid d
    |> List.filter (fun v -> List.exists (fun c -> c <> 0) v)
    |> List.map Vec.of_ints
  end
  else begin
    let axis i s = Array.init d (fun j -> if i = j then Q.of_int s else Q.zero) in
    let axes = List.concat_map (fun i -> [axis i 1; axis i (-1)]) (List.init d Fun.id) in
    let ones s = Array.make d (Q.of_int s) in
    ones 1 :: ones (-1) :: axes
  end

(* Candidate points strictly inside the hull of the support "core"
   (the per-direction maximizers) cannot be extreme; discarding them
   first turns the quadratic LP-pruning pass into one over a small
   boundary set. Soundness: a point in the relative interior of
   conv(core) is a convex combination of other points of the input. *)
let support_filter ~dim pts =
  match pts with
  | [] | [_] | [_; _] -> pts
  | p0 :: _ ->
    let argmax dir =
      List.fold_left
        (fun best p -> if Q.gt (Vec.dot dir p) (Vec.dot dir best) then p else best)
        p0 pts
    in
    let core = dedupe_points (List.map argmax (filter_directions dim)) in
    if List.length core < 2 then pts
    else begin
      let h = of_points ~dim core in
      let strictly_inside p =
        satisfies_eqs h.eqs p
        && List.for_all (fun (a, b) -> Filter.sign_of_dot_minus a p b < 0)
             h.ineqs
      in
      List.filter (fun p -> not (strictly_inside p)) pts
    end

(* LP-based extreme-point pruning: one membership LP per candidate.
   Confirmed-interior points are dropped from the column set of
   subsequent tests — sound, because a dropped point lies in the hull
   of the remaining ones — which shrinks the tableaus as the scan
   proceeds. *)
let extreme_points_lp pts =
  let pts = dedupe_points pts in
  match pts with
  | [] | [_] -> pts
  | p0 :: _ ->
    let pts = support_filter ~dim:(Vec.dim p0) pts in
    let rec prune confirmed = function
      | [] -> List.rev confirmed
      | p :: todo ->
        let others = List.rev_append confirmed todo in
        if Lp.in_convex_hull others p then prune confirmed todo
        else prune (p :: confirmed) todo
    in
    dedupe_points (prune [] pts)

(* Vertex extraction against a known facet list: a point of the input
   is a vertex iff its tight constraints span the ambient space.
   Replaces the per-point LP pass entirely on the d = 3 hot path. *)
let is_vertex_by_facets ~dim facets p =
  let tight =
    List.filter_map
      (fun (a, b) -> if Filter.sign_of_dot_minus a p b = 0 then Some a else None)
      facets
  in
  List.length tight >= dim && Linsys.rank (Array.of_list tight) = dim

(* The dual goes back to the caller only from the incremental engine:
   under [with_mode Rebuild] the oracle keeps every consumer on its
   own exact path. *)
let extreme_points_dual pts =
  let pts = Obs.Prof.with_span "hullnd.dedupe" (fun () -> dedupe_points pts) in
  match pts with
  | [] | [_] -> (pts, None)
  | p0 :: _ ->
    if Vec.dim p0 = 3 then
      match dual_3d pts with
      | None -> (extreme_points_lp pts, None)
      | Some d ->
        (* Tight tests run against the integer-scaled copies; scaling
           preserves the point order, so the i-th scaled point answers
           for the i-th original. The facets arrive already collapsed
           to primitive representatives. *)
        let verts =
          Obs.Prof.with_span "hullnd.tight_scan" (fun () ->
              List.combine d.Poly_engine.pts d.Poly_engine.spts
              |> List.filter (fun (_, sp) ->
                  is_vertex_by_facets ~dim:3 d.Poly_engine.facets sp)
              |> List.map fst)
        in
        let carried =
          match Poly_engine.mode () with
          | Poly_engine.Incremental -> Some d
          | Poly_engine.Rebuild -> None
        in
        (verts, carried)
    else (extreme_points_lp pts, None)

let extreme_points pts = fst (extreme_points_dual pts)

(* Testing hook for the static visibility screen: [Some v] when the
   screen decides (v = "a·p - b > 0"), [None] when it falls through to
   the exact ladder. *)
module Dev = struct
  let screen a b p =
    match scr_of_plane a b, float_image p with
    | Some s, Some pi ->
      (match screen_sign s pi with 0 -> None | v -> Some (v > 0))
    | _ -> None
end
