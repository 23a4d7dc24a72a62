(* Float-guided, exactly-certified polytope engine.

   The exact d=3 paths in Hullnd spend almost all their time on exact
   predicates over grid-scaled integer coordinates: a protocol round's
   vertices scale to ~355-bit coordinates, so every cross product and
   visibility dot in the beneath-beyond construction is a multi-limb
   bigint computation (microseconds each), and the brute intersection
   path solves an exact 3x3 system per constraint triple. The hull
   *structure*, however, is purely combinatorial — it is determined by
   predicate signs — so this engine discovers the combinatorics in
   plain doubles and then certifies the result with a handful of exact
   checks whose cost is linear in the output:

   - hull: a float beneath-beyond pass produces an index-based
     triangle soup; certification computes the exact plane of every
     soup triangle (oriented against an exact interior point), checks
     that the directed-edge multiset pairs up (each directed edge
     exactly once, its reverse exactly once — a closed oriented
     surface), and verifies that every input point lies weakly inside
     every plane. Soundness: a verified supporting plane through three
     affinely independent input points is a facet plane, and a closed
     consistently-outward-oriented triangle soup contained in the hull
     boundary has positive mapping degree, hence covers every facet —
     so the deduped primitive plane set is exactly the facet-plane set
     the exact construction produces.

   - intersection: candidate vertices come from clipping each
     constraint-pair line against the remaining constraints in floats;
     each candidate is then solved exactly from its defining triple
     and kept only if it satisfies every constraint exactly. The hull
     of the surviving points is built by the engine, and a
     completeness certificate requires every facet plane of that hull
     to match (after canonical normalization) one of the input
     constraints: then conv(W) ⊆ P by exact membership and
     P ⊆ conv(W) because P is contained in the matched constraints —
     so the result equals P exactly, no matter what the floats missed.

   Any certification failure falls back to the caller's exact path,
   which also runs alone under [with_mode Rebuild], the oracle of the
   differential tests and fuzzing. The engine is therefore
   observationally identical to the rebuild path: executor reports and
   traces are byte-for-byte the same under either mode.

   The engine keeps no state between calls: a hull or an intersection
   is a function of its input alone, so the soup a dual carries does
   not depend on what was built before it, and WAL replay rebuilds the
   same duals a live run built. The one thing it reads besides its
   input is the calling domain's mode. *)

module Q = Numeric.Q
module B = Numeric.Bigint
module Filter = Numeric.Filter

(* ------------------------------------------------------------------ *)
(* Engine selection: the incremental engine always, unless a test
   oracle scopes [with_mode Rebuild] over the calling domain. *)

type mode = Rebuild | Incremental

let override_key : mode Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Incremental)

let mode () = Domain.DLS.get override_key

let incremental () = mode () = Incremental

let with_mode m f =
  let saved = mode () in
  Domain.DLS.set override_key m;
  Fun.protect ~finally:(fun () -> Domain.DLS.set override_key saved) f

(* ------------------------------------------------------------------ *)
(* Engine metrics (exposed via chc_serve /metrics and every other
   exposition surface). *)

let hull_float_c =
  Obs.Metrics.counter "chc_poly_hull_total"
    ~help:"3-d hull builds by construction path (float-guided and \
           certified, or exact fallback)"
    ~labels:[ ("path", "float") ]

let hull_exact_c =
  Obs.Metrics.counter "chc_poly_hull_total" ~labels:[ ("path", "exact") ]

let fallback_hull_c =
  Obs.Metrics.counter "chc_poly_fallback_total"
    ~help:"float-guided constructions rejected by exact certification"
    ~labels:[ ("stage", "hull") ]

let fallback_isect_c =
  Obs.Metrics.counter "chc_poly_fallback_total"
    ~labels:[ ("stage", "intersect") ]

let isect_fast_c =
  Obs.Metrics.counter "chc_poly_intersect_total"
    ~help:"intersection vertex enumerations answered by the \
           float-guided path"
    ~labels:[ ("path", "float") ]

(* ------------------------------------------------------------------ *)
(* Canonical constraint/point helpers. These are the engine's (and,
   via aliases, Hullnd's) single source of truth, so the certified
   plane sets are canonicalized exactly the way the rebuild path
   canonicalizes its own. *)

let normalize_ineq (a, b) =
  let d = Vec.dim a in
  let rec first i =
    if i = d then None
    else if Q.is_zero a.(i) then first (i + 1)
    else Some a.(i)
  in
  match first 0 with
  | None -> (a, b)
  | Some lead ->
    let s = Q.inv (Q.abs lead) in
    (Vec.scale s a, Q.mul s b)

let compare_constraint (a1, b1) (a2, b2) =
  let c = Vec.compare a1 a2 in
  if c <> 0 then c else Q.compare b1 b2

let dedupe_constraints cs =
  let sorted = List.sort compare_constraint cs in
  let rec go = function
    | x :: (y :: _ as rest) ->
      if compare_constraint x y = 0 then go rest else x :: go rest
    | short -> short
  in
  go sorted

let dedupe_points pts =
  let sorted = List.sort Vec.compare pts in
  let rec go = function
    | x :: (y :: _ as rest) -> if Vec.equal x y then go rest else x :: go rest
    | short -> short
  in
  go sorted

let cross3 u v =
  [| Q.sub (Q.mul u.(1) v.(2)) (Q.mul u.(2) v.(1));
     Q.sub (Q.mul u.(2) v.(0)) (Q.mul u.(0) v.(2));
     Q.sub (Q.mul u.(0) v.(1)) (Q.mul u.(1) v.(0)) |]

let primitive_plane (a, b) =
  let g =
    Array.fold_left (fun acc (q : Q.t) -> B.gcd acc q.Q.num) (B.abs b.Q.num) a
  in
  if B.is_zero g || B.equal g B.one then (a, b)
  else
    ( Array.map (fun (q : Q.t) -> Q.of_bigint (B.div q.Q.num g)) a,
      Q.of_bigint (B.div b.Q.num g) )

(* ------------------------------------------------------------------ *)
(* Exact plane through p, q, r oriented so the interior point [c4]/4
   satisfies a·x < b; reports whether the (p,q,r) corner order reads
   counter-clockwise from outside ([`Keep]) or needs a swap ([`Flip]).
   [None]: degenerate triangle, or [c4] on the plane. *)

let exact_plane ~c4 p q r =
  let a = cross3 (Vec.sub q p) (Vec.sub r p) in
  if Array.for_all Q.is_zero a then None
  else begin
    let b = Vec.dot a p in
    match Filter.sign_of_dot_minus a c4 (Q.mul_int b 4) with
    | s when s < 0 -> Some ((a, b), `Keep)
    | s when s > 0 -> Some ((Vec.neg a, Q.neg b), `Flip)
    | _ -> None
  end

(* ------------------------------------------------------------------ *)
(* Float image of a point set: per-coordinate [Q.to_float], re-centered
   on the float centroid and rescaled by a power of two so coordinates
   sit near unit magnitude. Both maps are affine with positive
   uniform scaling, so hull combinatorics are unchanged, and products
   of up to three imaged coordinates stay far from the double range
   edges (the grid-scaled inputs reach ~2^400, whose triple products
   would otherwise overflow). *)

let float_points (pts : Vec.t array) =
  let n = Array.length pts in
  if n = 0 then None
  else begin
    let fp = Array.map (fun p -> Array.map Q.to_float p) pts in
    let d = Array.length fp.(0) in
    let c = Array.make d 0.0 in
    Array.iter (fun p -> for i = 0 to d - 1 do c.(i) <- c.(i) +. p.(i) done) fp;
    for i = 0 to d - 1 do c.(i) <- c.(i) /. float_of_int n done;
    let m = ref 0.0 in
    Array.iter
      (fun p ->
         for i = 0 to d - 1 do
           p.(i) <- p.(i) -. c.(i);
           let a = Float.abs p.(i) in
           if a > !m then m := a
         done)
      fp;
    if not (Float.is_finite !m) then None
    else if !m = 0.0 then Some fp
    else begin
      let _, e = Float.frexp !m in
      let s = Float.ldexp 1.0 (-e) in
      Array.iter (fun p -> for i = 0 to d - 1 do p.(i) <- p.(i) *. s done) fp;
      Some fp
    end
  end

(* ------------------------------------------------------------------ *)
(* The float beneath-beyond hull. Triangles carry their corner indices
   in consistently outward-oriented (counter-clockwise from outside)
   order, a float plane for the visibility screen, and a static
   per-triangle error bound [terr] on the float normal (the corner
   floats are centered and scaled to unit magnitude, so an absolute
   bound suffices). A visibility test whose margin does not clear the
   bound is answered "not visible" WITHOUT an exact tie-break: the
   overwhelmingly common uncertain case is a point exactly on the
   facet plane, where not-strictly-visible is the correct answer, and
   the rare barely-strictly-outside misclassification merely corrupts
   the candidate surface — the exact certification pass rejects it and
   the caller falls back to the exact build. Only sliver triangles,
   whose float normal is dominated by rounding noise ([terr] =
   infinity), carry an eagerly computed exact plane and take the exact
   route on every test. *)

type ftri = {
  i0 : int;
  i1 : int;
  i2 : int;
  fn : float array;
  fo : float;
  terr : float;
  mutable xp : (Vec.t * Q.t) option;
}

type soup = {
  tris : (int * int * int) array;
  planes : (Vec.t * Q.t) list;
  on_plane : int array;  (* tris.(k) lies on List.nth planes on_plane.(k) *)
}

exception Abort
(* Inconsistent float-guided construction (corrupted horizon, exact
   orientation disagreeing with a committed combinatorial choice, …).
   Callers fall back to the exact path. *)

(* Machine epsilon for the static error bounds. The corner floats are
   unit-magnitude, so edge vectors are O(1) and a cross-product
   component accumulates a handful of half-ulps; 32 eps over the edge
   magnitude product is a crude but comfortably safe bound. *)
let f_eps = Float.ldexp 1.0 (-52)

let fcross u v =
  [| (u.(1) *. v.(2)) -. (u.(2) *. v.(1));
     (u.(2) *. v.(0)) -. (u.(0) *. v.(2));
     (u.(0) *. v.(1)) -. (u.(1) *. v.(0)) |]

let fsub u v = [| u.(0) -. v.(0); u.(1) -. v.(1); u.(2) -. v.(2) |]
let fdot u v = (u.(0) *. v.(0)) +. (u.(1) *. v.(1)) +. (u.(2) *. v.(2))
let fmax3 u = Float.max (Float.abs u.(0)) (Float.max (Float.abs u.(1)) (Float.abs u.(2)))

let nan3 = [| Float.nan; Float.nan; Float.nan |]

(* Exact plane of a triangle in its stored corner order; [`Flip] from
   the exact test means a committed combinatorial orientation was
   wrong, so the construction aborts. *)
let xplane_of ~c4 (pts : Vec.t array) t =
  match t.xp with
  | Some pl -> pl
  | None ->
    (match exact_plane ~c4 pts.(t.i0) pts.(t.i1) pts.(t.i2) with
     | Some (pl, `Keep) -> t.xp <- Some pl; pl
     | Some (_, `Flip) | None -> raise Abort)

let tri_visible ~c4 (pts : Vec.t array) (fp : float array array) t j =
  if t.terr = Float.infinity then begin
    (* Sliver: the float plane is noise; decide exactly. *)
    let a, b = xplane_of ~c4 pts t in
    Filter.sign_of_dot_minus a pts.(j) b > 0
  end
  else begin
    let p = fp.(j) in
    let s0 = t.fn.(0) *. p.(0) in
    let s1 = t.fn.(1) *. p.(1) in
    let s2 = t.fn.(2) *. p.(2) in
    let d = s0 +. s1 +. s2 -. t.fo in
    let m =
      Float.abs s0 +. Float.abs s1 +. Float.abs s2 +. Float.abs t.fo
    in
    (* Margin must clear the triangle's normal-error bound (corner
       floats are unit-magnitude, so |p|∞ <= ~1) plus the dot's own
       rounding; otherwise default to "not visible" — see the module
       comment on the ftri type. *)
    Float.abs d > 8.0 *. (t.terr +. (f_eps *. m)) && d > 0.0
  end

(* Static bound on the absolute error of [fcross e1 e2] and of the
   derived offset, and the degeneracy threshold below which the float
   normal is considered pure noise. *)
let tri_err e1 e2 = 32.0 *. f_eps *. (1.0 +. (fmax3 e1 *. fmax3 e2))

(* Build a triangle whose corner order is already committed (cone
   triangles inherit orientation from the horizon's directed edges).
   Slivers compute their exact plane up front; an exact [`Flip] means
   the committed order contradicts exact geometry — abort. *)
let mk_tri_committed ~c4 (pts : Vec.t array) (fp : float array array) i0 i1 i2 =
  let e1 = fsub fp.(i1) fp.(i0) and e2 = fsub fp.(i2) fp.(i0) in
  let fn = fcross e1 e2 in
  let terr = tri_err e1 e2 in
  if (not (Float.is_finite (fmax3 fn))) || fmax3 fn <= 64.0 *. terr then begin
    match exact_plane ~c4 pts.(i0) pts.(i1) pts.(i2) with
    | Some (pl, `Keep) ->
      { i0; i1; i2; fn = nan3; fo = Float.nan; terr = Float.infinity;
        xp = Some pl }
    | Some (_, `Flip) | None -> raise Abort
  end
  else { i0; i1; i2; fn; fo = fdot fn fp.(i0); terr; xp = None }

(* Build a triangle with free orientation, fixed against the float
   interior point [fc] (exact tie-break against [c4]). Used for the
   seed faces, where no combinatorial orientation exists yet. *)
let mk_tri_oriented ~c4 (pts : Vec.t array) (fp : float array array) ~fc i0 i1 i2 =
  let e1 = fsub fp.(i1) fp.(i0) and e2 = fsub fp.(i2) fp.(i0) in
  let fn = fcross e1 e2 in
  let terr = tri_err e1 e2 in
  let exact_route () =
    match exact_plane ~c4 pts.(i0) pts.(i1) pts.(i2) with
    | Some (pl, `Keep) ->
      { i0; i1; i2; fn = nan3; fo = Float.nan; terr = Float.infinity;
        xp = Some pl }
    | Some (pl, `Flip) ->
      { i0; i1 = i2; i2 = i1; fn = nan3; fo = Float.nan;
        terr = Float.infinity; xp = Some pl }
    | None -> raise Abort
  in
  if (not (Float.is_finite (fmax3 fn))) || fmax3 fn <= 64.0 *. terr then
    exact_route ()
  else begin
    let fo = fdot fn fp.(i0) in
    let s0 = fn.(0) *. fc.(0) and s1 = fn.(1) *. fc.(1) and s2 = fn.(2) *. fc.(2) in
    let d = s0 +. s1 +. s2 -. fo in
    let m = Float.abs s0 +. Float.abs s1 +. Float.abs s2 +. Float.abs fo in
    if Float.abs d <= 8.0 *. (terr +. (f_eps *. m)) then exact_route ()
    else if d < 0.0 then { i0; i1; i2; fn; fo; terr; xp = None }
    else
      { i0; i1 = i2; i2 = i1;
        fn = [| -.fn.(0); -.fn.(1); -.fn.(2) |]; fo = -.fo; terr; xp = None }
  end

let tri_dir_edges t = [ (t.i0, t.i1); (t.i1, t.i2); (t.i2, t.i0) ]

(* Whether directed edges form one simple closed cycle: out-degree
   and in-degree exactly 1 at every node they touch, and one walk
   covering every edge. *)
let simple_cycle = function
  | [] -> false
  | (start, _) :: _ as edges ->
    let succ = Hashtbl.create 16 and indeg = Hashtbl.create 16 in
    let degrees_ok =
      List.for_all
        (fun (u, v) ->
           if Hashtbl.mem succ u || Hashtbl.mem indeg v then false
           else begin
             Hashtbl.add succ u v;
             Hashtbl.add indeg v ();
             true
           end)
        edges
    in
    let rec walk x steps =
      match Hashtbl.find_opt succ x with
      | None -> false
      | Some y ->
        if y = start then steps + 1 = List.length edges else walk y (steps + 1)
    in
    degrees_ok && walk start 0

(* Horizon of the visible set, as directed edges: in a consistently
   oriented soup every undirected edge appears once in each direction,
   so a directed edge of a visible triangle whose reverse is not in
   the visible set borders a hidden triangle — a horizon edge. The
   replacement cone triangle (p, u, v) re-supplies the directed edge
   (u, v), keeping the orientation invariant with no geometric test.
   The horizon must form one simple closed cycle; anything else means
   the float classification corrupted the surface. *)
let horizon_cycle visible =
  let edges = Hashtbl.create 64 in
  List.iter
    (fun t ->
       List.iter
         (fun (u, v) ->
            if Hashtbl.mem edges (u, v) then raise Abort
            else Hashtbl.add edges (u, v) ())
         (tri_dir_edges t))
    visible;
  let horizon =
    Hashtbl.fold
      (fun (u, v) () acc ->
         if Hashtbl.mem edges (v, u) then acc else (u, v) :: acc)
      edges []
  in
  if simple_cycle horizon then horizon else raise Abort

(* One beneath-beyond insertion. *)
let insert ~c4 (pts : Vec.t array) (fp : float array array) tris j =
  let visible, hidden =
    List.partition (fun t -> tri_visible ~c4 pts fp t j) tris
  in
  if visible = [] then tris
  else begin
    let horizon = horizon_cycle visible in
    let cone =
      List.map (fun (u, v) -> mk_tri_committed ~c4 pts fp j u v) horizon
    in
    List.rev_append cone hidden
  end

(* The sorted distinct primitive planes of a triangle list, with the
   index each triangle's plane took among them. *)
let index_planes planes =
  let tagged =
    List.sort (fun (p, _) (q, _) -> compare_constraint p q)
      (List.mapi (fun k pl -> (primitive_plane pl, k)) planes)
  in
  let on_plane = Array.make (List.length planes) 0 in
  let distinct, _ =
    List.fold_left
      (fun (acc, ix) (pl, k) ->
         match acc with
         | prev :: _ when compare_constraint prev pl = 0 ->
           on_plane.(k) <- ix - 1;
           (acc, ix)
         | _ ->
           on_plane.(k) <- ix;
           (pl :: acc, ix + 1))
      ([], 0) tagged
  in
  (List.rev distinct, on_plane)

(* Exact certification of a finished soup; [None] = rejected.
   (1) every triangle's exact plane exists in its stored orientation
   (so each triangle is non-degenerate, lies in a supporting-plane
   candidate, and is consistently outward-oriented);
   (2) the directed-edge multiset pairs up exactly — each directed
   edge once, its reverse once — so the soup is a closed oriented
   surface mapping onto the hull boundary with positive degree, which
   makes the plane set complete;
   (3) every input point is weakly inside every deduped plane, which
   makes every plane a genuine supporting (hence facet) plane.
   The certified soup records which deduped plane each triangle lies
   on, for {!covering}. *)
let certify ~c4 (pts : Vec.t array) tris =
  Obs.Prof.with_span "poly.certify" @@ fun () ->
  match
    let planes = List.map (fun t -> xplane_of ~c4 pts t) tris in
    let edges = Hashtbl.create 256 in
    List.iter
      (fun t ->
         List.iter
           (fun e ->
              if Hashtbl.mem edges e then raise Abort
              else Hashtbl.add edges e ())
           (tri_dir_edges t))
      tris;
    Hashtbl.iter
      (fun (u, v) () -> if not (Hashtbl.mem edges (v, u)) then raise Abort)
      edges;
    index_planes planes
  with
  | planes, on_plane ->
    if
      Array.for_all
        (fun p ->
           List.for_all
             (fun (a, b) -> Filter.sign_of_dot_minus a p b <= 0)
             planes)
        pts
    then
      Some
        { tris = Array.of_list (List.map (fun t -> (t.i0, t.i1, t.i2)) tris);
          planes;
          on_plane }
    else None
  | exception Abort -> None

(* A certified soup is a closed surface of outward-facing triangles
   on supporting planes, so it covers the hull boundary a whole number
   k >= 1 of times, and its signed-volume sum is k times the volume.
   Within one facet, an edge its triangles do not pair lies on the
   facet's boundary, and every corner of the facet is left by k such
   edges: k = 1 exactly when the unpaired directed edges of the
   triangles on one facet plane form one simple cycle. *)
let covering soup =
  let n = Array.length soup.tris in
  if n = 0 then None
  else begin
    let facet = soup.on_plane.(0) in
    let edges = Hashtbl.create 16 in
    Array.iteri
      (fun k (a, b, c) ->
         if soup.on_plane.(k) = facet then
           List.iter
             (fun e -> Hashtbl.replace edges e ())
             [ (a, b); (b, c); (c, a) ])
      soup.tris;
    let unpaired =
      Hashtbl.fold
        (fun (u, v) () acc ->
           if Hashtbl.mem edges (v, u) then acc else (u, v) :: acc)
        edges []
    in
    if simple_cycle unpaired then Some soup.tris else None
  end

(* Greedy float seed: four points spanning a tetrahedron of
   comfortably non-zero volume. Deterministic (max with strict
   improvement, so ties resolve to the lowest index). *)
let float_seed (fp : float array array) =
  let n = Array.length fp in
  let p0 = 0 in
  let best = ref 0.0 and arg = ref (-1) in
  for i = 1 to n - 1 do
    let d = fmax3 (fsub fp.(i) fp.(p0)) in
    if d > !best then begin best := d; arg := i end
  done;
  if !arg < 0 || !best <= 1e-300 then None
  else begin
    let p1 = !arg in
    let e1 = fsub fp.(p1) fp.(p0) in
    best := 0.0; arg := -1;
    for i = 1 to n - 1 do
      if i <> p1 then begin
        let a = fmax3 (fcross e1 (fsub fp.(i) fp.(p0))) in
        if a > !best then begin best := a; arg := i end
      end
    done;
    if !arg < 0 || !best <= 1e-12 then None
    else begin
      let p2 = !arg in
      let nrm = fcross e1 (fsub fp.(p2) fp.(p0)) in
      best := 0.0; arg := -1;
      for i = 1 to n - 1 do
        if i <> p1 && i <> p2 then begin
          let v = Float.abs (fdot nrm (fsub fp.(i) fp.(p0))) in
          if v > !best then begin best := v; arg := i end
        end
      done;
      if !arg < 0 || !best <= fmax3 nrm *. 1e-9 then None
      else Some (p0, p1, p2, !arg)
    end
  end

(* [hull_3d pts]: certified facet planes (and the triangle soup
   behind them) of the full-dimensional hull of [pts] — a deduped,
   lexicographically sorted array — built by beneath-beyond from a
   float seed tetrahedron. [None]: the input is not full-dimensional
   in float terms, or the construction failed certification — callers
   fall back to the exact path. *)
let hull_3d (pts : Vec.t array) =
  let n = Array.length pts in
  let seeded =
    if n < 4 then None
    else
      Option.bind (float_points pts) (fun fp ->
          Option.map (fun seed -> (fp, seed)) (float_seed fp))
  in
  match seeded with
  | None -> None
  | Some (fp, (a, b, c, d)) ->
    (try
       let c4 = Vec.add (Vec.add pts.(a) pts.(b)) (Vec.add pts.(c) pts.(d)) in
       let fc =
         let s = Array.make 3 0.0 in
         List.iter
           (fun i -> for k = 0 to 2 do s.(k) <- s.(k) +. fp.(i).(k) done)
           [ a; b; c; d ];
         for k = 0 to 2 do s.(k) <- s.(k) /. 4.0 done;
         s
       in
       let face = mk_tri_oriented ~c4 pts fp ~fc in
       let tris = ref [ face a b c; face a b d; face a c d; face b c d ] in
       for j = 0 to n - 1 do
         if j <> a && j <> b && j <> c && j <> d then
           tris := insert ~c4 pts fp !tris j
       done;
       match certify ~c4 pts !tris with
       | None -> Obs.Metrics.incr fallback_hull_c; None
       | Some _ as soup -> soup
     with Abort -> Obs.Metrics.incr fallback_hull_c; None)

(* ------------------------------------------------------------------ *)
(* The dual representation. *)

type dual = {
  pts : Vec.t list;             (* deduped sorted points it was built over *)
  spts : Vec.t list;            (* grid-scaled integer copies, same order *)
  facets : (Vec.t * Q.t) list;  (* primitive facet planes for [spts] *)
  scale : B.t;                  (* the grid scale: spts = scale · pts *)
  shape : soup option;          (* certified soup; [None] from the exact path *)
}

(* [dual_3d pts ~rebuild]: the engine's front door for 3-d hull
   construction. [pts] is the deduped sorted unscaled point list;
   [rebuild] is the caller's exact construction (scaling included),
   used verbatim under [with_mode Rebuild] and as the fallback
   whenever the float-guided build fails certification. *)
let dual_3d pts ~rebuild =
  if not (incremental ()) then rebuild ()
  else
    Obs.Prof.with_span "poly.build" @@ fun () ->
    let spts, scale = Numeric.Grid.scale_points pts in
    match hull_3d (Array.of_list spts) with
    | Some soup ->
      Obs.Metrics.incr hull_float_c;
      Some { pts; spts; facets = soup.planes; scale; shape = Some soup }
    | None ->
      Obs.Metrics.incr hull_exact_c;
      rebuild ()

(* ------------------------------------------------------------------ *)
(* Float-guided intersection vertex enumeration.

   Candidates come from pair-line clipping: for every pair (i, j) of
   constraints whose planes meet in a line, clip the line's parameter
   against the remaining constraints; the surviving interval's
   endpoints name candidate tight triples (i, j, k). Every edge of the
   intersection polytope lies on such a line (its two incident facet
   planes are among the constraints), so every vertex shows up as an
   endpoint — up to float noise, which the completeness certificate
   catches. *)

let fsolve3 r0 r1 r2 b0 b1 b2 =
  (* Rows r0, r1, r2; Cramer via the cross-product adjugate. *)
  let c12 = fcross r1 r2 and c20 = fcross r2 r0 and c01 = fcross r0 r1 in
  let det = fdot r0 c12 in
  if Float.abs det <= 1e-12 then None
  else
    Some
      [| ((b0 *. c12.(0)) +. (b1 *. c20.(0)) +. (b2 *. c01.(0))) /. det;
         ((b0 *. c12.(1)) +. (b1 *. c20.(1)) +. (b2 *. c01.(1))) /. det;
         ((b0 *. c12.(2)) +. (b1 *. c20.(2)) +. (b2 *. c01.(2))) /. det |]

let isect_max_constraints = 160

(* [vertices_3d ~ineqs]: the exact vertex set of
   P = {x : a·x <= b for all (a,b) in ineqs}, certified complete,
   with the dual certified on the way, or [None] (empty /
   lower-dimensional / too many constraints / certificate failure —
   callers run the exact enumeration). Every candidate is solved
   uniquely from three constraints and kept only inside all of them,
   so it has three independent tight constraints at a feasible point:
   a vertex by construction. The certified point set is therefore the
   vertex list, and the dual's points are all vertices. *)
let vertices_3d ~ineqs =
  if not (incremental ()) then None
  else begin
    let m = List.length ineqs in
    if m < 4 || m > isect_max_constraints then None
    else begin
      Obs.Prof.with_span "poly.isect" @@ fun () ->
      let cons = Array.of_list ineqs in
      (* Float rows, normalized so max |coefficient| = 1. *)
      let frows =
        Array.map
          (fun (a, b) ->
             let fa = Array.map Q.to_float a in
             let fb = Q.to_float b in
             let s = fmax3 fa in
             if s > 0.0 && Float.is_finite s && Float.is_finite fb then begin
               for i = 0 to 2 do fa.(i) <- fa.(i) /. s done;
               Some (fa, fb /. s)
             end
             else None)
          cons
      in
      if Array.exists (fun r -> r = None) frows then None
      else begin
        let frows = Array.map Option.get frows in
        (* Pair-line clipping: candidate (triple, float point) list. *)
        let candidates = ref [] in
        (try
           for i = 0 to m - 2 do
             let ai, bi = frows.(i) in
             for j = i + 1 to m - 1 do
               let aj, bj = frows.(j) in
               let d = fcross ai aj in
               let dn = fmax3 d in
               if dn > 1e-9 then begin
                 match fsolve3 ai aj d bi bj 0.0 with
                 | None -> ()
                 | Some p0 ->
                   if fmax3 p0 < 1e6 then begin
                     let lo = ref neg_infinity and hi = ref infinity in
                     let klo = ref (-1) and khi = ref (-1) in
                     let feasible = ref true in
                     let k = ref 0 in
                     while !feasible && !k < m do
                       if !k <> i && !k <> j then begin
                         let ak, bk = frows.(!k) in
                         let ad = fdot ak d in
                         let rhs = bk -. fdot ak p0 in
                         if Float.abs ad <= 1e-12 then begin
                           if rhs < -1e-7 then feasible := false
                         end
                         else begin
                           let t = rhs /. ad in
                           if ad > 0.0 then begin
                             if t < !hi then begin hi := t; khi := !k end
                           end
                           else if t > !lo then begin lo := t; klo := !k end
                         end
                       end;
                       incr k
                     done;
                     if !feasible && !lo <= !hi +. 1e-7 then begin
                       if !klo >= 0 && Float.abs !lo < 1e11 then
                         candidates :=
                           ( (i, j, !klo),
                             [| p0.(0) +. (!lo *. d.(0));
                                p0.(1) +. (!lo *. d.(1));
                                p0.(2) +. (!lo *. d.(2)) |] )
                           :: !candidates;
                       if !khi >= 0 && Float.abs !hi < 1e11 then
                         candidates :=
                           ( (i, j, !khi),
                             [| p0.(0) +. (!hi *. d.(0));
                                p0.(1) +. (!hi *. d.(1));
                                p0.(2) +. (!hi *. d.(2)) |] )
                           :: !candidates
                     end
                   end
               end
             done
           done
         with _ -> ());
        (* Cluster float-coincident candidates; one exact solve per
           cluster (more triples tried if the first is singular or
           exactly infeasible). *)
        let clusters : ((int * int * int) list ref * float array) list ref =
          ref []
        in
        List.iter
          (fun (triple, x) ->
             let tol = 1e-5 *. (1.0 +. fmax3 x) in
             match
               List.find_opt
                 (fun (_, cx) -> fmax3 (fsub x cx) <= tol)
                 !clusters
             with
             | Some (ts, _) -> ts := triple :: !ts
             | None -> clusters := (ref [ triple ], x) :: !clusters)
          (List.rev !candidates);
        let member x =
          Array.for_all
            (fun (a, b) -> Filter.sign_of_dot_minus a x b <= 0)
            cons
        in
        let solve_cluster (ts, _) =
          let rec go = function
            | [] -> None
            | (i, j, k) :: rest ->
              let rows = [| fst cons.(i); fst cons.(j); fst cons.(k) |] in
              let rhs = [| snd cons.(i); snd cons.(j); snd cons.(k) |] in
              (match Linsys.solve_unique rows rhs with
               | Some x when member x -> Some x
               | _ -> go rest)
          in
          go (List.rev !ts)
        in
        let w = dedupe_points (List.filter_map solve_cluster !clusters) in
        if List.length w < 4 then None
        else begin
          let sw, scale = Numeric.Grid.scale_points w in
          let arr = Array.of_list sw in
          match hull_3d arr with
          | None -> Obs.Metrics.incr fallback_isect_c; None
          | Some soup ->
            (* Completeness certificate: every facet plane of conv(W),
               mapped back to the unscaled frame and canonically
               normalized, must be one of the input constraints. *)
            let sorted_cons =
              List.sort compare_constraint
                (List.map normalize_ineq ineqs)
            in
            let linv = Q.inv (Q.of_bigint scale) in
            let complete =
              List.for_all
                (fun (a, b) ->
                   let c = normalize_ineq (a, Q.mul b linv) in
                   List.exists
                     (fun c' -> compare_constraint c c' = 0)
                     sorted_cons)
                soup.planes
            in
            if not complete then begin
              Obs.Metrics.incr fallback_isect_c; None
            end
            else begin
              Obs.Metrics.incr isect_fast_c;
              Some
                ( w,
                  { pts = w; spts = sw; facets = soup.planes; scale;
                    shape = Some soup } )
            end
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Test hooks. *)

module Dev = struct
  let dual_of_soup (pts : Vec.t array) (tris : (int * int * int) array) =
    match Array.to_list pts with
    | p :: q :: r :: s :: _ as spts ->
      let c4 = Vec.add (Vec.add p q) (Vec.add r s) in
      let fts =
        Array.to_list
          (Array.map
             (fun (a, b, c) ->
                { i0 = a; i1 = b; i2 = c; fn = nan3; fo = Float.nan;
                  terr = Float.infinity; xp = None })
             tris)
      in
      Option.map
        (fun soup ->
           { pts = spts; spts; facets = soup.planes; scale = B.one;
             shape = Some soup })
        (certify ~c4 pts fts)
    | _ -> None

  let certify pts tris = Option.map (fun d -> d.facets) (dual_of_soup pts tris)
end
