module Q = Numeric.Q
module Filter = Numeric.Filter

(* [dual] is the certified dual a d = 3 polytope was built with, when
   the incremental engine built it: scaled points, facet planes and
   the soup (Poly_engine.dual). It is never part of the value: [equal],
   [distinct] and the wire codec read [dim] and [verts] only, and a
   polytope without one (d <= 2, a scaled L-operator term, anything
   built under the rebuild engine) answers every query from its
   vertices. *)
type t = { dim : int; verts : Vec.t list; dual : Poly_engine.dual option }

let plain dim verts = { dim; verts; dual = None }

(* ------------------------------------------------------------------ *)
(* Canonicalization. *)

let canon_1d pts =
  let xs = List.map (fun p -> p.(0)) pts in
  let lo = List.fold_left Q.min (List.hd xs) xs in
  let hi = List.fold_left Q.max (List.hd xs) xs in
  if Q.equal lo hi then [Vec.make [lo]] else [Vec.make [lo]; Vec.make [hi]]

let canonicalize ~dim pts =
  match dim with
  | 1 -> plain dim (canon_1d pts)
  | 2 -> plain dim (Hull2d.hull pts)
  | _ ->
    let verts, dual = Hullnd.extreme_points_dual pts in
    { dim; verts; dual }

(* ------------------------------------------------------------------ *)
(* The Minkowski table: under an adversarial (lag) scheduler several
   processes average the same polytopes in one round, and the d >= 3
   vertex-sum hull is the dearest step of the L operator. Keys are
   pairs of canonical vertex lists, smaller first: a ⊕ b and b ⊕ a are
   the same set, so a hit returns the value of a structurally
   identical computation (see Parallel.Memo). *)

let verts_hash vs =
  List.fold_left
    (fun acc v -> ((acc * 1000003) + Vec.hash v) land max_int)
    17 vs

let verts_equal a b =
  List.compare_lengths a b = 0 && List.for_all2 Vec.equal a b

let mink_memo : (Vec.t list * Vec.t list, t) Parallel.Memo.t =
  Parallel.Memo.create ~name:"minkowski" ~max_size:4096
    ~hash:(fun (a, b) -> (verts_hash a * 1000003 + verts_hash b) land max_int)
    ~equal:(fun (a1, b1) (a2, b2) -> verts_equal a1 a2 && verts_equal b1 b2)
    ()

let of_points ~dim pts =
  match pts with
  | [] -> invalid_arg "Polytope.of_points: empty point set"
  | p :: _ ->
    if Vec.dim p <> dim || dim < 1 then
      invalid_arg "Polytope.of_points: dimension mismatch"
    else begin
      List.iter
        (fun q -> if Vec.dim q <> dim then
            invalid_arg "Polytope.of_points: inconsistent dimensions")
        pts;
      if dim <= 2 then canonicalize ~dim pts
      else
        Obs.Prof.with_span "geometry.hull" (fun () -> canonicalize ~dim pts)
    end

let singleton p = plain (Vec.dim p) [ p ]

let vertices p = p.verts
let dim p = p.dim
let is_point p = match p.verts with [_] -> true | _ -> false

let equal p q =
  p == q
  || (p.dim = q.dim
      && List.compare_lengths p.verts q.verts = 0
      && List.for_all2 Vec.equal p.verts q.verts)

(* First occurrences, in order. Callers pass a round's n inputs or a
   run's n·t_end history entries, and unequal polytopes usually differ
   at the first vertex, so the quadratic scan costs less than hashing
   every vertex. *)
let distinct polys =
  List.rev
    (List.fold_left
       (fun acc p -> if List.exists (equal p) acc then acc else p :: acc)
       [] polys)

let contains p x =
  match p.dim with
  | 1 ->
    (match p.verts with
     | [a] -> Q.equal x.(0) a.(0)
     | [a; b] ->
       Filter.compare a.(0) x.(0) <= 0 && Filter.compare x.(0) b.(0) <= 0
     | _ -> assert false)
  | 2 -> Hull2d.contains p.verts x
  | _ -> Lp.in_convex_hull p.verts x

let subset p q =
  if p.dim <> q.dim then invalid_arg "Polytope.subset: dimension mismatch"
  else if equal p q then true
  else if p.dim >= 3 then
    (* One H-representation of [q] answers every vertex of [p] with
       exact sign tests, where [contains] would run one LP per vertex.
       A carried dual already holds it: its planes bound the scaled
       points, so b/scale maps them back. *)
    let h =
      match q.dual with
      | Some d ->
        let linv = Q.inv (Q.of_bigint d.Poly_engine.scale) in
        { Hullnd.dim = q.dim;
          eqs = [];
          ineqs =
            List.map (fun (a, b) -> (a, Q.mul b linv)) d.Poly_engine.facets }
      | None -> Hullnd.of_points ~dim:q.dim q.verts
    in
    List.for_all (Hullnd.mem_hrep h) p.verts
  else List.for_all (contains q) p.verts

(* ------------------------------------------------------------------ *)
(* The paper's L operator: weighted Minkowski sum. *)

(* Scaling by c > 0 is a similarity: it preserves extremeness, the
   lexicographic vertex order and (d = 2) the counter-clockwise turn,
   so every canonical form maps through directly — no hull recompute. *)
let scale_poly c p =
  if Q.equal c Q.one then p
  else plain p.dim (List.map (Vec.scale c) p.verts)

let minkowski_pair a b =
  match a.dim with
  | 1 ->
    (match a.verts, b.verts with
     | (la :: _), (lb :: _) ->
       let ha = List.nth a.verts (List.length a.verts - 1) in
       let hb = List.nth b.verts (List.length b.verts - 1) in
       plain 1 (canon_1d [Vec.add la lb; Vec.add ha hb])
     | _ -> assert false)
  | 2 -> plain 2 (Hull2d.minkowski_sum a.verts b.verts)
  | d ->
    let ((u, v) as key) =
      if List.compare Vec.compare a.verts b.verts <= 0 then (a.verts, b.verts)
      else (b.verts, a.verts)
    in
    let sum =
      Parallel.Memo.find_or_add mink_memo key (fun () ->
          Obs.Prof.with_span "geometry.minkowski" (fun () ->
              let sums =
                Obs.Prof.with_span "mink.sums" (fun () ->
                List.concat_map (fun x -> List.map (Vec.add x) v) u)
              in
              Obs.Prof.with_span "mink.canon" (fun () ->
              canonicalize ~dim:d sums)))
    in
    (* the oracle carries no dual, whatever the table holds *)
    if Poly_engine.mode () = Poly_engine.Rebuild then plain d sum.verts
    else sum

(* Terms are merged before any geometry runs. For a convex P and
   a, b >= 0, aP ⊕ bP = (a+b)P, so terms with equal polytopes collapse
   into one carrying the summed weight, and zero-weight terms ({0}, the
   identity of ⊕) drop out. Once the processes' estimates coincide, a
   round whose inputs all agree reduces to one term of weight 1 and
   runs no scaling, hull or Minkowski pass. The value is the same set
   either way, and canonical forms are unique per set, so merging
   never changes a transcript. *)
let merge_terms terms =
  let rec add c p = function
    | [] -> [ (c, p) ]
    | (c', p') :: rest when equal p p' -> (Q.add c c', p') :: rest
    | t :: rest -> t :: add c p rest
  in
  List.fold_left
    (fun acc (c, p) -> if Q.is_zero c then acc else add c p acc)
    [] terms

let lop_merged_c =
  Obs.Metrics.counter "chc_lop_total"
    ~help:"L-operator evaluations, by whether merging equal polytopes left \
           one term (no geometry) or several (a Minkowski sum)"
    ~labels:[ ("result", "merged") ]

let lop_minkowski_c =
  Obs.Metrics.counter "chc_lop_total" ~labels:[ ("result", "minkowski") ]

let linear_combination terms =
  match terms with
  | [] -> invalid_arg "Polytope.linear_combination: empty"
  | (_, p0) :: _ ->
    let d = p0.dim in
    List.iter
      (fun (c, p) ->
         if p.dim <> d then
           invalid_arg "Polytope.linear_combination: dimension mismatch";
         if Q.sign c < 0 then
           invalid_arg "Polytope.linear_combination: negative weight")
      terms;
    let total = Numeric.Q.sum (List.map fst terms) in
    if not (Q.equal total Q.one) then
      invalid_arg "Polytope.linear_combination: weights must sum to 1";
    match merge_terms terms with
    | [ (_, p) ] ->
      (* the merged weight is the whole sum, 1: L is the identity *)
      Obs.Metrics.incr lop_merged_c;
      p
    | merged ->
      Obs.Metrics.incr lop_minkowski_c;
      (match List.map (fun (c, p) -> scale_poly c p) merged with
       | [] -> assert false
       | first :: rest -> List.fold_left minkowski_pair first rest)

(* Equal inputs are grouped with integer counts before any rational
   is built: c copies of P weigh c/k, the weight [merge_terms] would
   reach by adding c copies of 1/k, and the groups keep first-occurrence
   order, so the Minkowski chain is the one [linear_combination] runs
   on the uniform weights. A round whose inputs all agree does no
   arithmetic at all. *)
let average polys =
  match polys with
  | [] -> invalid_arg "Polytope.average: empty"
  | p0 :: rest ->
    let rec all_equal = function
      | [] -> true
      | p :: rest -> equal p0 p && all_equal rest
    in
    if all_equal rest then begin
      Obs.Metrics.incr lop_merged_c;
      p0
    end
    else begin
      let rec add p = function
        | [] -> [ (1, p) ]
        | (c, p') :: rest when equal p p' -> (c + 1, p') :: rest
        | g :: rest -> g :: add p rest
      in
      let groups = List.fold_left (fun acc p -> add p acc) [] polys in
      let k = List.length polys in
      linear_combination (List.map (fun (c, p) -> (Q.of_ints c k, p)) groups)
    end

(* ------------------------------------------------------------------ *)
(* Intersection. *)

let intersect_1d polys =
  let lo_hi p =
    match p.verts with
    | [a] -> (a.(0), a.(0))
    | [a; b] -> (a.(0), b.(0))
    | _ -> assert false
  in
  let bounds = List.map lo_hi polys in
  let lo = List.fold_left (fun acc (l, _) -> Q.max acc l)
      (fst (List.hd bounds)) bounds
  in
  let hi = List.fold_left (fun acc (_, h) -> Q.min acc h)
      (snd (List.hd bounds)) bounds
  in
  if Q.gt lo hi then None
  else Some (plain 1 (canon_1d [Vec.make [lo]; Vec.make [hi]]))

let intersect polys =
  match polys with
  | [] -> invalid_arg "Polytope.intersect: empty list"
  | first :: rest ->
    let d = first.dim in
    List.iter
      (fun p -> if p.dim <> d then
          invalid_arg "Polytope.intersect: dimension mismatch")
      rest;
    (* P ∩ P = P: round 0's subset hulls coincide whenever the dropped
       points lie inside the rest, and the copies cost nothing to drop *)
    (match distinct polys with
     | [] -> assert false
     | [ p ] -> Some p
     | first :: rest as polys ->
     match d with
     | 1 -> intersect_1d polys
     | 2 ->
       let result =
         List.fold_left
           (fun acc p ->
              match acc with
              | [] -> []
              | _ -> Hull2d.intersect acc p.verts)
           first.verts rest
       in
       (match result with
        | [] -> None
        | verts -> Some (plain 2 verts))
     | _ ->
       Obs.Prof.with_span "geometry.intersect" @@ fun () ->
       let hreps =
         Obs.Prof.with_span "isect.hreps" (fun () ->
             List.map (fun p -> Hullnd.of_points ~dim:d p.verts) polys)
       in
       let combined = Hullnd.combine hreps in
       (* Certified fast path: pair-line clipping over the constraint
          system. Completeness is certified exactly (see Poly_engine),
          so a [Some] here equals the brute enumeration value-for-value;
          [None] (mode, degeneracy, certificate failure) falls through
          to the exact path. *)
       let fast =
         if d = 3 && combined.Hullnd.eqs = [] then
           Poly_engine.vertices_3d ~ineqs:combined.Hullnd.ineqs
         else None
       in
       match fast with
       | Some (verts, dual) -> Some { dim = d; verts; dual = Some dual }
       | None ->
         match Obs.Prof.with_span "isect.vertices" (fun () ->
             Hullnd.vertices combined) with
         | [] -> None
         | vs ->
           Some
             (Obs.Prof.with_span "isect.extreme" (fun () ->
                  canonicalize ~dim:d vs)))

(* ------------------------------------------------------------------ *)
(* Round 0: the points every (|X|-f)-subset hull contains. *)

let subset_hull_region ~dim ~f pts =
  let keep = List.length pts - f in
  if keep < 1 then invalid_arg "Polytope.subset_hull_region: not enough points";
  intersect
    (List.map (of_points ~dim) (Numeric.Combin.subsets_of_size keep pts))

(* The hyperplane through [dim] distinct points as [(normal, offset)];
   [None] when they are affinely dependent (collinear, for dim = 3). *)
let hyperplane_through = function
  | [ a; b ] ->
    let e = Vec.sub b a in
    let normal = Vec.make [ Q.neg e.(1); e.(0) ] in
    Some (normal, Vec.dot normal a)
  | [ a; b; c ] ->
    let normal = Poly_engine.cross3 (Vec.sub b a) (Vec.sub c a) in
    if Array.for_all Q.is_zero normal then None
    else Some (normal, Vec.dot normal a)
  | _ -> invalid_arg "Polytope.hyperplane_through: need 2 or 3 points"

(* x lies outside some (|X|-f)-subset hull iff a closed halfspace
   holding |X|-f view points misses x, so the region is the
   intersection of all such halfspaces. When X is full-dimensional,
   every subset hull is cut out by hyperplanes through [dim] affinely
   independent view points: its own facets, or for a flat subset hull,
   hyperplanes through its affine hull plus view points outside it.
   So the closed sides of those hyperplanes that hold |X|-f points,
   counting multiplicity, suffice. [None] when X is not
   full-dimensional: then every such hyperplane holds all of X. *)
let depth_halfspaces ~dim ~keep pts =
  let counted =
    List.fold_left
      (fun acc p ->
         match acc with
         | (q, k) :: rest when Vec.equal p q -> (q, k + 1) :: rest
         | _ -> (p, 1) :: acc)
      [] (List.sort Vec.compare pts)
  in
  let distinct = Array.of_list (List.rev_map fst counted) in
  let mult = Array.of_list (List.rev_map snd counted) in
  let full = ref false in
  let sides defining =
    match hyperplane_through (List.map (Array.get distinct) defining) with
    | None -> []
    | Some (normal, offset) ->
      (* the defining points lie on the hyperplane by construction *)
      let on = ref 0 and below = ref 0 and above = ref 0 in
      Array.iteri
        (fun i p ->
           if List.mem i defining then on := !on + mult.(i)
           else
             match Filter.sign_of_dot_minus normal p offset with
             | 0 -> on := !on + mult.(i)
             | s when s < 0 -> below := !below + mult.(i)
             | _ -> above := !above + mult.(i))
        distinct;
      if !below + !above > 0 then full := true;
      (if !below + !on >= keep then [ (normal, offset) ] else [])
      @ (if !above + !on >= keep then [ (Vec.neg normal, Q.neg offset) ]
         else [])
  in
  let cons =
    List.concat_map sides
      (Numeric.Combin.subsets_of_size dim
         (List.init (Array.length distinct) Fun.id))
  in
  if !full then
    Some
      (Poly_engine.dedupe_constraints
         (List.map Poly_engine.normalize_ineq cons))
  else None

let depth_region ~dim ~f pts =
  let keep = List.length pts - f in
  if keep < 1 then invalid_arg "Polytope.depth_region: not enough points";
  List.iter
    (fun p -> if Vec.dim p <> dim then
        invalid_arg "Polytope.depth_region: dimension mismatch")
    pts;
  match dim with
  | 1 ->
    (* order statistics x_(f+1) and x_(|X|-f) *)
    let xs = Array.of_list (List.sort Q.compare (List.map (fun p -> p.(0)) pts)) in
    let lo = xs.(f) and hi = xs.(keep - 1) in
    if Q.gt lo hi then None
    else Some (plain dim (canon_1d [ Vec.make [ lo ]; Vec.make [ hi ] ]))
  | 2 | 3 ->
    (match depth_halfspaces ~dim ~keep pts with
     | None -> subset_hull_region ~dim ~f pts
     | Some cons when dim = 2 ->
       (match
          List.fold_left
            (fun acc (normal, offset) -> Hull2d.clip acc ~normal ~offset)
            (Hull2d.hull pts) cons
        with
        | [] -> None
        | verts -> Some (plain dim verts))
     | Some ineqs ->
       (match Poly_engine.vertices_3d ~ineqs with
        | Some (verts, dual) -> Some { dim; verts; dual = Some dual }
        | None ->
          (match Hullnd.vertices { Hullnd.dim; eqs = []; ineqs } with
           | [] -> None
           | vs -> Some (canonicalize ~dim vs))))
  | _ -> subset_hull_region ~dim ~f pts

(* ------------------------------------------------------------------ *)
(* Measures. *)

let hausdorff2 p q =
  if p.dim <> q.dim then invalid_arg "Polytope.hausdorff2: dimension mismatch"
  else if equal p q then Q.zero
  else
    Obs.Prof.with_span "geometry.hausdorff" (fun () ->
        Distance.hausdorff2 ~dim:p.dim p.verts q.verts)

let hausdorff p q = sqrt (Q.to_float (hausdorff2 p q))

let volume p =
  match p.dim with
  | 1 ->
    (match p.verts with
     | [_] -> Some Q.zero
     | [a; b] -> Some (Q.sub b.(0) a.(0))
     | _ -> assert false)
  | 2 -> Some (Q.div (Hull2d.area2 p.verts) Q.two)
  | 3 ->
    Some
      (match p.dual with
       | Some d -> Volume3d.of_dual d
       | None -> Volume3d.volume p.verts)
  | _ -> None

let diameter2 p =
  let vs = Array.of_list p.verts in
  let best = ref Q.zero in
  Array.iteri
    (fun i u ->
       Array.iteri
         (fun j v -> if j > i then best := Q.max !best (Vec.dist2 u v))
         vs)
    vs;
  !best

(* ------------------------------------------------------------------ *)
(* Helpers. *)

let translate v p =
  canonicalize ~dim:p.dim (List.map (Vec.add v) p.verts)

let support p dir =
  match p.verts with
  | [] -> assert false
  | v0 :: rest ->
    List.fold_left
      (fun (best, arg) v ->
         let s = Vec.dot dir v in
         if Filter.compare s best > 0 then (s, v) else (best, arg))
      (Vec.dot dir v0, v0) rest

let bounding_box p =
  Array.init p.dim (fun j ->
      let xs = List.map (fun v -> v.(j)) p.verts in
      ( List.fold_left Q.min (List.hd xs) xs,
        List.fold_left Q.max (List.hd xs) xs ))

let centroid p = Vec.average p.verts

let steiner_point p =
  match p.dim, p.verts with
  | 1, [a] -> a
  | 1, [a; b] -> Vec.scale Q.half (Vec.add a b)
  | 2, verts when List.length verts >= 3 ->
    (* Exterior-angle weights, computed in floats and rationalized.
       The weights stay non-negative and are renormalized to sum to 1
       exactly, so the result is an exact convex combination (hence a
       point of the polytope) within float-rounding of the true
       Steiner point. *)
    let arr = Array.of_list verts in
    let n = Array.length arr in
    let angle i =
      let prev = arr.((i + n - 1) mod n) and cur = arr.(i)
      and next = arr.((i + 1) mod n) in
      let v1 = Vec.to_floats (Vec.sub cur prev) in
      let v2 = Vec.to_floats (Vec.sub next cur) in
      let a1 = atan2 v1.(1) v1.(0) and a2 = atan2 v2.(1) v2.(0) in
      let d = a2 -. a1 in
      let d = if d < 0.0 then d +. (2.0 *. Float.pi) else d in
      d
    in
    let weights =
      Array.init n (fun i ->
          let w = angle i /. (2.0 *. Float.pi) in
          Q.of_string (Printf.sprintf "%.12f" (Float.max 0.0 w)))
    in
    let total = Array.fold_left Q.add Q.zero weights in
    let weights = Array.map (fun w -> Q.div w total) weights in
    Vec.lincomb (List.mapi (fun i v -> (weights.(i), v)) verts)
  | _ -> centroid p

let to_string p =
  "{" ^ String.concat "; " (List.map Vec.to_string p.verts) ^ "}"

let pp fmt p = Format.pp_print_string fmt (to_string p)
