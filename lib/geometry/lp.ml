(* Two-phase primal simplex on a dense exact-rational tableau.
   Bland's anti-cycling rule throughout: entering variable is the
   lowest-index improving column, leaving row breaks ratio ties by
   lowest basic variable index. *)

module Q = Numeric.Q
module Filter = Numeric.Filter

type solution =
  | Optimal of Q.t array * Q.t
  | Unbounded
  | Infeasible

(* Tableau state: [table] is m rows of length n+1 (last column is the
   right-hand side), kept in basis-canonical form (basic columns form
   an identity). [obj] has length n+1; entry j < n is the reduced cost
   of column j and entry n is MINUS the current objective value.
   [basis.(i)] is the variable basic in row i. *)

let pivot table obj basis r jc =
  let n = Array.length obj - 1 in
  let prow = table.(r) in
  let inv = Q.inv prow.(jc) in
  for j = 0 to n do prow.(j) <- Q.mul inv prow.(j) done;
  let eliminate row =
    let f = row.(jc) in
    if not (Q.is_zero f) then
      for j = 0 to n do
        row.(j) <- Q.sub row.(j) (Q.mul f prow.(j))
      done
  in
  Array.iteri (fun i row -> if i <> r then eliminate row) table;
  eliminate obj;
  basis.(r) <- jc

(* Run simplex to optimality on a canonical tableau. Returns [false]
   when unbounded.

   Pivot selection: Dantzig's rule (largest reduced cost) for speed,
   falling back to Bland's rule — which provably terminates — once the
   iteration count passes a generous threshold. Pure Bland was
   measured to wander through thousands of degenerate pivots on the
   Minkowski-pruning instances this project generates. *)
let optimize table obj basis =
  let m = Array.length table in
  let n = Array.length obj - 1 in
  let bland_after = 16 * (m + n + 4) in
  let iters = ref 0 in
  let rec loop () =
    incr iters;
    let entering = ref (-1) in
    if !iters > bland_after then begin
      (* Bland: smallest column with positive reduced cost. *)
      try
        for j = 0 to n - 1 do
          if Q.sign obj.(j) > 0 then begin entering := j; raise Exit end
        done
      with Exit -> ()
    end
    else begin
      (* Dantzig: most positive reduced cost (ties to lowest index).
         The argmax comparison runs through the filtered kernel; the
         pivot-sign test is already O(1) exact. *)
      let best = ref Q.zero in
      for j = n - 1 downto 0 do
        if Q.sign obj.(j) > 0 && Filter.compare obj.(j) !best >= 0 then begin
          entering := j;
          best := obj.(j)
        end
      done
    end;
    if !entering < 0 then true
    else begin
      let jc = !entering in
      (* Ratio test with Bland tie-break. *)
      let best = ref (-1) in
      let best_ratio = ref Q.zero in
      for i = 0 to m - 1 do
        let a = table.(i).(jc) in
        if Q.sign a > 0 then begin
          let ratio = Q.div table.(i).(n) a in
          if !best < 0
             || Filter.compare ratio !best_ratio < 0
             || (Q.equal ratio !best_ratio && basis.(i) < basis.(!best))
          then begin best := i; best_ratio := ratio end
        end
      done;
      if !best < 0 then false
      else begin
        pivot table obj basis !best jc;
        loop ()
      end
    end
  in
  loop ()

let extract_solution table basis ~nvars =
  let x = Array.make nvars Q.zero in
  Array.iteri
    (fun i row ->
       if basis.(i) < nvars then x.(basis.(i)) <- row.(Array.length row - 1))
    table;
  x

let maximize ~objective ~eq ~nvars =
  let m = List.length eq in
  if Array.length objective <> nvars then
    invalid_arg "Lp.maximize: objective size mismatch";
  let ntot = nvars + m in  (* original variables + artificials *)
  let table = Array.make_matrix m (ntot + 1) Q.zero in
  let basis = Array.make m 0 in
  List.iteri
    (fun i (row, rhs) ->
       if Array.length row <> nvars then
         invalid_arg "Lp.maximize: constraint size mismatch";
       let flip = Q.sign rhs < 0 in
       for j = 0 to nvars - 1 do
         table.(i).(j) <- (if flip then Q.neg row.(j) else row.(j))
       done;
       table.(i).(nvars + i) <- Q.one;
       table.(i).(ntot) <- (if flip then Q.neg rhs else rhs);
       basis.(i) <- nvars + i)
    eq;
  (* Phase 1: maximize -(sum of artificials). Reduced costs: start
     from c_j = 0 for real vars, -1 for artificials, then reduce
     against the artificial basis (add each constraint row). *)
  let obj1 = Array.make (ntot + 1) Q.zero in
  for j = nvars to ntot - 1 do obj1.(j) <- Q.minus_one done;
  Array.iter
    (fun row -> for j = 0 to ntot do obj1.(j) <- Q.add obj1.(j) row.(j) done)
    table;
  let ok = optimize table obj1 basis in
  assert ok; (* phase 1 is always bounded: objective <= 0 *)
  let phase1_value = Q.neg obj1.(ntot) in
  if not (Q.is_zero phase1_value) then Infeasible
  else begin
    (* Drive any degenerate artificial out of the basis if possible.
       A row where no real column can pivot is 0 = 0 (redundant). *)
    for i = 0 to m - 1 do
      if basis.(i) >= nvars then begin
        let found = ref (-1) in
        (try
           for j = 0 to nvars - 1 do
             if not (Q.is_zero table.(i).(j)) then begin found := j; raise Exit end
           done
         with Exit -> ());
        if !found >= 0 then pivot table obj1 basis i !found
      end
    done;
    (* Drop redundant rows (still-basic artificials) and physically
       remove artificial columns so phase 2 cannot re-enter them. *)
    let kept = ref [] in
    Array.iteri
      (fun i row ->
         if basis.(i) < nvars then begin
           assert (Q.sign row.(ntot) >= 0);
           let short = Array.make (nvars + 1) Q.zero in
           Array.blit row 0 short 0 nvars;
           short.(nvars) <- row.(ntot);
           kept := (short, basis.(i)) :: !kept
         end
         else assert (Q.is_zero row.(ntot)))
      table;
    let kept = List.rev !kept in
    let table2 = Array.of_list (List.map fst kept) in
    let basis2 = Array.of_list (List.map snd kept) in
    (* Phase 2 objective, reduced against the current basis. *)
    let obj2 = Array.make (nvars + 1) Q.zero in
    Array.blit objective 0 obj2 0 nvars;
    Array.iteri
      (fun i row ->
         let c = objective.(basis2.(i)) in
         if not (Q.is_zero c) then
           for j = 0 to nvars do
             obj2.(j) <- Q.sub obj2.(j) (Q.mul c row.(j))
           done)
      table2;
    if optimize table2 obj2 basis2 then begin
      let x = extract_solution table2 basis2 ~nvars in
      let value = ref Q.zero in
      Array.iteri (fun j c -> value := Q.add !value (Q.mul c x.(j))) objective;
      Optimal (x, !value)
    end
    else Unbounded
  end

let feasible_eq ~eq ~nvars =
  match maximize ~objective:(Array.make nvars Q.zero) ~eq ~nvars with
  | Optimal (x, _) -> Some x
  | Infeasible -> None
  | Unbounded -> assert false (* constant objective is never unbounded *)

let feasible_system ~dim ~eqs ~ineqs =
  (* Variables: x = u - w with u, w >= 0, plus one slack per
     inequality. Layout: [u (dim) | w (dim) | slacks]. *)
  let n_ineq = List.length ineqs in
  let nvars = (2 * dim) + n_ineq in
  let row_of a slack_idx =
    let row = Array.make nvars Q.zero in
    for j = 0 to dim - 1 do
      row.(j) <- a.(j);
      row.(dim + j) <- Q.neg a.(j)
    done;
    (match slack_idx with
     | Some k -> row.((2 * dim) + k) <- Q.one
     | None -> ());
    row
  in
  let eq_rows = List.map (fun (a, b) -> (row_of a None, b)) eqs in
  let ineq_rows = List.mapi (fun k (a, b) -> (row_of a (Some k), b)) ineqs in
  match feasible_eq ~eq:(eq_rows @ ineq_rows) ~nvars with
  | None -> None
  | Some x ->
    Some (Array.init dim (fun j -> Q.sub x.(j) x.(dim + j)))

let in_convex_hull pts p =
  Obs.Prof.with_span "geometry.lp" @@ fun () ->
  match pts with
  | [] -> false
  | first :: _ ->
    let d = Vec.dim first in
    if Vec.dim p <> d then invalid_arg "Lp.in_convex_hull: dimension mismatch"
    else begin
      let k = List.length pts in
      let pts_arr = Array.of_list pts in
      (* Rows: one per coordinate (sum lambda_i v_i = p), plus
         sum lambda_i = 1. *)
      let coord_row j =
        (Array.init k (fun i -> pts_arr.(i).(j)), p.(j))
      in
      let ones = (Array.make k Q.one, Q.one) in
      let eq = ones :: List.init d coord_row in
      feasible_eq ~eq ~nvars:k <> None
    end
