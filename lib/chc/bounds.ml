module Q = Numeric.Q
module B = Numeric.Bigint

let omega2_bound (c : Config.t) =
  let m2 = Q.max (Q.square c.Config.lo) (Q.square c.Config.hi) in
  Q.mul (Q.of_int (c.Config.d * c.Config.n * c.Config.n)) m2

(* ln x for a positive integer, from its overflow-proof scaled
   enclosure; only steers the search below, never decides it. *)
let ln_pos x =
  let iv, e = B.to_scaled_enclosure x in
  log (0.5 *. (iv.Numeric.Interval.lo +. iv.Numeric.Interval.hi))
  +. (float_of_int e *. log 2.)

(* (1 - 1/n)^{2t}·Ω² < ε² is, over integers,
     Ω²_num·ε²_den·((n-1)²)^t  <  ε²_num·Ω²_den·(n²)^t.
   A float estimate of the crossing picks t, and the integer
   comparison confirms it at t and t - 1 (walking on if the estimate
   was off), so the answer is exact without a rational walk. *)
let t_end (c : Config.t) =
  let n = c.Config.n in
  let omega2 = omega2_bound c and eps2 = Q.square c.Config.eps in
  let lhs = B.mul omega2.Q.num eps2.Q.den
  and rhs = B.mul eps2.Q.num omega2.Q.den in
  let shrink = B.of_int ((n - 1) * (n - 1)) and grow = B.of_int (n * n) in
  let holds t =
    B.compare (B.mul lhs (B.pow shrink t)) (B.mul rhs (B.pow grow t)) < 0
  in
  if holds 1 then 1
  else begin
    (* here lhs > 0 and n >= 2 *)
    let per_round = 2. *. log (float_of_int n /. float_of_int (n - 1)) in
    let est = Float.ceil ((ln_pos lhs -. ln_pos rhs) /. per_round) in
    let guess =
      if Float.is_finite est then Stdlib.max 2 (int_of_float est) else 2
    in
    let rec up t = if holds t then t else up (t + 1) in
    let rec down t = if t > 2 && holds (t - 1) then down (t - 1) else t in
    if holds guess then down guess else up (guess + 1)
  end

let contraction_at (c : Config.t) t =
  Float.pow (1.0 -. (1.0 /. float_of_int c.Config.n)) (float_of_int t)
