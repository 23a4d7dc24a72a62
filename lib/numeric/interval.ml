(* Outward-rounded float intervals.

   The host does not expose directed rounding, so every arithmetic
   result is widened by one ulp on each side ([Float.pred] / [Float.succ]).
   Under IEEE-754 round-to-nearest the computed endpoint is within half
   an ulp of the true endpoint, so the widened interval always encloses
   the exact real result. NaN endpoints (e.g. from [inf - inf] or
   [0 * inf]) are widened to the corresponding infinity, degrading to a
   correct but useless enclosure rather than an incorrect one. *)

type t = { lo : float; hi : float }

(* Distinguished "not yet computed" sentinel, recognized by physical
   equality ([==]) so a genuine whole-line enclosure is never confused
   with an unset cache slot. *)
let unset = { lo = nan; hi = nan }

let whole = { lo = neg_infinity; hi = infinity }

let exact v = { lo = v; hi = v }

let make ~lo ~hi =
  if Float.is_nan lo || Float.is_nan hi then whole else { lo; hi }

(* Round an upper bound up / a lower bound down by one ulp. [x <> x]
   is the allocation-free NaN test. *)
let up x = if x <> x then infinity else if x = infinity then x else Float.succ x

let down x =
  if x <> x then neg_infinity
  else if x = neg_infinity then x
  else Float.pred x

let neg a = { lo = -.a.hi; hi = -.a.lo }

let add a b = { lo = down (a.lo +. b.lo); hi = up (a.hi +. b.hi) }

let sub a b = { lo = down (a.lo -. b.hi); hi = up (a.hi -. b.lo) }

let mul a b =
  let p1 = a.lo *. b.lo and p2 = a.lo *. b.hi in
  let p3 = a.hi *. b.lo and p4 = a.hi *. b.hi in
  (* Float.min/max propagate NaN, and [down]/[up] then widen it to the
     infinities, so 0 * inf corner cases stay conservative. *)
  let lo = Float.min (Float.min p1 p2) (Float.min p3 p4) in
  let hi = Float.max (Float.max p1 p2) (Float.max p3 p4) in
  { lo = down lo; hi = up hi }

(* Division by an interval meant to contain only positive reals
   (rational enclosures normalize denominators to be positive). The
   endpoint formulas are sound only when the divisor's enclosure is
   positive too; one that reaches 0 or below (a saturated or
   over-padded conversion) yields the whole line, never a quotient
   that misses the true value. *)
let div_pos a b =
  if not (b.lo > 0.0) then whole
  else begin
    let lo = if a.lo >= 0.0 then a.lo /. b.hi else a.lo /. b.lo in
    let hi = if a.hi >= 0.0 then a.hi /. b.lo else a.hi /. b.hi in
    { lo = down lo; hi = up hi }
  end

let sign a =
  if a.lo > 0.0 then Some 1
  else if a.hi < 0.0 then Some (-1)
  else if a.lo = 0.0 && a.hi = 0.0 then Some 0
  else None

let contains_zero a = a.lo <= 0.0 && a.hi >= 0.0

(* Certified lower bound on the magnitude of any real in the interval;
   0 when the interval straddles (or touches) zero. *)
let mag_lower a =
  if a.lo > 0.0 then a.lo else if a.hi < 0.0 then -.a.hi else 0.0

let pp fmt a = Format.fprintf fmt "[%h, %h]" a.lo a.hi
