(* Normalized rationals: den > 0, gcd(|num|, den) = 1, zero is 0/1.

   [iv] lazily caches a certified float enclosure of the value (see
   [enclosure]); [Interval.unset] marks "not yet computed". The cache
   is write-once with a deterministic value, so a concurrent double
   computation by two domains is a benign race (each stores a pointer
   to an equal interval). Nothing else refers to an enclosure: it
   lives exactly as long as its rational. *)

type t = {
  num : Bigint.t;
  den : Bigint.t;
  mutable iv : Interval.t;
}

let cons num den = { num; den; iv = Interval.unset }

let make num den =
  let s = Bigint.sign den in
  if s = 0 then raise Division_by_zero
  else begin
    let num, den = if s < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
    if Bigint.is_zero num then cons Bigint.zero Bigint.one
    else begin
      let g = Bigint.gcd num den in
      if Bigint.equal g Bigint.one then cons num den
      else cons (Bigint.div num g) (Bigint.div den g)
    end
  end

let of_bigint n = cons n Bigint.one
let of_int n = of_bigint (Bigint.of_int n)
let of_ints a b = make (Bigint.of_int a) (Bigint.of_int b)

let zero = of_int 0
let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)
let half = of_ints 1 2

let sign x = Bigint.sign x.num
let is_zero x = Bigint.is_zero x.num

(* Certified float enclosure of the exact value, computed on first use
   and cached in [iv]. Denominators are positive by the normalization
   invariant, so the quotient enclosure uses [Interval.div_pos]. *)
let enclosure x =
  let iv = x.iv in
  if iv != Interval.unset then iv
  else begin
    let iv =
      if Bigint.equal x.den Bigint.one then Bigint.to_float_enclosure x.num
      else
        Interval.div_pos
          (Bigint.to_float_enclosure x.num)
          (Bigint.to_float_enclosure x.den)
    in
    x.iv <- iv;
    iv
  end

(* a/b ? c/d  <=>  a*d ? c*b  (b, d > 0). *)
let compare_exact a b =
  Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)

(* Small-magnitude fast path: when all four components are native ints
   the cross products are (near-)native and exact comparison is as fast
   as any filter, so the interval path only engages on big operands —
   and only under the filtered kernel. *)
let compare a b =
  if
    Bigint.is_small a.num && Bigint.is_small a.den && Bigint.is_small b.num
    && Bigint.is_small b.den
  then compare_exact a b
  else if Kernel.filtered () then begin
    let ia = enclosure a and ib = enclosure b in
    if ia.Interval.lo > ib.Interval.hi then begin
      Kernel.hit Kernel.Compare; 1
    end
    else if ia.Interval.hi < ib.Interval.lo then begin
      Kernel.hit Kernel.Compare; -1
    end
    else begin
      Kernel.fallback Kernel.Compare;
      compare_exact a b
    end
  end
  else compare_exact a b

let equal a b = Bigint.equal a.num b.num && Bigint.equal a.den b.den
let leq a b = compare a b <= 0
let lt a b = compare a b < 0
let geq a b = compare a b >= 0
let gt a b = compare a b > 0

(* Hashes the normalized (num, den) pair through [Bigint]'s canonical
   hash, so structurally-equal rationals built along different
   arithmetic paths always collide into the same bucket. *)
let hash x = (Bigint.hash x.num * 31 + Bigint.hash x.den) land max_int

let neg x = cons (Bigint.neg x.num) x.den
let abs x = cons (Bigint.abs x.num) x.den

(* [add] and [mul] avoid the generic [make] (two cross products plus a
   full-width gcd) whenever a denominator is 1 or both are equal:
   - int + int and int * int need no gcd at all;
   - int + a/b stays reduced: gcd(a + k*b, b) = gcd(a, b) = 1;
   - a/b + c/b only needs a gcd against the (unchanged) denominator;
   - products cross-reduce with two small gcds — gcd(n1*n2, d1*d2) = 1
     holds once gcd(n1, d2) = gcd(n2, d1) = 1, because each input was
     already reduced.
   Equivalence with the [make]-based slow path is property-tested in
   test/test_q.ml. *)

let add a b =
  if Bigint.is_zero a.num then b
  else if Bigint.is_zero b.num then a
  else begin
    let da1 = Bigint.equal a.den Bigint.one in
    let db1 = Bigint.equal b.den Bigint.one in
    if da1 && db1 then cons (Bigint.add a.num b.num) Bigint.one
    else if db1 then
      cons (Bigint.add a.num (Bigint.mul b.num a.den)) a.den
    else if da1 then
      cons (Bigint.add b.num (Bigint.mul a.num b.den)) b.den
    else if Bigint.equal a.den b.den then begin
      let num = Bigint.add a.num b.num in
      if Bigint.is_zero num then zero
      else begin
        let g = Bigint.gcd num a.den in
        if Bigint.equal g Bigint.one then cons num a.den
        else cons (Bigint.div num g) (Bigint.div a.den g)
      end
    end
    else
      make
        (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
        (Bigint.mul a.den b.den)
  end

let sub a b = add a (neg b)

let mul a b =
  if Bigint.is_zero a.num || Bigint.is_zero b.num then zero
  else begin
    let da1 = Bigint.equal a.den Bigint.one in
    let db1 = Bigint.equal b.den Bigint.one in
    if da1 && db1 then cons (Bigint.mul a.num b.num) Bigint.one
    else begin
      let g1 = if db1 then Bigint.one else Bigint.gcd a.num b.den in
      let g2 = if da1 then Bigint.one else Bigint.gcd b.num a.den in
      let n1, d2 =
        if Bigint.equal g1 Bigint.one then (a.num, b.den)
        else (Bigint.div a.num g1, Bigint.div b.den g1)
      in
      let n2, d1 =
        if Bigint.equal g2 Bigint.one then (b.num, a.den)
        else (Bigint.div b.num g2, Bigint.div a.den g2)
      in
      cons (Bigint.mul n1 n2) (Bigint.mul d1 d2)
    end
  end

let inv x =
  if is_zero x then raise Division_by_zero
  else make x.den x.num

let div a b = mul a (inv b)

let min a b = if leq a b then a else b
let max a b = if geq a b then a else b

let square x = mul x x

let pow x k =
  if k >= 0 then make (Bigint.pow x.num k) (Bigint.pow x.den k)
  else inv (make (Bigint.pow x.num (-k)) (Bigint.pow x.den (-k)))

let sum xs = List.fold_left add zero xs

let average xs =
  match xs with
  | [] -> invalid_arg "Q.average: empty list"
  | _ -> div (sum xs) (of_int (List.length xs))

let mul_int x n = mul x (of_int n)
let div_int x n = div x (of_int n)

let to_float x =
  (* Scale down so both parts fit a float exponent comfortably. *)
  let nb = Bigint.num_bits x.num and db = Bigint.num_bits x.den in
  let shift = Stdlib.max 0 (Stdlib.max nb db - 900) in
  let n = Bigint.shift_right x.num shift in
  let d = Bigint.shift_right x.den shift in
  if Bigint.is_zero d then
    (* Denominator underflowed the shift: the value is astronomically
       large; saturate. *)
    (if sign x >= 0 then infinity else neg_infinity)
  else Bigint.to_float n /. Bigint.to_float d

let to_string x =
  if Bigint.equal x.den Bigint.one then Bigint.to_string x.num
  else Bigint.to_string x.num ^ "/" ^ Bigint.to_string x.den

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    let num = Bigint.of_string (String.sub s 0 i) in
    let den = Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make num den
  | None ->
    (match String.index_opt s '.' with
     | None -> of_bigint (Bigint.of_string s)
     | Some i ->
       let int_part = String.sub s 0 i in
       let frac = String.sub s (i + 1) (String.length s - i - 1) in
       if frac = "" then invalid_arg "Q.of_string: trailing dot"
       else begin
         let negative = String.length int_part > 0 && int_part.[0] = '-' in
         let ip = if int_part = "" || int_part = "-" || int_part = "+"
           then Bigint.zero else Bigint.of_string int_part in
         let fp = Bigint.of_string frac in
         let scale = Bigint.pow (Bigint.of_int 10) (String.length frac) in
         let mag =
           Bigint.add (Bigint.mul (Bigint.abs ip) scale) fp
         in
         let mag = if negative then Bigint.neg mag else mag in
         make mag scale
       end)

let pp fmt x = Format.pp_print_string fmt (to_string x)

module Infix = struct
  let ( +/ ) = add
  let ( -/ ) = sub
  let ( */ ) = mul
  let ( // ) = div
  let ( =/ ) = equal
  let ( </ ) = lt
  let ( <=/ ) = leq
  let ( >/ ) = gt
  let ( >=/ ) = geq
end
