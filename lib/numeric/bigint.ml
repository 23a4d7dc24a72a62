(* Sign-magnitude bignums over base-2^30 limbs, little-endian, with a
   small-integer fast path: values whose magnitude fits in 62 bits are
   carried as a native [int], which keeps the exact-rational geometry
   kernels allocation-free on typical data. Invariants: [Big] is used
   only for magnitudes of more than 62 bits; [mag] has no trailing
   (most-significant) zero limbs. *)

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

type t =
  | Small of int
  | Big of { sign : int; mag : int array }

let zero = Small 0

(* ------------------------------------------------------------------ *)
(* Magnitude helpers (little-endian limb arrays without trailing
   zeros; the empty array is 0). *)

let mag_trim a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_is_zero a = Array.length a = 0

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i = if i < 0 then 0 else
      if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1)
    in
    go (la - 1)

let mag_of_int n =
  (* n >= 0 *)
  if n = 0 then [||]
  else begin
    let rec count k acc = if k = 0 then acc else count (k lsr base_bits) (acc + 1) in
    let len = count n 0 in
    let a = Array.make len 0 in
    let rec fill i k =
      if k <> 0 then begin a.(i) <- k land mask; fill (i + 1) (k lsr base_bits) end
    in
    fill 0 n;
    a
  end

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let ai = if i < la then a.(i) else 0 in
    let bi = if i < lb then b.(i) else 0 in
    let s = ai + bi + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  assert (!carry = 0);
  mag_trim r

(* Precondition: a >= b. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bi = if i < lb then b.(i) else 0 in
    let s = a.(i) - bi - !borrow in
    if s < 0 then begin r.(i) <- s + base; borrow := 1 end
    else begin r.(i) <- s; borrow := 0 end
  done;
  assert (!borrow = 0);
  mag_trim r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- t land mask;
          carry := t lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land mask;
          carry := t lsr base_bits;
          incr k
        done
      end
    done;
    mag_trim r
  end

let mag_mul_small a m =
  (* 0 <= m < base *)
  if m = 0 || mag_is_zero a then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let t = (a.(i) * m) + !carry in
      r.(i) <- t land mask;
      carry := t lsr base_bits
    done;
    r.(la) <- !carry;
    mag_trim r
  end

let mag_add_small a m = mag_add a (mag_of_int m)

(* Divide magnitude by a single limb 0 < d < base. Returns (q, r). *)
let mag_divmod_small a d =
  assert (0 < d && d < base);
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let t = (!rem lsl base_bits) lor a.(i) in
    q.(i) <- t / d;
    rem := t mod d
  done;
  (mag_trim q, !rem)

let mag_shift_left a k =
  if mag_is_zero a || k = 0 then Array.copy a
  else begin
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    if bit_shift = 0 then
      for i = 0 to la - 1 do r.(i + limb_shift) <- a.(i) done
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let t = (a.(i) lsl bit_shift) lor !carry in
        r.(i + limb_shift) <- t land mask;
        carry := t lsr base_bits
      done;
      r.(la + limb_shift) <- !carry
    end;
    mag_trim r
  end

let mag_shift_right a k =
  if mag_is_zero a || k = 0 then Array.copy a
  else begin
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let la = Array.length a in
    if limb_shift >= la then [||]
    else begin
      let lr = la - limb_shift in
      let r = Array.make lr 0 in
      if bit_shift = 0 then
        for i = 0 to lr - 1 do r.(i) <- a.(i + limb_shift) done
      else
        for i = 0 to lr - 1 do
          let lo = a.(i + limb_shift) lsr bit_shift in
          let hi =
            if i + limb_shift + 1 < la
            then (a.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land mask
            else 0
          in
          r.(i) <- lo lor hi
        done;
      mag_trim r
    end
  end

let mag_num_bits a =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    (la - 1) * base_bits + bits top 0
  end

let mag_bit a i =
  let limb = i / base_bits and off = i mod base_bits in
  if limb >= Array.length a then 0 else (a.(limb) lsr off) land 1

(* Knuth Algorithm D. Preconditions: |v| >= 2 limbs, u >= v. *)
let mag_divmod_knuth u v =
  let lv = Array.length v in
  assert (lv >= 2);
  let shift =
    let top = v.(lv - 1) in
    let rec go t acc = if t land (base lsr 1) <> 0 then acc else go (t lsl 1) (acc + 1) in
    go top 0
  in
  let vn = mag_shift_left v shift in
  let un0 = mag_shift_left u shift in
  let lu = Array.length un0 in
  let un = Array.make (lu + 1) 0 in
  Array.blit un0 0 un 0 lu;
  let n = Array.length vn in
  assert (n = lv);
  let m = lu - n in
  if m < 0 then ([||], Array.copy u)
  else begin
    let q = Array.make (m + 1) 0 in
    let vtop = vn.(n - 1) and vsecond = vn.(n - 2) in
    for j = m downto 0 do
      let ujn = un.(j + n) and ujn1 = un.(j + n - 1) in
      let num = (ujn lsl base_bits) lor ujn1 in
      let qhat = ref (num / vtop) in
      let rhat = ref (num mod vtop) in
      if !qhat >= base then begin
        let excess = !qhat - (base - 1) in
        qhat := base - 1;
        rhat := !rhat + (excess * vtop)
      end;
      let continue = ref true in
      while !continue && !rhat < base do
        if !qhat * vsecond > (!rhat lsl base_bits) lor un.(j + n - 2) then begin
          decr qhat;
          rhat := !rhat + vtop
        end else continue := false
      done;
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * vn.(i)) + !carry in
        carry := p lsr base_bits;
        let s = un.(i + j) - (p land mask) - !borrow in
        if s < 0 then begin un.(i + j) <- s + base; borrow := 1 end
        else begin un.(i + j) <- s; borrow := 0 end
      done;
      let s = un.(j + n) - !carry - !borrow in
      if s < 0 then begin
        un.(j + n) <- s + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let t = un.(i + j) + vn.(i) + !c in
          un.(i + j) <- t land mask;
          c := t lsr base_bits
        done;
        un.(j + n) <- (un.(j + n) + !c) land mask
      end else
        un.(j + n) <- s;
      q.(j) <- !qhat
    done;
    let r = mag_shift_right (mag_trim (Array.sub un 0 n)) shift in
    (mag_trim q, r)
  end

let mag_divmod u v =
  if mag_is_zero v then raise Division_by_zero
  else if mag_compare u v < 0 then ([||], Array.copy u)
  else if Array.length v = 1 then begin
    let q, r = mag_divmod_small u v.(0) in
    (q, mag_of_int r)
  end else
    mag_divmod_knuth u v

(* ------------------------------------------------------------------ *)
(* Signed layer with the small-int fast path. A [Small n] always has
   |n| representable (any native int except [min_int], which we box to
   keep negation total). *)

let small_limit_bits = 62

(* Build a canonical value from sign and magnitude. *)
let make sign mag =
  let mag = mag_trim mag in
  if mag_is_zero mag then zero
  else if mag_num_bits mag <= small_limit_bits then begin
    let v = Array.fold_right (fun limb acc -> (acc lsl base_bits) lor limb) mag 0 in
    Small (if sign < 0 then -v else v)
  end
  else Big { sign; mag }

let of_int n =
  if n = min_int then
    (* |min_int| overflows native negation; box it. *)
    Big { sign = -1; mag = mag_add (mag_of_int max_int) (mag_of_int 1) }
  else Small n

let one = Small 1
let two = Small 2
let minus_one = Small (-1)

let sign = function
  | Small n -> compare n 0
  | Big b -> b.sign

let is_zero = function Small 0 -> true | Small _ | Big _ -> false

let mag_of = function
  | Small n -> mag_of_int (abs n)
  | Big b -> b.mag

let neg = function
  | Small n -> Small (-n) (* |n| <= 2^62 - 1, negation is safe *)
  | Big b -> Big { b with sign = -b.sign }

let abs x = if sign x < 0 then neg x else x

let compare a b =
  match a, b with
  | Small x, Small y -> compare x y
  | _ ->
    let sa = sign a and sb = sign b in
    if sa <> sb then compare sa sb
    else if sa >= 0 then mag_compare (mag_of a) (mag_of b)
    else mag_compare (mag_of b) (mag_of a)

let equal a b = compare a b = 0

(* Hash of the canonical (sign, base-2^30 limbs) decomposition, so the
   value alone determines the hash regardless of which representation
   arm carries it. [make] already guarantees Small/Big canonicality;
   computing Small hashes through the same limb fold as Big makes the
   hash robust even if a non-canonical value ever slipped through, and
   keeps [Q.hash] dependent only on the normalized rational. *)
let hash = function
  | Small 0 -> 1 (* sign 0 + 1, no limbs *)
  | Small n ->
    let s = if n < 0 then -1 else 1 in
    let acc = ref (s + 1) in
    let m = ref (Stdlib.abs n) in
    while !m <> 0 do
      acc := ((!acc * 31) + (!m land mask)) land max_int;
      m := !m lsr base_bits
    done;
    !acc
  | Big b ->
    Array.fold_left (fun acc limb -> ((acc * 31) + limb) land max_int)
      (b.sign + 1) b.mag

let is_small = function Small _ -> true | Big _ -> false

(* Do |x| + |y| or x * y fit comfortably in a native int? Both
   operands bounded by 2^61 guarantees the sum does; for products we
   bound the bit sizes. *)
let fits_add x y = Stdlib.abs x < (1 lsl 61) && Stdlib.abs y < (1 lsl 61)

let int_bits n =
  let n = Stdlib.abs n in
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let add a b =
  match a, b with
  | Small x, Small y when fits_add x y -> Small (x + y)
  | _ ->
    let sa = sign a and sb = sign b in
    if sa = 0 then b
    else if sb = 0 then a
    else begin
      let ma = mag_of a and mb = mag_of b in
      if sa = sb then make sa (mag_add ma mb)
      else begin
        let c = mag_compare ma mb in
        if c = 0 then zero
        else if c > 0 then make sa (mag_sub ma mb)
        else make sb (mag_sub mb ma)
      end
    end

let sub a b = add a (neg b)

let mul a b =
  match a, b with
  | Small x, Small y when int_bits x + int_bits y <= 62 -> Small (x * y)
  | _ ->
    let s = sign a * sign b in
    if s = 0 then zero
    else make s (mag_mul (mag_of a) (mag_of b))

let mul_int a n = mul a (of_int n)

let succ x = add x one
let pred x = sub x one

let divmod a b =
  match a, b with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y -> (Small (x / y), Small (x mod y))
  | _ ->
    if is_zero b then raise Division_by_zero
    else if is_zero a then (zero, zero)
    else begin
      let qm, rm = mag_divmod (mag_of a) (mag_of b) in
      (make (sign a * sign b) qm, make (sign a) rm)
    end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let divmod_shift_subtract a b =
  if is_zero b then raise Division_by_zero
  else begin
    let ua = mag_of a and ub = mag_of b in
    if mag_compare ua ub < 0 then (zero, a)
    else begin
      let bits_a = mag_num_bits ua in
      let q = Array.make (Array.length ua) 0 in
      let r = ref [||] in
      for i = bits_a - 1 downto 0 do
        r := mag_shift_left !r 1;
        if mag_bit ua i = 1 then r := mag_add_small !r 1;
        if mag_compare !r ub >= 0 then begin
          r := mag_sub !r ub;
          q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
        end
      done;
      (make (sign a * sign b) q, make (sign a) !r)
    end
  end

let rec int_gcd x y = if y = 0 then x else int_gcd y (x mod y)

(* Lehmer's accelerated GCD. Each outer iteration simulates a batch of
   Euclid quotient steps on the top 62 bits of both operands using
   single-word cofactor arithmetic, then applies the resulting 2x2
   matrix to the full magnitudes in one linear pass. Versus
   bit-at-a-time binary GCD (one full-magnitude subtract per bit) this
   cuts the number of full-precision passes by roughly the cofactor
   width (~29 bits of quotient progress per pass). *)

let mag_to_int m =
  (* magnitude of at most 62 bits *)
  let r = ref 0 in
  for i = Array.length m - 1 downto 0 do
    r := (!r lsl base_bits) lor m.(i)
  done;
  !r

let mag_bits_from m shift =
  (* (m >> shift) truncated to 62 bits, as a nonnegative native int *)
  let la = Array.length m in
  let get i = if i < la then m.(i) else 0 in
  let i = ref (shift / base_bits) in
  let off = shift mod base_bits in
  let r = ref ((get !i) lsr off) in
  let k = ref (base_bits - off) in
  while !k < 62 do
    incr i;
    let take = if 62 - !k < base_bits then 62 - !k else base_bits in
    r := !r lor (((get !i) land ((1 lsl take) - 1)) lsl !k);
    k := !k + base_bits
  done;
  !r

(* u*x - v*y for magnitudes [x], [y] and cofactors 0 <= u, v < 2^29,
   with the result known nonnegative. Signed per-limb accumulation:
   |carry + u*limb - v*limb| < 2^61, well inside the native range. *)
let mag_addmul_sub u x v y =
  let lx = Array.length x and ly = Array.length y in
  let lr = (if lx > ly then lx else ly) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let xi = if i < lx then x.(i) else 0 in
    let yi = if i < ly then y.(i) else 0 in
    let t = !carry + (u * xi) - (v * yi) in
    let limb = t land mask in
    r.(i) <- limb;
    carry := (t - limb) asr base_bits
  done;
  mag_trim r

let max_cofactor = 1 lsl 29

let mag_gcd ua ub =
  let a = ref ua and b = ref ub in
  if mag_compare !a !b < 0 then begin let t = !a in a := !b; b := t end;
  while not (mag_is_zero !b) && mag_num_bits !a > small_limit_bits do
    let shift = mag_num_bits !a - 62 in
    let x = ref (mag_bits_from !a shift) in
    let y = ref (mag_bits_from !b shift) in
    (* Simulated Euclid with cofactors: x' = va*x0 + vb*y0,
       y' = vc*x0 + vd*y0. The double-quotient test (Knuth 4.5.2
       Algorithm L) certifies each simulated quotient against the
       truncation error; the cap keeps every cofactor product inside
       [mag_addmul_sub]'s headroom. *)
    let va = ref 1 and vb = ref 0 and vc = ref 0 and vd = ref 1 in
    (try
       while true do
         let yc = !y + !vc and yd = !y + !vd in
         if yc <= 0 || yd <= 0 then raise_notrace Exit;
         let q = (!x + !va) / yc in
         if q <> (!x + !vb) / yd then raise_notrace Exit;
         if q >= max_cofactor then raise_notrace Exit;
         let ta = !va - (q * !vc) and tb = !vb - (q * !vd) in
         if Stdlib.abs ta >= max_cofactor || Stdlib.abs tb >= max_cofactor
         then raise_notrace Exit;
         va := !vc; vc := ta;
         vb := !vd; vd := tb;
         let t = !x - (q * !y) in
         x := !y; y := t
       done
     with Exit -> ());
    if !vb = 0 then begin
      (* No certified single-word step (quotient too large or b's top
         bits vanish at a's scale): one full division step. *)
      let _, r = mag_divmod !a !b in
      let t = !b in
      a := t; b := r
    end
    else begin
      (* (a', b') = (va*a + vb*b, vc*a + vd*b). Within each cofactor
         row the signs alternate, so each row is a nonnegative
         difference of magnitude products. *)
      let combine u v =
        if u >= 0 && v <= 0 then mag_addmul_sub u !a (-v) !b
        else mag_addmul_sub v !b (-u) !a
      in
      let na = combine !va !vb and nb = combine !vc !vd in
      a := na; b := nb
    end;
    if mag_compare !a !b < 0 then begin let t = !a in a := !b; b := t end
  done;
  if mag_is_zero !b then !a
  else mag_of_int (int_gcd (mag_to_int !a) (mag_to_int !b))

let gcd a b =
  match a, b with
  | Small x, Small y -> Small (int_gcd (Stdlib.abs x) (Stdlib.abs y))
  | _ -> make 1 (mag_gcd (mag_of a) (mag_of b))

let shift_left x k =
  if k < 0 then invalid_arg "Bigint.shift_left: negative shift"
  else if is_zero x then zero
  else make (sign x) (mag_shift_left (mag_of x) k)

let shift_right x k =
  if k < 0 then invalid_arg "Bigint.shift_right: negative shift"
  else if is_zero x then zero
  else make (sign x) (mag_shift_right (mag_of x) k)

let num_bits = function
  | Small n -> int_bits n
  | Big b -> mag_num_bits b.mag

let pow x k =
  if k < 0 then invalid_arg "Bigint.pow: negative exponent"
  else begin
    let rec go acc b k =
      if k = 0 then acc
      else begin
        let acc = if k land 1 = 1 then mul acc b else acc in
        go acc (mul b b) (k lsr 1)
      end
    in
    go one x k
  end

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let to_int_opt = function
  | Small n -> Some n
  | Big _ -> None (* Big is only used beyond 62 bits *)

let to_int_exn x =
  match to_int_opt x with
  | Some n -> n
  | None -> failwith "Bigint.to_int_exn: does not fit"

let to_float = function
  | Small n -> float_of_int n
  | Big b ->
    let m =
      Array.fold_right
        (fun limb acc -> (acc *. float_of_int base) +. float_of_int limb)
        b.mag 0.0
    in
    if b.sign < 0 then -.m else m

(* A certified float enclosure of the exact value. Small values of at
   most 53 bits convert exactly; larger Smalls widen the rounded
   conversion one ulp each way. Big values take the [to_float] limb
   fold — k limbs accumulate a relative error below [2k] ulp — and are
   padded by [4(k+1)] ulp relative plus one absolute ulp, a ~2x margin
   over the worst case. A fold that overflows to infinity still yields
   a sign-definite (if loose) enclosure. *)
let to_float_enclosure = function
  | Small n ->
    let f = float_of_int n in
    if int_bits n <= 53 then { Interval.lo = f; hi = f }
    else { Interval.lo = Float.pred f; hi = Float.succ f }
  | Big b as x ->
    let f = to_float x in
    if f = infinity then { Interval.lo = 0.5 *. max_float; hi = infinity }
    else if f = neg_infinity then
      { Interval.lo = neg_infinity; hi = -0.5 *. max_float }
    else begin
      let k = float_of_int (4 * (Array.length b.mag + 1)) in
      (* k·ε first: |f|·k overflows for values within a factor k of
         DBL_MAX, and an infinite pad would make the enclosure of a
         positive integer straddle zero *)
      let pad = Float.abs f *. (k *. epsilon_float) in
      { Interval.lo = Float.pred (f -. pad); hi = Float.succ (f +. pad) }
    end

(* Overflow-proof companion to [to_float_enclosure]: a certified
   enclosure of [x / 2^e] for a suitable [e >= 0], returned as
   [(interval, e)]. The mantissa interval is built from the top two
   limbs only — the truncated tail contributes at most one mantissa
   unit — so it is always finite and sign-definite, even for values
   whose float conversion saturates past DBL_MAX (~1024 bits).
   Hullnd's float visibility screen uses this to image the wide
   integers of lcm-scaled hull planes without overflowing. *)
let to_scaled_enclosure = function
  | Small n ->
    let f = float_of_int n in
    if int_bits n <= 53 then ({ Interval.lo = f; hi = f }, 0)
    else ({ Interval.lo = Float.pred f; hi = Float.succ f }, 0)
  | Big b as x ->
    let k = Array.length b.mag in
    if k < 3 then (to_float_enclosure x, 0)
    else begin
      (* x = sign * (t * 2^e + tail), 0 <= tail < 2^e, with t the top
         60 bits exactly — t ∈ [2^59, 2^60), so the enclosure's
         relative width is uniformly below 2^-58 regardless of how the
         magnitude straddles limb boundaries. *)
      let e = mag_num_bits b.mag - 60 in
      let t = mag_bits_from b.mag e in
      let lo = Float.pred (float_of_int t)
      and hi = Float.succ (float_of_int (t + 1)) in
      if b.sign >= 0 then ({ Interval.lo; hi }, e)
      else ({ Interval.lo = -.hi; hi = -.lo }, e)
    end

let to_string x =
  match x with
  | Small n -> string_of_int n
  | Big _ ->
    let buf = Buffer.create 32 in
    let chunks = ref [] in
    let m = ref (mag_of x) in
    (* Peel 9 decimal digits at a time; 10^9 < 2^30 is a valid limb. *)
    let d = 1_000_000_000 in
    while not (mag_is_zero !m) do
      let q, r = mag_divmod_small !m d in
      chunks := r :: !chunks;
      m := q
    done;
    if sign x < 0 then Buffer.add_char buf '-';
    (match !chunks with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty string"
  else begin
    let negative = s.[0] = '-' in
    let start = if negative || s.[0] = '+' then 1 else 0 in
    if start >= n then invalid_arg "Bigint.of_string: no digits"
    else begin
      let acc = ref [||] in
      for i = start to n - 1 do
        let c = s.[i] in
        if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit"
        else acc := mag_add_small (mag_mul_small !acc 10) (Char.code c - Char.code '0')
      done;
      make (if negative then -1 else 1) !acc
    end
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)
