module B = Numeric.Bigint
module Q = Numeric.Q

exception Malformed of string

(* --- writers ---------------------------------------------------------- *)

let write_varint buf n =
  if n < 0 then invalid_arg "Wire.write_varint: negative"
  else begin
    let rec go n =
      if n < 0x80 then Buffer.add_char buf (Char.chr n)
      else begin
        Buffer.add_char buf (Char.chr ((n land 0x7F) lor 0x80));
        go (n lsr 7)
      end
    in
    go n
  end

(* Zig-zag: interleave signs so small magnitudes stay short. *)
let write_int buf n =
  let encoded = if n >= 0 then n lsl 1 else ((-n) lsl 1) - 1 in
  write_varint buf encoded

let bigint_limb_bits = 30
let bigint_limb_mask = (1 lsl bigint_limb_bits) - 1

let write_bigint buf x =
  let s = B.sign x in
  Buffer.add_char buf (Char.chr (s + 1)); (* 0 | 1 | 2 *)
  if s <> 0 then begin
    (* Extract base-2^30 limbs, least significant first. *)
    let rec limbs acc x =
      if B.is_zero x then List.rev acc
      else begin
        let q = B.shift_right x bigint_limb_bits in
        let limb = B.to_int_exn (B.sub x (B.shift_left q bigint_limb_bits)) in
        limbs (limb :: acc) q
      end
    in
    let ls = limbs [] (B.abs x) in
    write_varint buf (List.length ls);
    List.iter (write_varint buf) ls
  end

let write_q buf (q : Q.t) =
  write_bigint buf q.Q.num;
  write_bigint buf q.Q.den

let write_vec buf v =
  write_varint buf (Geometry.Vec.dim v);
  Array.iter (write_q buf) v

let write_polytope buf p =
  write_varint buf (Geometry.Polytope.dim p);
  let verts = Geometry.Polytope.vertices p in
  write_varint buf (List.length verts);
  List.iter (write_vec buf) verts

(* --- readers ---------------------------------------------------------- *)

type reader = { bytes : string; mutable pos : int }

let reader_of_string s = { bytes = s; pos = 0 }

let reader_done r = r.pos >= String.length r.bytes

let read_byte r =
  if r.pos >= String.length r.bytes then raise (Malformed "truncated")
  else begin
    let c = Char.code r.bytes.[r.pos] in
    r.pos <- r.pos + 1;
    c
  end

let read_varint r =
  let rec go shift acc =
    if shift > 62 then raise (Malformed "varint too long")
    else begin
      let b = read_byte r in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    end
  in
  go 0 0

(* Every element a count announces takes at least one more byte, so a
   count above the unread bytes is malformed. Checking it here, before
   any caller sizes an allocation from it, keeps a hostile count from
   costing more than the bytes that carried it. *)
let read_count r =
  let n = read_varint r in
  if n < 0 || n > String.length r.bytes - r.pos then
    raise (Malformed "count exceeds remaining bytes")
  else n

let read_int r =
  let encoded = read_varint r in
  if encoded land 1 = 0 then encoded lsr 1 else -((encoded + 1) lsr 1)

let read_bigint r =
  match read_byte r with
  | 1 -> B.zero
  | (0 | 2) as s ->
    let count = read_count r in
    if count = 0 then raise (Malformed "bigint: empty magnitude");
    let acc = ref B.zero in
    let limbs = Array.init count (fun _ -> read_varint r) in
    for i = count - 1 downto 0 do
      if limbs.(i) > bigint_limb_mask then raise (Malformed "bigint: limb range");
      acc := B.add (B.shift_left !acc bigint_limb_bits) (B.of_int limbs.(i))
    done;
    if s = 0 then B.neg !acc else !acc
  | _ -> raise (Malformed "bigint: bad sign byte")

let read_q r =
  let num = read_bigint r in
  let den = read_bigint r in
  if B.sign den <= 0 then raise (Malformed "rational: non-positive denominator")
  else Q.make num den

let read_vec r =
  let d = read_varint r in
  if d < 1 || d > 64 then raise (Malformed "vector: bad dimension")
  else Array.init d (fun _ -> read_q r)

let read_polytope r =
  let d = read_varint r in
  if d < 1 || d > 64 then raise (Malformed "polytope: bad dimension")
  else begin
    let count = read_count r in
    if count < 1 || count > 100_000 then raise (Malformed "polytope: bad vertex count")
    else begin
      let verts = List.init count (fun _ -> read_vec r) in
      List.iter
        (fun v ->
           if Geometry.Vec.dim v <> d then
             raise (Malformed "polytope: mixed dimensions"))
        verts;
      Geometry.Polytope.of_points ~dim:d verts
    end
  end

(* --- convenience ------------------------------------------------------ *)

let with_buffer f =
  let buf = Buffer.create 64 in
  f buf;
  Buffer.contents buf

let polytope_bytes_hist =
  Obs.Metrics.histogram "chc_wire_polytope_bytes"

let polytope_to_string p =
  let encode () =
    let s = with_buffer (fun b -> write_polytope b p) in
    Obs.Metrics.observe polytope_bytes_hist (float_of_int (String.length s));
    s
  in
  if Obs.Prof.enabled () then Obs.Prof.with_span "wire.encode" encode
  else encode ()

let vec_to_string v = with_buffer (fun b -> write_vec b v)

let polytope_of_string s =
  let decode () =
    let r = reader_of_string s in
    let p = read_polytope r in
    if not (reader_done r) then raise (Malformed "polytope: trailing bytes");
    p
  in
  if Obs.Prof.enabled () then Obs.Prof.with_span "wire.decode" decode
  else decode ()

let vec_of_string s =
  let r = reader_of_string s in
  let v = read_vec r in
  if not (reader_done r) then raise (Malformed "vector: trailing bytes");
  v

(* Size queries (reporting) bypass the instrumented encode so they
   don't inflate the wire-bytes histogram with phantom messages. *)
let polytope_size p = String.length (with_buffer (fun b -> write_polytope b p))
let vec_size v = String.length (vec_to_string v)
