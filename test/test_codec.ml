(* Wire-format round trips and hostile-input behaviour. *)

module Q = Numeric.Q
module B = Numeric.Bigint
module Vec = Geometry.Vec
module Polytope = Geometry.Polytope
module Wire = Codec.Wire

let test_varint_roundtrip () =
  List.iter
    (fun n ->
       let buf = Buffer.create 8 in
       Wire.write_varint buf n;
       let r = Wire.reader_of_string (Buffer.contents buf) in
       Alcotest.(check int) (string_of_int n) n (Wire.read_varint r);
       Alcotest.(check bool) "consumed" true (Wire.reader_done r))
    [0; 1; 127; 128; 300; 1 lsl 20; 1 lsl 40; max_int]

let test_int_zigzag () =
  List.iter
    (fun n ->
       let buf = Buffer.create 8 in
       Wire.write_int buf n;
       let r = Wire.reader_of_string (Buffer.contents buf) in
       Alcotest.(check int) (string_of_int n) n (Wire.read_int r))
    [0; -1; 1; -64; 64; -100000; 123456789; -(1 lsl 40)]

let test_polytope_roundtrip () =
  let p =
    Polytope.of_points ~dim:2
      [ Vec.of_ints [0; 0]; Vec.of_ints [3; 0]; Vec.of_ints [0; 3];
        Vec.make [Q.of_ints 22 7; Q.of_ints (-5) 3] ]
  in
  let p' = Wire.polytope_of_string (Wire.polytope_to_string p) in
  Alcotest.(check bool) "equal" true (Polytope.equal p p')

let test_size_monotone () =
  (* More vertices, more bytes; the E5 bandwidth argument. *)
  let point = Polytope.singleton (Vec.of_ints [1; 2]) in
  let square =
    Polytope.of_points ~dim:2
      [Vec.of_ints [0;0]; Vec.of_ints [9;0]; Vec.of_ints [9;9]; Vec.of_ints [0;9]]
  in
  Alcotest.(check bool) "point cheaper than square" true
    (Wire.polytope_size point < Wire.polytope_size square)

let test_malformed () =
  let raises s =
    try ignore (Wire.polytope_of_string s); false with
    | Wire.Malformed _ -> true
  in
  Alcotest.(check bool) "empty" true (raises "");
  Alcotest.(check bool) "truncated" true
    (let good = Wire.polytope_to_string (Polytope.singleton (Vec.of_ints [1; 2])) in
     raises (String.sub good 0 (String.length good - 1)));
  Alcotest.(check bool) "trailing garbage" true
    (let good = Wire.polytope_to_string (Polytope.singleton (Vec.of_ints [1; 2])) in
     raises (good ^ "x"))

let test_recanonicalization () =
  (* A peer sending redundant interior vertices cannot smuggle a
     non-canonical V-representation into the process state. *)
  let buf = Buffer.create 64 in
  Wire.write_varint buf 2; (* dim *)
  Wire.write_varint buf 5; (* vertex count, one interior *)
  List.iter (Wire.write_vec buf)
    [ Vec.of_ints [0;0]; Vec.of_ints [2;0]; Vec.of_ints [1;1] (* interior *);
      Vec.of_ints [2;2]; Vec.of_ints [0;2] ];
  let p = Wire.polytope_of_string (Buffer.contents buf) in
  Alcotest.(check int) "canonicalized to 4 vertices" 4
    (List.length (Polytope.vertices p))

let varints xs =
  let buf = Buffer.create 16 in
  List.iter (Wire.write_varint buf) xs;
  Buffer.contents buf

(* Nine varint bytes with every payload bit set read back as -1. *)
let varint_minus_one = String.make 8 '\xff' ^ "\x7f"

(* Every element a count announces takes at least one byte, so a count
   may equal the unread bytes but never exceed them. *)
let test_read_count () =
  let count bytes = Wire.read_count (Wire.reader_of_string bytes) in
  let malformed name bytes =
    match count bytes with
    | n -> Alcotest.failf "%s: read as %d" name n
    | exception Wire.Malformed _ -> ()
  in
  Alcotest.(check int) "count = unread bytes" 3 (count (varints [ 3 ] ^ "abc"));
  Alcotest.(check int) "zero count at the end" 0 (count (varints [ 0 ]));
  malformed "count above unread bytes" (varints [ 4 ] ^ "abc");
  malformed "count 2^55" (varints [ 1 lsl 55 ] ^ "abc");
  malformed "negative count" (varint_minus_one ^ "abc")

(* Decoders reject a hostile count before sizing anything from it, so
   the attempt allocates next to nothing instead of a count-sized
   array or an allocation failure. *)
let test_hostile_counts () =
  let bigint r = ignore (Wire.read_bigint r : B.t) in
  let polytope r = ignore (Wire.read_polytope r : Polytope.t) in
  List.iter
    (fun (name, bytes, decode) ->
       let before = Gc.allocated_bytes () in
       let outcome =
         match decode (Wire.reader_of_string bytes) with
         | () -> "decoded"
         | exception Wire.Malformed _ -> "malformed"
         | exception e -> Printexc.to_string e
       in
       let kib = (Gc.allocated_bytes () -. before) /. 1024. in
       Alcotest.(check string) (name ^ ": outcome") "malformed" outcome;
       Alcotest.(check bool)
         (Printf.sprintf "%s: %.1f KiB allocated (< 64)" name kib) true
         (kib < 64.))
    [ (* positive sign byte, limb count, one limb *)
      ("bigint limb count 2^55", "\002" ^ varints [ 1 lsl 55; 1 ], bigint);
      ("bigint limb count -1", "\002" ^ varint_minus_one ^ "\001", bigint);
      (* dimension 1, vertex count, one 1-vector *)
      ("polytope vertex count 2^55",
       varints [ 1; 1 lsl 55 ] ^ Wire.vec_to_string (Vec.of_ints [ 1 ]),
       polytope) ]

let gen_q_big =
  let open QCheck.Gen in
  let* n = -1000000000 -- 1000000000 in
  let* d = 1 -- 1000000000 in
  return (Q.of_ints n d)

let prop_q_roundtrip =
  Gen.prop ~count:300 "rational round trip"
    (QCheck.make ~print:Q.to_string gen_q_big)
    (fun q ->
       let buf = Buffer.create 16 in
       Wire.write_q buf q;
       let r = Wire.reader_of_string (Buffer.contents buf) in
       Q.equal q (Wire.read_q r) && Wire.reader_done r)

let prop_bigint_roundtrip =
  Gen.prop ~count:200 "bigint round trip (large)"
    (QCheck.make ~print:B.to_string
       (QCheck.Gen.map
          (fun (a, b) -> B.mul (B.pow (B.of_int a) 7) (B.of_int b))
          QCheck.Gen.(pair (1 -- 1000000) (-1000000 -- 1000000))))
    (fun x ->
       let buf = Buffer.create 16 in
       Wire.write_bigint buf x;
       let r = Wire.reader_of_string (Buffer.contents buf) in
       B.equal x (Wire.read_bigint r))

let prop_polytope_roundtrip =
  Gen.prop ~count:100 "polytope round trip"
    (QCheck.make ~print:Gen.print_points
       (Gen.gen_points ~min_size:1 ~max_size:8 2))
    (fun pts ->
       let p = Polytope.of_points ~dim:2 pts in
       Polytope.equal p (Wire.polytope_of_string (Wire.polytope_to_string p)))

let suite =
  [ ( "codec",
      [ Alcotest.test_case "varint" `Quick test_varint_roundtrip;
        Alcotest.test_case "zig-zag ints" `Quick test_int_zigzag;
        Alcotest.test_case "polytope round trip" `Quick test_polytope_roundtrip;
        Alcotest.test_case "size monotone" `Quick test_size_monotone;
        Alcotest.test_case "malformed input" `Quick test_malformed;
        Alcotest.test_case "re-canonicalization" `Quick test_recanonicalization ]
      @ List.map Gen.qtest
          [ prop_q_roundtrip; prop_bigint_roundtrip; prop_polytope_roundtrip ]
      @ [ Alcotest.test_case "read_count bounds" `Quick test_read_count;
          Alcotest.test_case "hostile counts are Malformed" `Quick
            test_hostile_counts ] ) ]
