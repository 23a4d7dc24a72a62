(** Binary wire format for the values Algorithm CC puts on the network.

    A deployment of the protocol must ship polytopes between machines;
    this codec defines that format and doubles as the measuring stick
    for the bandwidth accounting of experiment E5 (convex hull
    consensus pays for its richer decisions in message bytes, not in
    rounds or message count).

    Format: little-endian, self-delimiting.
    - unsigned LEB128 varints for lengths and small naturals;
    - integers as sign byte + varint limb count + 30-bit limbs;
    - rationals as numerator then denominator (normalized on read);
    - vectors as dimension + coordinates;
    - polytopes as dimension + vertex count + vertices (the canonical
      V-representation travels; canonical form is re-established on
      read, so a hostile or buggy peer cannot smuggle a non-canonical
      list into the process state). *)

module Q = Numeric.Q

(** {1 Writers} *)

val write_varint : Buffer.t -> int -> unit
(** @raise Invalid_argument on negative input. *)

val write_int : Buffer.t -> int -> unit
(** Signed, zig-zag encoded varint. *)

val write_bigint : Buffer.t -> Numeric.Bigint.t -> unit
val write_q : Buffer.t -> Q.t -> unit
val write_vec : Buffer.t -> Geometry.Vec.t -> unit
val write_polytope : Buffer.t -> Geometry.Polytope.t -> unit

(** {1 Readers} *)

type reader
(** A cursor over immutable bytes. *)

exception Malformed of string

val reader_of_string : string -> reader
val reader_done : reader -> bool
(** All bytes consumed? *)

val read_varint : reader -> int

val read_count : reader -> int
(** A varint that counts the elements (or bytes) that follow it, for
    sizing an allocation. Each element takes at least one byte, so a
    count above the unread bytes (or a negative one) is rejected before
    the caller allocates anything.
    @raise Malformed on such a count. *)

val read_int : reader -> int
val read_bigint : reader -> Numeric.Bigint.t
val read_q : reader -> Q.t
val read_vec : reader -> Geometry.Vec.t
val read_polytope : reader -> Geometry.Polytope.t
(** Re-canonicalizes, so the result is a valid {!Geometry.Polytope.t}
    whatever vertex list was transmitted.
    @raise Malformed on truncated or corrupt input. *)

(** {1 Convenience} *)

val polytope_to_string : Geometry.Polytope.t -> string
val polytope_of_string : string -> Geometry.Polytope.t
val vec_to_string : Geometry.Vec.t -> string
val vec_of_string : string -> Geometry.Vec.t

val polytope_size : Geometry.Polytope.t -> int
(** Encoded size in bytes. *)

val vec_size : Geometry.Vec.t -> int
