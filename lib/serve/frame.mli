(** Length-prefixed binary framing for the serving daemon.

    Everything [chc_serve] puts on a byte stream — protocol messages
    between daemon-hosted processes, and the client request/response
    vocabulary — is one {e frame}: an unsigned LEB128 varint byte
    length followed by that many payload bytes, payload encoded with
    {!Codec.Wire}. Frames are self-delimiting, so a TCP connection, a
    Unix socketpair and an in-memory loopback buffer all carry the
    same bytes; the {!decoder} reassembles frames from arbitrary chunk
    boundaries.

    Framing is observable: every encoded/decoded frame bumps the
    [chc_serve_frames_total{dir}] and [chc_serve_frame_bytes_total{dir}]
    counter families. *)

exception Malformed of string
(** A structurally invalid payload (bad tag, truncated fields,
    trailing bytes). Alias-free: distinct from {!Codec.Wire.Malformed}
    so transport code can tell "short read, wait for more bytes" from
    "this peer speaks garbage". *)

(** {1 Protocol-message codec}

    {!Chc.Instance.msg} on the wire — what daemon-hosted processes of
    one consensus instance exchange. Stable-vector views travel as
    their transparent (origin, value) entry form
    ({!Protocol.Stable_vector.msg_entries}). *)

val write_msg : Buffer.t -> Chc.Instance.msg -> unit
val read_msg : Codec.Wire.reader -> Chc.Instance.msg
(** @raise Malformed on an unknown tag;
    @raise Codec.Wire.Malformed on truncated numeric fields. *)

val msg_to_string : Chc.Instance.msg -> string
val msg_of_string : string -> (Chc.Instance.msg, string) result
(** Whole-payload forms; [msg_of_string] also rejects trailing bytes. *)

(** {1 Client vocabulary} *)

type request =
  | Submit of {
      id : int;                        (** client-chosen instance id *)
      n : int;
      f : int;
      d : int;
      eps : Numeric.Q.t;
      lo : Numeric.Q.t;
      hi : Numeric.Q.t;
      inputs : Geometry.Vec.t array;   (** length [n] *)
    }  (** start one consensus instance over the given inputs *)

type response =
  | Decision of {
      id : int;
      t_end : int;
      output : Geometry.Polytope.t;
          (** the decided polytope of the lowest-numbered deciding
              process — by ε-agreement any process's decision is
              within ε of it *)
    }
  | Rejected of { id : int; reason : string }

val write_request : Buffer.t -> request -> unit
val read_request : Codec.Wire.reader -> request
(** @raise Malformed on an unknown tag;
    @raise Codec.Wire.Malformed on truncated fields or on a count
    larger than the rest of the payload ({!Codec.Wire.read_count}). *)

val write_response : Buffer.t -> response -> unit
val read_response : Codec.Wire.reader -> response

(** {1 Frames} *)

val encode_frame : string -> string
(** Prefix a payload with its varint length (and count it as an
    outbound frame). *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> ?off:int -> ?len:int -> string -> unit
(** Append raw bytes (a chunk of any size, including a partial or
    multi-frame read) to the decoder. *)

val next : decoder -> string option
(** The next complete frame payload, if one has fully arrived (counted
    as an inbound frame); [None] means feed more bytes.
    @raise Malformed if the stream is not a valid frame sequence
    (e.g. an absurd length prefix). *)

val pending : decoder -> int
(** Bytes buffered but not yet returned by {!next}. *)
