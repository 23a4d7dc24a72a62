module Wire = Codec.Wire
module SV = Protocol.Stable_vector
module Instance = Chc.Instance

exception Malformed of string

(* --- framing telemetry ------------------------------------------------- *)

let frames_out = Obs.Metrics.counter "chc_serve_frames_total"
    ~labels:[ ("dir", "out") ]
let frames_in = Obs.Metrics.counter "chc_serve_frames_total"
    ~labels:[ ("dir", "in") ]
let bytes_out = Obs.Metrics.counter "chc_serve_frame_bytes_total"
    ~labels:[ ("dir", "out") ]
let bytes_in = Obs.Metrics.counter "chc_serve_frame_bytes_total"
    ~labels:[ ("dir", "in") ]

(* --- protocol-message codec -------------------------------------------- *)

let write_entries buf entries =
  Wire.write_varint buf (List.length entries);
  List.iter
    (fun (origin, v) ->
       Wire.write_varint buf origin;
       Wire.write_vec buf v)
    entries

let read_entries r =
  let count = Wire.read_count r in
  List.init count (fun _ ->
      let origin = Wire.read_varint r in
      let v = Wire.read_vec r in
      (origin, v))

let tag_sv = 0
let tag_input0 = 1
let tag_round = 2
let tag_rejoin = 3

let write_msg buf (msg : Instance.msg) =
  match msg with
  | Instance.Sv m ->
    Wire.write_varint buf tag_sv;
    write_entries buf (SV.msg_entries m)
  | Instance.Input0 x ->
    Wire.write_varint buf tag_input0;
    Wire.write_vec buf x
  | Instance.Round (t, h) ->
    Wire.write_varint buf tag_round;
    Wire.write_varint buf t;
    Wire.write_polytope buf h
  | Instance.Rejoin r ->
    Wire.write_varint buf tag_rejoin;
    Wire.write_varint buf r

let rec strictly_sorted = function
  | (a, _) :: ((b, _) :: _ as rest) -> a < b && strictly_sorted rest
  | _ -> true

let read_msg r : Instance.msg =
  let tag = Wire.read_varint r in
  if tag = tag_sv then begin
    (* msg_of_entries requires origin-sorted pairs (the form msg_entries
       yields); a hostile peer breaking the order is caught here *)
    let entries = read_entries r in
    if not (strictly_sorted entries) then
      raise (Malformed "sv view entries not strictly sorted by origin");
    Instance.Sv (SV.msg_of_entries entries)
  end
  else if tag = tag_input0 then Instance.Input0 (Wire.read_vec r)
  else if tag = tag_round then
    let t = Wire.read_varint r in
    let h = Wire.read_polytope r in
    Instance.Round (t, h)
  else if tag = tag_rejoin then Instance.Rejoin (Wire.read_varint r)
  else raise (Malformed (Printf.sprintf "unknown message tag %d" tag))

let msg_to_string msg =
  let buf = Buffer.create 64 in
  write_msg buf msg;
  Buffer.contents buf

let msg_of_string s =
  match
    let r = Wire.reader_of_string s in
    let m = read_msg r in
    if not (Wire.reader_done r) then raise (Malformed "trailing bytes");
    m
  with
  | m -> Ok m
  | exception Malformed msg -> Error msg
  | exception Wire.Malformed msg -> Error msg

(* --- client vocabulary ------------------------------------------------- *)

type request =
  | Submit of {
      id : int;
      n : int;
      f : int;
      d : int;
      eps : Numeric.Q.t;
      lo : Numeric.Q.t;
      hi : Numeric.Q.t;
      inputs : Geometry.Vec.t array;
    }

type response =
  | Decision of { id : int; t_end : int; output : Geometry.Polytope.t }
  | Rejected of { id : int; reason : string }

(* Raw byte strings are not part of Wire's vocabulary; spell them as a
   varint length plus per-byte varints (reasons are short). *)
let write_reason buf s =
  Wire.write_varint buf (String.length s);
  String.iter (fun c -> Wire.write_varint buf (Char.code c)) s

let read_reason r =
  let len = Wire.read_count r in
  String.init len (fun _ -> Char.chr (Wire.read_varint r land 0xff))

let tag_submit = 0
let tag_decision = 0
let tag_rejected = 1

let write_request buf = function
  | Submit { id; n; f; d; eps; lo; hi; inputs } ->
    Wire.write_varint buf tag_submit;
    Wire.write_varint buf id;
    Wire.write_varint buf n;
    Wire.write_varint buf f;
    Wire.write_varint buf d;
    Wire.write_q buf eps;
    Wire.write_q buf lo;
    Wire.write_q buf hi;
    Wire.write_varint buf (Array.length inputs);
    Array.iter (Wire.write_vec buf) inputs

let read_request r =
  let tag = Wire.read_varint r in
  if tag = tag_submit then begin
    let id = Wire.read_varint r in
    let n = Wire.read_varint r in
    let f = Wire.read_varint r in
    let d = Wire.read_varint r in
    let eps = Wire.read_q r in
    let lo = Wire.read_q r in
    let hi = Wire.read_q r in
    let count = Wire.read_count r in
    let inputs = Array.init count (fun _ -> Wire.read_vec r) in
    Submit { id; n; f; d; eps; lo; hi; inputs }
  end
  else raise (Malformed (Printf.sprintf "unknown request tag %d" tag))

let write_response buf = function
  | Decision { id; t_end; output } ->
    Wire.write_varint buf tag_decision;
    Wire.write_varint buf id;
    Wire.write_varint buf t_end;
    Wire.write_polytope buf output
  | Rejected { id; reason } ->
    Wire.write_varint buf tag_rejected;
    Wire.write_varint buf id;
    write_reason buf reason

let read_response r =
  let tag = Wire.read_varint r in
  if tag = tag_decision then begin
    let id = Wire.read_varint r in
    let t_end = Wire.read_varint r in
    let output = Wire.read_polytope r in
    Decision { id; t_end; output }
  end
  else if tag = tag_rejected then begin
    let id = Wire.read_varint r in
    let reason = read_reason r in
    Rejected { id; reason }
  end
  else raise (Malformed (Printf.sprintf "unknown response tag %d" tag))

(* --- frames ------------------------------------------------------------ *)

let encode_frame payload =
  let buf = Buffer.create (String.length payload + 5) in
  Wire.write_varint buf (String.length payload);
  Buffer.add_string buf payload;
  Obs.Metrics.incr frames_out;
  Obs.Metrics.add bytes_out (Buffer.length buf);
  Buffer.contents buf

(* An incremental reassembler. [buf] holds unconsumed bytes starting
   at [pos]; the buffer is compacted whenever the consumed prefix
   dominates, so long-lived connections do not grow it unboundedly. *)
type decoder = {
  mutable dbuf : Buffer.t;
  mutable pos : int;
}

let max_frame = 64 * 1024 * 1024
(* A length prefix beyond this is a protocol error, not a frame worth
   waiting for — it would let a hostile peer park gigabytes in our
   reassembly buffer. *)

let decoder () = { dbuf = Buffer.create 256; pos = 0 }

let feed t ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  Buffer.add_substring t.dbuf s off len

let pending t = Buffer.length t.dbuf - t.pos

let compact t =
  if t.pos > 4096 && t.pos * 2 > Buffer.length t.dbuf then begin
    let rest = Buffer.sub t.dbuf t.pos (Buffer.length t.dbuf - t.pos) in
    let fresh = Buffer.create (String.length rest + 256) in
    Buffer.add_string fresh rest;
    t.dbuf <- fresh;
    t.pos <- 0
  end

(* Try to read a varint at [pos] without committing: returns
   (value, bytes consumed) or None if more bytes are needed. *)
let peek_varint t =
  let len = Buffer.length t.dbuf in
  let rec go acc shift i =
    if t.pos + i >= len then None
    else begin
      let b = Char.code (Buffer.nth t.dbuf (t.pos + i)) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Some (acc, i + 1)
      else if shift >= 56 then raise (Malformed "frame length varint too long")
      else go acc (shift + 7) (i + 1)
    end
  in
  go 0 0 0

let next t =
  match peek_varint t with
  | None -> None
  | Some (flen, hdr) ->
    if flen < 0 || flen > max_frame then
      raise (Malformed (Printf.sprintf "frame length %d out of bounds" flen));
    if pending t < hdr + flen then None
    else begin
      let payload = Buffer.sub t.dbuf (t.pos + hdr) flen in
      t.pos <- t.pos + hdr + flen;
      compact t;
      Obs.Metrics.incr frames_in;
      Obs.Metrics.add bytes_in (hdr + flen);
      Some payload
    end
