(* Crash accounting for the durable-crash workload: after the daemon is
   killed with SIGKILL and `chc_serve resume` has run, every submitted
   instance id ends in exactly one class.

   - [Answered]: the client received its Decision before the kill.
   - [Marker]: decided and marked durable ([decided.json]) but the
     response never reached the client.
   - [Resumed]: unfinished at the kill; `resume` finished it from its WAL.
   - [Unacked_lost]: no [meta.json] (the kill hit between the instance
     directory's creation and its scenario file, or the request never
     left the socket buffer), so `scan_wal` cannot see it. Never
     acknowledged, so losing it breaks no promise; it is counted, not
     gated.
   - [Lost]: a [meta.json] exists yet neither a marker nor `resume`
     finished it — a durable acceptance dropped, which fails the run. *)

type fate = Answered | Marker | Resumed | Unacked_lost | Lost

type facts = {
  answered : bool;
  has_meta : bool;    (* [inst-<id>/meta.json] present after the kill *)
  has_marker : bool;  (* [inst-<id>/decided.json] present after the kill *)
  resumed : bool;     (* decided by the [resume] run *)
}

let classify f =
  if f.answered then Answered
  else if f.has_marker then Marker
  else if f.resumed then Resumed
  else if not f.has_meta then Unacked_lost
  else Lost

let name = function
  | Answered -> "answered"
  | Marker -> "decided_marker"
  | Resumed -> "resumed"
  | Unacked_lost -> "unacked_lost"
  | Lost -> "lost"

(* The on-disk half of [facts], read right after the kill and before
   `resume` writes its own markers. *)
let disk_facts ~wal_dir id =
  let dir = Filename.concat wal_dir (Printf.sprintf "inst-%d" id) in
  ( Sys.file_exists (Filename.concat dir "meta.json"),
    Sys.file_exists (Filename.concat dir "decided.json") )

(* Ids named by `chc_serve resume` output lines
   ("instance <id> decided after resume ..."). *)
let resumed_id line =
  match String.split_on_char ' ' line |> List.filter (( <> ) "") with
  | "instance" :: id :: "decided" :: "after" :: "resume" :: _ ->
    int_of_string_opt id
  | _ -> None
