type 'a per_round = {
  mutable arrivals : (int * 'a) list;  (* reverse arrival order *)
  mutable count : int;                 (* length of [arrivals] *)
  mutable frozen : (int * 'a) list option;
}

(* Rounds are dense small integers (0 .. t_end), so the table is an
   array indexed by round that doubles on demand. A slot exists once a
   round has been touched by anything but [mem], and [dump] lists
   exactly those rounds: checkpoints record them, so which rounds
   appear is part of the WAL's bytes. *)
type 'a t = {
  threshold : int;
  mutable slots : 'a per_round option array;
}

let create ~threshold =
  if threshold < 1 then invalid_arg "Rounds.create: threshold must be >= 1";
  { threshold; slots = Array.make 8 None }

let slot t round =
  if round < 0 then invalid_arg "Rounds: negative round";
  let len = Array.length t.slots in
  if round >= len then begin
    let grown = Array.make (Stdlib.max (2 * len) (round + 1)) None in
    Array.blit t.slots 0 grown 0 len;
    t.slots <- grown
  end;
  match t.slots.(round) with
  | Some s -> s
  | None ->
    let s = { arrivals = []; count = 0; frozen = None } in
    t.slots.(round) <- Some s;
    s

let rec has_sender src = function
  | [] -> false
  | (s, _) :: rest -> s = src || has_sender src rest

let add t ~round ~src payload =
  let s = slot t round in
  if has_sender src s.arrivals then
    invalid_arg "Rounds.add: duplicate (round, sender)"
  else begin
    s.arrivals <- (src, payload) :: s.arrivals;
    s.count <- s.count + 1
  end

let mem t ~round ~src =
  round >= 0
  && round < Array.length t.slots
  &&
  match t.slots.(round) with
  | None -> false
  | Some s -> has_sender src s.arrivals

let count t ~round =
  let s = slot t round in
  match s.frozen with Some _ -> t.threshold | None -> s.count

let ready t ~round =
  let s = slot t round in
  Option.is_some s.frozen || s.count >= t.threshold

let first_threshold t arrivals =
  List.filteri (fun i _ -> i < t.threshold) arrivals

let freeze t ~round =
  let s = slot t round in
  match s.frozen with
  | Some l -> l
  | None ->
    if s.count < t.threshold then invalid_arg "Rounds.freeze: round not ready"
    else begin
      let first = first_threshold t (List.rev s.arrivals) in
      s.frozen <- Some first;
      first
    end

(* Checkpoint support: arrivals in arrival order per round, plus the
   frozen flag. Because arrivals only ever append and [freeze] takes
   the first [threshold] of them, (arrival order, frozen?) determines
   the frozen multiset — the values themselves need not be saved
   twice. *)
let dump t =
  let acc = ref [] in
  for round = Array.length t.slots - 1 downto 0 do
    match t.slots.(round) with
    | None -> ()
    | Some s ->
      acc := (round, List.rev s.arrivals, Option.is_some s.frozen) :: !acc
  done;
  !acc

let restore ~threshold rounds =
  let t = create ~threshold in
  List.iter
    (fun (round, arrivals, frozen) ->
       let s = slot t round in
       s.arrivals <- List.rev arrivals;
       s.count <- List.length arrivals;
       if frozen then begin
         if s.count < threshold then
           invalid_arg "Rounds.restore: frozen round below threshold";
         s.frozen <- Some (first_threshold t arrivals)
       end)
    rounds;
  t
