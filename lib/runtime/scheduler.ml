type channel = { src : int; dst : int }

type pick_fn =
  rng:Rng.t -> step:int -> candidates:(channel * int) list -> channel

type t = {
  name : string;
  params : string;
  fresh : unit -> pick_fn;
}

let make ~name ?(params = "") fresh = { name; params; fresh }

let stateless ~name ?params pick = make ~name ?params (fun () -> pick)

let name t = t.name
let params t = t.params

let to_spec t = if t.params = "" then t.name else t.name ^ ":" ^ t.params

let equal a b = to_spec a = to_spec b

let instantiate t =
  let pick = t.fresh () in
  fun ~rng ~step ~candidates ->
    match candidates with
    | [] -> invalid_arg "Scheduler: no candidates"
    | _ -> pick ~rng ~step ~candidates

(* --- the four core adversaries --------------------------------------- *)

let nth_channel candidates k = fst (List.nth candidates k)

let pick_random ~rng ~step:_ ~candidates =
  nth_channel candidates (Rng.int rng (List.length candidates))

let pick_round_robin ~rng:_ ~step ~candidates =
  nth_channel candidates (step mod List.length candidates)

let pick_lag slow ~rng ~step:_ ~candidates =
  let fast =
    List.filter (fun (c, _) -> not (List.mem c.src slow)) candidates
  in
  let pool = if fast = [] then candidates else fast in
  nth_channel pool (Rng.int rng (List.length pool))

let pick_lifo ~rng:_ ~step:_ ~candidates =
  let latest =
    List.fold_left
      (fun acc (c, seq) ->
         match acc with
         | Some (_, best) when best >= seq -> acc
         | _ -> Some (c, seq))
      None candidates
  in
  match latest with Some (c, _) -> c | None -> assert false

(* Global send order: always deliver the oldest in-flight message.
   Sequence numbers are allocated from one system-wide counter, so the
   minimum head seq is the earliest undelivered send.  Not an
   adversary: it is the daemon's schedule.  Sim serves [fifo] from one
   global queue and never calls this pick then; the pick is the
   reference that queue must match, run over per-channel queues by the
   conformance suite. *)
let pick_fifo ~rng:_ ~step:_ ~candidates =
  let earliest =
    List.fold_left
      (fun acc (c, seq) ->
         match acc with
         | Some (_, best) when best <= seq -> acc
         | _ -> Some (c, seq))
      None candidates
  in
  match earliest with Some (c, _) -> c | None -> assert false

let random_uniform = stateless ~name:"random" pick_random
let round_robin = stateless ~name:"round-robin" pick_round_robin
let lifo_bias = stateless ~name:"lifo" pick_lifo
let fifo = stateless ~name:"fifo" pick_fifo

let lag_sources slow =
  stateless ~name:"lag"
    ~params:(String.concat "," (List.map string_of_int slow))
    (pick_lag slow)

(* --- registry --------------------------------------------------------- *)

let registry : (string, string -> (t, string) result) Hashtbl.t =
  Hashtbl.create 16

let register ~name ctor = Hashtbl.replace registry name ctor

let registered () =
  Hashtbl.fold (fun k _ acc -> k :: acc) registry [] |> List.sort compare

let parse_ids s =
  let items =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
      (match int_of_string_opt x with
       | Some i when i >= 0 -> go (i :: acc) rest
       | Some _ | None ->
         Error (Printf.sprintf "%S is not a process id" x))
  in
  go [] items

let no_params t = function
  | "" -> Ok t
  | p -> Error (Printf.sprintf "takes no parameters (got %S)" p)

let () =
  register ~name:"random" (fun p -> no_params random_uniform p);
  register ~name:"round-robin" (fun p -> no_params round_robin p);
  register ~name:"lifo" (fun p -> no_params lifo_bias p);
  register ~name:"fifo" (fun p -> no_params fifo p);
  register ~name:"lag" (fun p -> Result.map lag_sources (parse_ids p))

let of_spec s =
  let name, params =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  match Hashtbl.find_opt registry name with
  | None ->
    Error
      (Printf.sprintf "unknown scheduler %S (registered: %s)" name
         (String.concat ", " (registered ())))
  | Some ctor ->
    (match ctor params with
     | Ok t -> Ok t
     | Error e -> Error (Printf.sprintf "scheduler %s: %s" name e))
