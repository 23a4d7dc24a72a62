module Q = Numeric.Q
module Vec = Geometry.Vec

let ( let* ) r f = Result.bind r f

let parse_ids ~n ~f s =
  let items =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.sort_uniq compare acc)
    | x :: rest ->
      (match int_of_string_opt x with
       | None ->
         Error (Printf.sprintf "--faulty: %S is not a process id" x)
       | Some i when i < 0 || i >= n ->
         Error
           (Printf.sprintf
              "--faulty: id %d out of range (processes are 0..%d)" i (n - 1))
       | Some i -> go (i :: acc) rest)
  in
  let* ids = go [] items in
  if List.length ids > f then
    Error
      (Printf.sprintf
         "--faulty: %d distinct ids exceed the fault bound f = %d"
         (List.length ids) f)
  else Ok ids

let parse_q label s =
  match Q.of_string s with
  | q -> Ok q
  | exception (Failure _ | Invalid_argument _) ->
    Error (Printf.sprintf "%s: %S is not a decimal or rational" label s)

let parse_kernel s =
  match Numeric.Kernel.parse s with
  | Ok m -> Ok m
  | Error msg -> Error ("--kernel: " ^ msg)

let parse_point ~d s =
  let coords = String.split_on_char ',' s |> List.map String.trim in
  if List.length coords <> d then
    Error
      (Printf.sprintf "--inputs: point %S has %d coordinates, expected %d" s
         (List.length coords) d)
  else begin
    let rec go acc = function
      | [] -> Ok (Vec.make (List.rev acc))
      | c :: rest ->
        let* q = parse_q "--inputs" c in
        go (q :: acc) rest
    in
    go [] coords
  end

let parse_scheduler ~faulty s =
  match s with
  | "lag" -> Ok (Runtime.Scheduler.lag_sources faulty)
  | _ ->
    (match Runtime.Scheduler.of_spec s with
     | Ok t -> Ok t
     | Error e -> Error ("--scheduler: " ^ e))

let parse_inputs ~n ~d s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest ->
      let* v = parse_point ~d p in
      go (v :: acc) rest
  in
  let* pts = go [] (String.split_on_char ';' s) in
  if List.length pts <> n then
    Error
      (Printf.sprintf "--inputs: expected %d points, got %d" n
         (List.length pts))
  else Ok (Array.of_list pts)

(* --- the shared command-line surface ----------------------------------- *)

(* One definition per flag, shared by every chc_sim subcommand and by
   chc_serve — the doc strings and defaults cannot drift apart per
   subcommand anymore. *)

module Arg = Cmdliner.Arg
module Term = Cmdliner.Term

type common = {
  n : int;
  f : int;
  d : int;
  eps : string;
  lo : string;
  hi : string;
  seed : int;
  scheduler : string;
  naive : bool;
  kernel : string option;
  inputs : string option;
  faulty : string option;
}

let n_arg =
  Arg.(value & opt int 5 & info ["n"] ~docv:"N" ~doc:"Number of processes.")

let f_arg =
  Arg.(value & opt int 1 & info ["f"] ~docv:"F" ~doc:"Max faulty processes.")

let d_arg =
  Arg.(value & opt int 2 & info ["d"] ~docv:"D" ~doc:"Input dimension.")

let eps_arg =
  Arg.(value & opt string "0.1"
       & info ["eps"] ~docv:"EPS"
           ~doc:"Agreement parameter (decimal or rational a/b).")

let lo_arg =
  Arg.(value & opt string "0" & info ["lo"] ~doc:"Input lower bound (mu).")

let hi_arg =
  Arg.(value & opt string "1" & info ["hi"] ~doc:"Input upper bound (U).")

let seed_arg =
  Arg.(value & opt int 1 & info ["seed"] ~doc:"Deterministic seed.")

let scheduler_arg =
  Arg.(value & opt string "random"
       & info ["scheduler"] ~docv:"NAME[:PARAMS]"
           ~doc:"Adversary strategy, resolved against the scheduler \
                 registry: $(b,random), $(b,round-robin), $(b,lifo), \
                 $(b,fifo), $(b,lag) (starves the faulty set; or \
                 $(b,lag:0,2) for an explicit set), and the fuzzer's \
                 $(b,delay-burst:N), $(b,stab-boundary) and \
                 $(b,swarm:specA+specB).")

let naive_arg =
  Arg.(value & flag
       & info ["naive-round0"]
           ~doc:"Ablation: replace stable vector by naive first-(n-f) \
                 collection.")

let kernel_arg =
  Arg.(value & opt (some string) None
       & info ["kernel"] ~docv:"exact|filtered"
           ~doc:"Arithmetic kernel: $(b,filtered) answers geometry \
                 predicates from a certified float-interval filter with \
                 exact rational fallback; $(b,exact) always runs the \
                 rational path (the oracle). Default: the \
                 $(b,CHC_KERNEL) environment variable, else filtered. \
                 Results are identical in both modes.")

let inputs_arg =
  Arg.(value & opt (some string) None
       & info ["inputs"] ~docv:"P1;P2;..."
           ~doc:"Explicit inputs: points separated by ';', coordinates by \
                 ','. Default: random on the configured box.")

let faulty_arg =
  Arg.(value & opt (some string) None
       & info ["faulty"] ~docv:"I,J,..."
           ~doc:"Faulty process ids (default: 0..f-1).")

let common_args =
  let mk n f d eps lo hi seed scheduler naive kernel inputs faulty =
    { n; f; d; eps; lo; hi; seed; scheduler; naive; kernel; inputs; faulty }
  in
  Term.(const mk $ n_arg $ f_arg $ d_arg $ eps_arg $ lo_arg $ hi_arg
        $ seed_arg $ scheduler_arg $ naive_arg $ kernel_arg $ inputs_arg
        $ faulty_arg)

let scenario_of_common c =
  let* eps = parse_q "--eps" c.eps in
  let* lo = parse_q "--lo" c.lo in
  let* hi = parse_q "--hi" c.hi in
  let* config =
    match Config.make ~n:c.n ~f:c.f ~d:c.d ~eps ~lo ~hi with
    | config -> Ok config
    | exception Invalid_argument msg -> Error msg
  in
  let* faulty =
    match c.faulty with
    | Some s -> parse_ids ~n:c.n ~f:c.f s
    | None -> Ok (List.init c.f Fun.id)
  in
  let* scheduler = parse_scheduler ~faulty c.scheduler in
  let round0 = if c.naive then `Naive else `Stable_vector in
  let spec =
    Scenario.default ~config ~seed:c.seed ~faulty ~scheduler ~round0 ()
  in
  match c.inputs with
  | None -> Ok spec
  | Some s ->
    let* pts = parse_inputs ~n:c.n ~d:c.d s in
    Ok { spec with Scenario.inputs = pts }

let set_kernel = function
  | None -> Ok ()
  | Some s -> Result.map Numeric.Kernel.set_default (parse_kernel s)

let with_kernel kernel k =
  match set_kernel kernel with
  | Error msg -> `Error (false, msg)
  | Ok () -> k ()

let recoverize ~delay ~keep spec =
  let crash =
    Array.map
      (fun plan ->
         match plan with
         | Runtime.Crash.Never | Runtime.Crash.Crash_recover _ -> plan
         | Runtime.Crash.After_sends k ->
           Runtime.Crash.Crash_recover
             { trigger = Runtime.Crash.Sends k; delay; keep }
         | Runtime.Crash.After_receives k ->
           Runtime.Crash.Crash_recover
             { trigger = Runtime.Crash.Receives k; delay; keep })
      spec.Scenario.crash
  in
  { spec with Scenario.crash }
