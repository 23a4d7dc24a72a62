(* The golden manifest: MD5 digests of what chc_sim prints and writes
   over a fixed corpus, so a refactor that must keep every byte proves
   it with one command.

   Usage: golden.exe (check | bless) CHC_SIM MANIFEST

   Runs CHC_SIM (the chc_sim binary) once per corpus entry, [jobs]
   processes at a time, each in its own scratch directory, and builds
   the manifest: one "<md5>  <artifact>" line per artifact, in corpus
   order. [check] compares it with the file MANIFEST, prints every
   line that differs and exits 1 on a difference; [bless] writes it
   to MANIFEST. The corpus:

   - d = 1..3 (n = d+4, f = 1) x fifo, random, round-robin, lag:0,1
     x seeds 1-3: the [trace] transcript, and the [run --recover]
     report with every WAL file it writes;
   - n7-f1-d3 at eps = 1/100 under lag:0,1, seeds 2, 4 and 5: the
     [trace] transcript and the [run] report. These runs sum
     polytopes in most rounds.

   The reports are non-verbose, so no metrics block is digested, and
   the WAL directory is the relative path "wal", so a report's WAL
   lines read the same wherever the corpus runs. Artifacts are named
   after the arguments that made them, so a manifest diff says which
   run changed.

   The @golden alias (golden/dune, part of @ci) checks the committed
   golden/manifest.md5. Re-blessing, after a deliberate behaviour
   change, is its own command, run from the repository root:
     dune build ./bin/chc_sim.exe ./golden/golden.exe
     ./_build/default/golden/golden.exe bless \
       _build/default/bin/chc_sim.exe golden/manifest.md5
   CHC_DOMAINS and CHC_KERNEL reach every run, and the manifest must
   read the same under each of their values. *)

type case = { name : string; args : string list }

(* Runs at a time: the corpus is CPU-bound, and CI boxes have two
   cores. *)
let jobs = 2

let shape_args ~d ~n ~sched ~seed =
  [ "-n"; string_of_int n; "-f"; "1"; "-d"; string_of_int d;
    "--scheduler"; sched; "--seed"; string_of_int seed ]

let corpus =
  let grid =
    List.concat_map
      (fun (d, n) ->
         List.concat_map
           (fun sched ->
              List.concat_map
                (fun seed ->
                   let shape = shape_args ~d ~n ~sched ~seed in
                   let tag = Printf.sprintf "n%d-f1-d%d/%s/seed%d" n d sched seed in
                   [ { name = "trace/" ^ tag; args = "trace" :: shape };
                     { name = "recover/" ^ tag;
                       args = ("run" :: "--recover" :: shape) @ [ "--wal-dir"; "wal" ] } ])
                [ 1; 2; 3 ])
           [ "fifo"; "random"; "round-robin"; "lag:0,1" ])
      [ (1, 5); (2, 6); (3, 7) ]
  in
  let lag100 =
    List.concat_map
      (fun seed ->
         let shape = shape_args ~d:3 ~n:7 ~sched:"lag:0,1" ~seed @ [ "--eps"; "1/100" ] in
         let tag = Printf.sprintf "n7-f1-d3-eps1/100/lag:0,1/seed%d" seed in
         [ { name = "trace/" ^ tag; args = "trace" :: shape };
           { name = "run/" ^ tag; args = "run" :: shape } ])
      [ 2; 4; 5 ]
  in
  grid @ lag100

(* The d=3 recovery runs take seconds each and the rest milliseconds,
   so they start first, which keeps the slowest off the tail. *)
let start_order =
  let heavy c = String.starts_with ~prefix:"recover/n7-f1-d3/" c.name in
  let indexed = List.mapi (fun i c -> (i, c)) corpus in
  let first, rest = List.partition (fun (_, c) -> heavy c) indexed in
  first @ rest

exception Failed of string

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Start [c] in the fresh directory [dir], its stdout in [dir]/stdout. *)
let spawn sim dir c =
  Sys.mkdir dir 0o755;
  let out =
    Unix.openfile (Filename.concat dir "stdout")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let here = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () -> Sys.chdir here; Unix.close out)
    (fun () ->
       Unix.create_process sim (Array.of_list (sim :: c.args)) Unix.stdin out
         Unix.stderr)

(* Run every case in [root]/<index>, at most [jobs] at once. Any
   non-zero exit fails the whole manifest, once every run has ended. *)
let run_all sim root =
  let running = Hashtbl.create 8 and failed = ref [] in
  let reap () =
    let pid, status = Unix.wait () in
    match Hashtbl.find_opt running pid with
    | None -> ()
    | Some c ->
      Hashtbl.remove running pid;
      if status <> Unix.WEXITED 0 then failed := c.name :: !failed
  in
  List.iter
    (fun (i, c) ->
       while Hashtbl.length running >= jobs do reap () done;
       let dir = Filename.concat root (string_of_int i) in
       Hashtbl.replace running (spawn sim dir c) c)
    start_order;
  while Hashtbl.length running > 0 do reap () done;
  if !failed <> [] then
    raise (Failed ("failed runs: " ^ String.concat ", " (List.rev !failed)))

let header =
  "# chc_sim golden manifest: the MD5 of every transcript, report and WAL\n\
   # file of the corpus in golden/golden.ml. Checked by `dune build @golden`;\n\
   # re-blessed by `golden.exe bless` (see golden/golden.ml).\n"

(* The manifest's digest lines, in corpus order. *)
let manifest_lines root =
  let line path name =
    Printf.sprintf "%s  %s\n" (Digest.to_hex (Digest.file path)) name
  in
  List.concat
    (List.mapi
    (fun i c ->
       let dir = Filename.concat root (string_of_int i) in
       let stdout_name =
         if String.starts_with ~prefix:"trace/" c.name then c.name
         else c.name ^ "/report"
       in
       let wal = Filename.concat dir "wal" in
       let wal_files =
         if Sys.file_exists wal then List.sort compare (Array.to_list (Sys.readdir wal))
         else []
       in
       line (Filename.concat dir "stdout") stdout_name
       :: List.map (fun f -> line (Filename.concat wal f) (c.name ^ "/" ^ f)) wal_files)
    corpus)

(* Every line one side has and the other lacks, "-" for the committed
   manifest and "+" for this run. *)
let report_difference ~expected ~got =
  let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  let e = lines expected and g = lines got in
  List.iter (fun l -> if not (List.mem l g) then print_endline ("- " ^ l)) e;
  List.iter (fun l -> if not (List.mem l e) then print_endline ("+ " ^ l)) g

let () =
  let mode, sim, manifest =
    match Sys.argv with
    | [| _; ("check" | "bless") as mode; sim; manifest |] ->
      let sim =
        if Filename.is_relative sim then Filename.concat (Sys.getcwd ()) sim
        else sim
      in
      (mode, sim, manifest)
    | _ ->
      prerr_endline "usage: golden.exe (check | bless) CHC_SIM MANIFEST";
      exit 2
  in
  let root = Filename.temp_dir "chc-golden" "" in
  let got =
    match run_all sim root; manifest_lines root with
    | lines -> remove_tree root; header ^ String.concat "" lines
    | exception Failed msg ->
      remove_tree root;
      prerr_endline ("golden: " ^ msg);
      exit 1
  in
  if mode = "bless" then
    Out_channel.with_open_bin manifest (fun oc -> output_string oc got)
  else begin
    let expected = In_channel.with_open_bin manifest In_channel.input_all in
    if not (String.equal expected got) then begin
      print_endline ("golden: " ^ manifest ^ " differs from this run:");
      report_difference ~expected ~got;
      exit 1
    end
  end
