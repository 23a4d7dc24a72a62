(* Rules that DESIGN.md records and lib/ must keep: §1's module map
   names every module under lib/, each in its own directory's entry,
   so the map cannot drift from the tree unnoticed; and no lib/ module
   keeps a weak structure (§2, "Decision: no weak enclosure ring"). *)

(* The directory holding DESIGN.md and lib/: the build directory when
   dune runs the suite (both are declared dependencies of the test),
   the source root when the binary is started from there. *)
let root () =
  match
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "DESIGN.md"))
      [ ".."; "." ]
  with
  | Some d -> d
  | None -> Alcotest.fail "DESIGN.md not found"

(* The map's lib/ entries as (directory, text): the block under the
   "lib/" line runs until the next unindented line, and in it an entry
   starts at a line "  dir/" and runs over the more deeply indented
   lines after it. *)
let lib_entries design =
  let lines = String.split_on_char '\n' design in
  let rec to_heading = function
    | [] -> Alcotest.fail "DESIGN.md has no \"### Module map\""
    | l :: rest -> if l = "### Module map" then rest else to_heading rest
  in
  let rec to_lib = function
    | [] -> Alcotest.fail "the module map has no lib/ block"
    | l :: rest -> if l = "lib/" then rest else to_lib rest
  in
  let indent l =
    let rec go i =
      if i < String.length l && l.[i] = ' ' then go (i + 1) else i
    in
    go 0
  in
  let rec entries acc = function
    | [] -> List.rev acc
    | l :: _ when indent l = 0 -> List.rev acc
    | l :: rest when indent l = 2 ->
      let l = String.trim l in
      let dir, text =
        match String.index_opt l '/' with
        | Some i ->
          (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
        | None -> (l, "")
      in
      entries ((dir, text) :: acc) rest
    | l :: rest when indent l > 2 ->
      (match acc with
       | (dir, text) :: older ->
         entries ((dir, text ^ "\n" ^ l) :: older) rest
       | [] -> entries acc rest)
    | _ :: rest -> entries acc rest
  in
  entries [] (to_lib (to_heading lines))

let is_ident = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* [word] occurs in [text] with no identifier character before it
   and, if [whole], none after it. *)
let occurs ~whole text word =
  let n = String.length word and m = String.length text in
  let rec go i =
    i + n <= m
    && ((String.sub text i n = word
         && (i = 0 || not (is_ident text.[i - 1]))
         && ((not whole) || i + n = m || not (is_ident text.[i + n])))
        || go (i + 1))
  in
  go 0

(* [word] occurs in [text] as a whole identifier. *)
let names = occurs ~whole:true

(* The .ml files under lib/, as (directory, file name) in sorted
   order. *)
let lib_sources root =
  let lib = Filename.concat root "lib" in
  let listing dir = Sys.readdir dir |> Array.to_list |> List.sort compare in
  listing lib
  |> List.filter (fun d -> Sys.is_directory (Filename.concat lib d))
  |> List.concat_map (fun dir ->
      listing (Filename.concat lib dir)
      |> List.filter (fun file -> Filename.check_suffix file ".ml")
      |> List.map (fun file -> (dir, file)))

let module_map_names_every_module () =
  let root = root () in
  let entries =
    lib_entries
      (In_channel.with_open_bin (Filename.concat root "DESIGN.md")
         In_channel.input_all)
  in
  let missing =
    lib_sources root
    |> List.filter_map (fun (dir, file) ->
        let m = String.capitalize_ascii (Filename.chop_suffix file ".ml") in
        match List.assoc_opt dir entries with
        | Some text when names text m -> None
        | Some _ | None -> Some (Printf.sprintf "lib/%s: %s" dir m))
  in
  Alcotest.(check (list string)) "modules missing from DESIGN's map" []
    missing

(* OCaml 5.1.1's [Gc.full_major] spun forever once joined domains had
   left weak arrays behind, and the one weak structure, an enclosure
   ring, never evicted anything. *)
let lib_holds_no_weak_structure () =
  let root = root () in
  let uses =
    lib_sources root
    |> List.concat_map (fun (dir, file) ->
        let path = Printf.sprintf "lib/%s/%s" dir file in
        let text =
          In_channel.with_open_bin (Filename.concat root path)
            In_channel.input_all
        in
        List.filter_map
          (fun m ->
             if occurs ~whole:false text (m ^ ".") then
               Some (Printf.sprintf "%s uses %s." path m)
             else None)
          [ "Weak"; "Ephemeron" ])
  in
  if uses <> [] then
    Alcotest.failf
      "%s\nlib/ keeps no weak structure: DESIGN.md §2, \"Decision: no weak \
       enclosure ring\""
      (String.concat "\n" uses)

let suite =
  [ ( "design",
      [ Alcotest.test_case "module map names every lib module" `Quick
          module_map_names_every_module;
        Alcotest.test_case "lib holds no weak structure" `Quick
          lib_holds_no_weak_structure ] ) ]
