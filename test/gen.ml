(* Shared QCheck generators for geometric tests. *)

module Q = Numeric.Q
module Vec = Geometry.Vec

let gen_small_q =
  let open QCheck.Gen in
  let* n = -20 -- 20 in
  let* d = 1 -- 8 in
  return (Q.of_ints n d)

let gen_vec dim = QCheck.Gen.map Array.of_list
    (QCheck.Gen.list_size (QCheck.Gen.return dim) gen_small_q)

let gen_int_vec dim =
  QCheck.Gen.map
    (fun l -> Vec.of_ints l)
    (QCheck.Gen.list_size (QCheck.Gen.return dim) QCheck.Gen.(-10 -- 10))

let gen_points ?(min_size = 1) ?(max_size = 8) dim =
  let open QCheck.Gen in
  let* n = min_size -- max_size in
  list_size (return n) (gen_vec dim)

let gen_int_points ?(min_size = 1) ?(max_size = 8) dim =
  let open QCheck.Gen in
  let* n = min_size -- max_size in
  list_size (return n) (gen_int_vec dim)

let print_points pts =
  String.concat " " (List.map Vec.to_string pts)

let arb_points ?min_size ?max_size dim =
  QCheck.make ~print:print_points (gen_points ?min_size ?max_size dim)

let arb_int_points ?min_size ?max_size dim =
  QCheck.make ~print:print_points (gen_int_points ?min_size ?max_size dim)

let arb_vec dim = QCheck.make ~print:Vec.to_string (gen_vec dim)

let qtest = QCheck_alcotest.to_alcotest
let prop ?(count = 200) name arb f = QCheck.Test.make ~count ~name arb f

(* [joins_global_pool test] runs [test], then replaces the global pool
   with a fresh one of the same size, which joins the worker domains
   the test made it spawn (multi-shard servers, fuzz campaigns). *)
let joins_global_pool test () =
  let size = Parallel.Pool.global_size () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_global_size size) test
