(* What the serving daemon keeps once a job is graded, read from live
   words after a full major collection. This suite runs in a process of
   its own, apart from test_main. Moved to the end of test_main's
   serve suite, with no worker domain alive, the first [Gc.full_major]
   below spun at full CPU and never returned in 4 of 4 runs at
   QCHECK_SEED=749112527, while the test alone takes a quarter of a
   second. *)

module Server = Serve.Server
module Workload = Serve.Workload

(* Live words before and after 60 more n6-d3 jobs are submitted,
   drained and graded. Grading builds each job's input hull, and a
   polytope engine that cached it would keep one certified dual per
   graded job until its table filled (about 870 words a job). Nothing
   a finished job built may stay reachable. *)
let graded_retention () =
  let server = Server.create ~shards:1 ~fuel:64 () in
  let shape = { Workload.n = 6; f = 1; d = 3; recover = false } in
  let rng = Runtime.Rng.create 17 in
  let next = ref 0 in
  let grade_jobs k =
    for _ = 1 to k do
      Server.submit server (Workload.job ~rng ~id:!next shape);
      incr next
    done;
    List.iter
      (fun o ->
         match Server.grade_count server o with
         | Ok () -> ()
         | Error e -> Alcotest.fail e)
      (Server.drain server)
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  grade_jobs 10;
  let before = live () in
  grade_jobs 60;
  let per_job = float_of_int (live () - before) /. 60. in
  if per_job > 100. then
    Alcotest.failf "%.0f live words retained per graded d=3 job (ratchet: 100)"
      per_job

let () =
  Alcotest.run "chc-retention"
    [ ( "serve",
        [ Alcotest.test_case "graded d=3 jobs retain nothing" `Quick
            graded_retention ] ) ]
