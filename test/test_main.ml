let () =
  Alcotest.run "chc"
    (Test_bigint.suite @ Test_q.suite @ Test_vec.suite @ Test_linsys.suite
     @ Test_lp.suite @ Test_hull2d.suite @ Test_hullnd.suite
     @ Test_polytope.suite @ Test_distance.suite @ Test_tverberg.suite
     @ Test_runtime.suite @ Test_transport.suite @ Test_stable_vector.suite
     @ Test_bounds.suite
     @ Test_cc.suite @ Test_analysis.suite @ Test_vector_consensus.suite
     @ Test_optimize.suite @ Test_ablation.suite @ Test_codec.suite @ Test_combin.suite @ Test_viz.suite
     @ Test_parallel.suite @ Test_obs.suite @ Test_fuzz.suite
     @ Test_filter.suite @ Test_poly_engine.suite @ Test_grid.suite
     @ Test_wal.suite @ Test_serve.suite @ Test_design.suite
     (* last: every worker domain the suites spawned has been joined *)
     @ Test_parallel.workers_joined)
