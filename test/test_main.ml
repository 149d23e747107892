(* Must run before anything else: when the socket transport re-execs
   this binary as a server child, [child_check] serves and exits
   instead of running the test harness. *)
let () = Regemu_live.Transport_socket.child_check ()

let () =
  Alcotest.run "regemu"
    (Suite_bounds.suites @ Suite_objects.suites @ Suite_sim.suites
   @ Suite_history.suites @ Suite_core.suites @ Suite_emulations.suites
   @ Suite_adversary.suites @ Suite_workload.suites @ Suite_harness.suites
   @ Suite_regularity.suites @ Suite_stats.suites @ Suite_impossibility.suites @ Suite_fuzz.suites @ Suite_netsim.suites @ Suite_mcheck.suites @ Suite_wellformed.suites @ Suite_misc.suites @ Suite_tree_maxreg.suites @ Suite_invariants.suites @ Suite_replay.suites @ Suite_rwb.suites @ Suite_kv.suites @ Suite_ablation.suites @ Suite_props.suites @ Suite_alg2net.suites @ Suite_edges.suites @ Suite_leaderboard.suites @ Suite_regemu.suites @ Suite_net_explore.suites @ Suite_live.suites @ Suite_chaos.suites @ Suite_gray.suites @ Suite_dst.suites
   @ Suite_obs.suites @ Suite_keyspace.suites @ Suite_backend.suites
   @ Suite_explore.suites @ Suite_cds.suites)
