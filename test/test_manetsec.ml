let () =
  Alcotest.run "manetsec"
    (Test_crypto.suites @ Test_ipv6.suites @ Test_sim.suites @ Test_proto.suites
   @ Test_binary.suites @ Test_dad_dns.suites @ Test_routing.suites
   @ Test_aodv.suites @ Test_faults.suites @ Test_integration.suites
   @ Test_obs.suites @ Test_audit.suites @ Test_manetcheck.suites
   @ Test_sweep.suites
   @ Test_scenario.suites @ Test_perf.suites @ Test_timeline.suites)
