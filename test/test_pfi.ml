let () =
  Alcotest.run "pfi"
    [ ("engine", Engine_tests.suite);
      ("script", Script_tests.suite);
      ("stack", Stack_tests.suite);
      ("netsim", Netsim_tests.suite);
      ("core", Core_tests.suite);
      ("tcp", Tcp_tests.suite);
      ("tcp-features", Tcp_feature_tests.suite);
      ("gmp", Gmp_tests.suite);
      ("testgen", Testgen_tests.suite);
      ("fuzz", Fuzz_tests.suite);
      ("executor", Executor_tests.suite);
      ("repro", Repro_tests.suite);
      ("experiments", Conformance_tests.experiments_suite);
      ("scenario", Scenario_tests.suite);
      ("matrix", Matrix_tests.suite);
      ("cli-golden", Cli_golden_tests.suite);
      ("conformance", Conformance_tests.suite);
      ("properties", Property_tests.suite) ]
