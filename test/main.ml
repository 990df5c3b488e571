let () =
  Alcotest.run "gkbms"
    [
      ("kernel", Test_kernel.suite);
      ("store", Test_store.suite);
      ("graph", Test_graph.suite);
      ("temporal", Test_temporal.suite);
      ("logic", Test_logic.suite);
      ("tms", Test_tms.suite);
      ("cml", Test_cml.suite);
      ("langs", Test_langs.suite);
      ("gkbms", Test_gkbms.suite);
      ("group", Test_group.suite);
      ("dbpl-eval", Test_dbpl_eval.suite);
      ("assertion", Test_assertion.suite);
      ("requirements", Test_requirements.suite);
      ("context", Test_context.suite);
      ("persist", Test_persist.suite);
      ("durability", Test_durability.suite);
      ("methodology", Test_methodology.suite);
      ("properties", Test_properties.suite);
      ("integration", Test_integration.suite);
      ("negotiation", Test_negotiation.suite);
      ("shell", Test_shell.suite);
      ("focus", Test_focus.suite);
      ("server", Test_server.suite);
      ("replication", Test_replication.suite);
      ("coverage", Test_coverage.suite);
      ("obs", Test_obs.suite);
      ("scaling", Test_scaling.suite);
    ]
