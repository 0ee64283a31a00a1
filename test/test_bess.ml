(* Test runner: one alcotest binary aggregating every module's suite. *)
let () =
  Alcotest.run "bess"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("json", Test_json.suite);
      ("span", Test_span.suite);
      ("series", Test_series.suite);
      ("mrc", Test_mrc.suite);
      ("vmem", Test_vmem.suite);
      ("buddy", Test_buddy.suite);
      ("storage", Test_storage.suite);
      ("wal", Test_wal.suite);
      ("lock", Test_lock.suite);
      ("cache", Test_cache.suite);
      ("largeobj", Test_lob.suite);
      ("session", Test_session.suite);
      ("file_reorg", Test_file_reorg.suite);
      ("server", Test_server.suite);
      ("modes", Test_modes.suite);
      ("vlarge_hooks", Test_vlarge_hooks.suite);
      ("net_remote", Test_net_remote.suite);
      ("catalog_codec", Test_catalog_codec.suite);
      ("persistence", Test_persistence.suite);
      ("session_depth", Test_session_depth.suite);
      ("client_logging", Test_client_logging.suite);
      ("object_locking", Test_object_locking.suite);
      ("session_model", Test_session_model.suite);
      ("relational", Test_relational.suite);
      ("btree", Test_btree.suite);
      ("crash_points", Test_crash_points.suite);
      ("chaos", Test_chaos.suite);
      ("sched", Test_sched.suite);
      ("critpath", Test_critpath.suite);
      ("shard", Test_shard.suite);
      ("shard_chaos", Test_shard_chaos.suite);
      ("oracle", Test_oracle.suite);
    ]
