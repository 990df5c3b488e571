(* Workload names and every metric the benchmark reports, with units.
   BENCHMARK.json at the repository root states the same lists (plus
   bounds); the unit tests keep the two in step. *)

let workloads = [ "edit"; "browse"; "mixed"; "evolve"; "replicate" ]

(* Gated: reported on every workload without tracing, each with a
   bound in BENCHMARK.json. *)
let end_to_end = [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("disk_mb", "MB") ]

(* Timings of the workload's primary operation: the edit (edit), the
   read (browse), any request (mixed), the retraction (evolve) or the
   read-your-writes round (replicate).  Their spread over seeds is above
   the bound rule's 20% limit, so they are printed on every run and
   reported with the per-layer metrics, but not gated. *)
let diagnostics = [ ("ops_s", "1/s"); ("p50_ms", "ms"); ("p90_ms", "ms") ]

(* Reported with [--trace 1]: the diagnostics of the untraced pass,
   then the traced pass.  A [_us] layer metric is the layer's self time
   per call; it is 0 where a workload bypasses the layer. *)
let per_layer =
  diagnostics
  @ [
      ("trace.op_us", "us");
      ("trace.sampled_pct", "%");
      ("trace.overhead_pct", "%");
      ("wire.queue_us", "us");
      ("daemon.self_us", "us");
      ("shell.focus_us", "us");
      ("shell.why_us", "us");
      ("shell.history_us", "us");
      ("shell.menu_us", "us");
      ("shell.source_us", "us");
      ("shell.derive_us", "us");
      ("shell.stats_us", "us");
      ("shell.config_us", "us");
      ("shell.deps_us", "us");
      ("shell.run_us", "us");
      ("shell.other_us", "us");
      ("decision.check_inputs_us", "us");
      ("decision.tool_run_us", "us");
      ("decision.check_outputs_us", "us");
      ("decision.bookkeeping_us", "us");
      ("decision.consistency_check_us", "us");
      ("decision.commit_us", "us");
      ("decision.self_us", "us");
      ("wal.append_us", "us");
      ("durable.checkpoint_us", "us");
      ("backtrack.retract_us", "us");
      ("wal.fsync_us", "us");
      ("wal.fsyncs_per_decision", "count");
      ("wal.bytes_per_decision", "bytes");
      ("durable.checkpoints", "count");
      ("cache.hit_ratio", "ratio");
      ("kb.cache_hit_ratio", "ratio");
      ("prover.resolutions_per_derive", "count");
      ("backtrack.retract_us_per_decision", "us");
      ("backtrack.closure_size", "count");
      ("backtrack.cost_growth", "ratio");
      ("recover.s", "s");
      ("recover.wal_records", "count");
      ("recover.us_per_record", "us");
      ("recover.checkpoint_load_s", "s");
      ("repl.token_us", "us");
      ("repl.wait_us", "us");
      ("repl.visibility_lag_ms", "ms");
      ("repl.frames_per_write", "count");
      ("follower.peak_rss_mb", "MB");
    ]

(* The last line of standard output.  Every metric of the chosen table
   must be present in [values]. *)
let result_line ~trace ~correct ~attempted ~failed values =
  let table = if trace then per_layer else end_to_end in
  let metric (name, unit_) =
    match List.assoc_opt name values with
    | Some v -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ])
    | None -> invalid_arg ("Spec.result_line: no value for " ^ name)
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", Json.Obj (List.map metric table));
       ])
