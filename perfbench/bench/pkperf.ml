(* The repository benchmark: three closed-loop workloads, one seeded
   single-threaded client each, every result checked against the
   workload's own oracle.

     pkperf --workload <name|all> --seed N --seconds S --trace 0|1
            [--plant-wrong] [--out DIR]

   The untraced run prints each end-to-end metric that applies to the
   workload (value, unit, sample count); the traced run prints every
   per-layer metric with the end-to-end metric it should move, and
   writes its spans to DIR.  The last line of standard output is one
   JSON object: {"correct", "attempted", "failed", "metrics"}, where
   "metrics" holds [e2e_keys] (untraced) or every [layers] name
   (traced).  Exits 1 when any result was wrong, raised or refused. *)

open Common

let workloads =
  [ ("point-read-1m", Point_read.run); ("churn-pkT-journal", Churn.run); ("sharded-batch", Sharded.run) ]

(* The end-to-end metrics in the JSON result: the ones every workload
   has and that repeat within their bounds.  The others are printed for
   the workloads they apply to: lookup_p99_us (on sharded-batch its
   spread between runs exceeds any allowed bound), the insert, delete,
   scan and batch latencies, recover_s and failed_frac. *)
let e2e_keys = [ "setup_s"; "ops_per_s"; "lookup_p50_us"; "bytes_per_key" ]

(* Per-layer metric, unit, the end-to-end metric it should move, and
   the workloads on which it does.  Elsewhere its layer does little or
   no work and it reads 0 or near it. *)
let layers =
  let w1 = "point-read-1m" and w2 = "churn-pkT-journal" and w3 = "sharded-batch" and all = "all" in
  [
    ("ladder.bytes_ns", "ns", "lookup_p50_us", w1);
    ("ladder.bytes_words", "words", "lookup_p99_us", w1);
    ("ladder.arena_ns", "ns", "lookup_p50_us", w1);
    ("ladder.arena_words", "words", "lookup_p99_us", w1);
    ("ladder.mem_ns", "ns", "lookup_p50_us", w1);
    ("ladder.mem_words", "words", "lookup_p99_us", w1);
    ("ladder.mem_compare_ns", "ns", "lookup_p50_us", w1);
    ("ladder.mem_compare_words", "words", "lookup_p99_us", w1);
    ("records.compare_sign_ns", "ns", "lookup_p50_us", w1);
    ("records.compare_sign_words", "words", "lookup_p99_us", w1);
    ("records.derefs_per_lookup", "count", "lookup_p50_us", w1);
    ("records.insert_ns", "ns", "insert_p50_us", w2);
    ("partialkey.compare_ns", "ns", "lookup_p50_us", w1);
    ("partialkey.compare_words", "words", "lookup_p99_us", w1);
    ("partialkey.find_node_ns", "ns", "lookup_p50_us", w1);
    ("partialkey.find_node_words", "words", "lookup_p99_us", w1);
    ("index.lookup_ns", "ns", "lookup_p50_us", w1);
    ("index.lookup_words", "words", "lookup_p99_us", w1);
    ("index.visits_per_lookup", "count", "lookup_p50_us", w1);
    ("index.height", "count", "lookup_p50_us", w1);
    ("index.insert_ns", "ns", "insert_p50_us", w2);
    ("index.delete_ns", "ns", "delete_p50_us", w2);
    ("index.insert_words", "words", "insert_p99_us", w2);
    ("index.delete_words", "words", "delete_p99_us", w2);
    ("index.scan_ns_per_key", "ns", "scan_p50_us", w2);
    ("index.lookup_into_ns_per_key", "ns", "batch_p50_us", w3);
    ("index.insert_batch_ns_per_key", "ns", "batch_p50_us", w3);
    ("index.delete_batch_ns_per_key", "ns", "batch_p50_us", w3);
    ("index.of_sorted_s", "s", "setup_s", all);
    ("index.unwinds", "count", "failed_frac", all);
    ("journal.self_ns_per_op", "ns", "insert_p50_us", w2);
    ("journal.bytes_per_op", "B", "recover_s", w2);
    ("journal.commits", "count", "recover_s", w2);
    ("recover.total_s", "s", "recover_s", w2);
    ("recover.fold_s", "s", "recover_s", w2);
    ("recover.bulk_load_s", "s", "recover_s", w2);
    ("recover.tail_s", "s", "recover_s", w2);
    ("recover.store_insert_s", "s", "recover_s", w2);
    ("rebuild.recover_s", "s", "recover_s", w2);
    ("rebuild.tie_derefs", "count", "recover_s", w2);
    ("shard.self_us_per_batch", "us", "batch_p50_us", w3);
    ("shard.dispatch_us", "us", "batch_p50_us", w3);
    ("shard.imbalance", "ratio", "batch_p99_us", w3);
    ("shard.busy_frac", "frac", "ops_per_s", w3);
    ("obs.probe_count_loss", "count", "-", w3);
    ("shard.fanout1_ns_per_key_b64", "ns", "batch_p50_us", w3);
    ("shard.fanout2_ns_per_key_b64", "ns", "-", w3);
    ("shard.fanout1_ns_per_key_b4096", "ns", "batch_p50_us", w3);
    ("shard.fanout2_ns_per_key_b4096", "ns", "-", w3);
    ("cachesim.l2_per_lookup", "count", "lookup_p50_us", w1);
    ("cachesim.tlb_per_lookup", "count", "lookup_p50_us", w1);
    ("cachesim.sim_ns_per_lookup", "ns", "lookup_p50_us", w1);
    ("gc.minor_words_per_op", "words", "lookup_p99_us", all);
    ("gc.minor_gcs_per_kop", "count", "ops_per_s", all);
    ("gc.major_gcs", "count", "lookup_p99_us", all);
    ("gc.top_heap_mb", "MB", "bytes_per_key", all);
    ("trace.overhead_frac", "frac", "-", all);
  ]

let json_num v = Printf.sprintf "%.17g" v

let run_one ctx (name, run) =
  let o = run ctx in
  List.iter
    (fun m -> Printf.printf "e2e %s %s = %.6g %s (n=%d)\n" name m.name m.value m.unit m.samples)
    o.e2e;
  let metrics =
    if not ctx.trace then
      List.map
        (fun k ->
          match List.find_opt (fun m -> m.name = k) o.e2e with
          | Some m when Float.is_finite m.value -> (k, m.value, m.unit)
          | _ -> failwith (Printf.sprintf "%s: no value for %s" name k))
        e2e_keys
    else
      List.map
        (fun (k, unit, moves, on) ->
          let v = match List.assoc_opt k o.layer with Some v when Float.is_finite v -> v | _ -> 0. in
          Printf.printf "layer %s %s = %.6g %s (moves %s on %s)\n" name k v unit moves on;
          (k, v, unit))
        layers
  in
  (o.tally, List.map (fun (k, v, u) -> (name ^ "/" ^ k, k, v, u)) metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let plant = ref false and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced run with per-layer metrics");
      ("--plant-wrong", Arg.Set plant, " plant one wrong expectation (oracle self-test)");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pkperf --workload NAME --seed N --seconds S --trace 0|1";
  let chosen =
    if !workload = "all" then workloads
    else
      match List.assoc_opt !workload workloads with
      | Some run -> [ (!workload, run) ]
      | None ->
          prerr_endline ("pkperf: unknown workload " ^ !workload ^ "; one of: all, "
                         ^ String.concat ", " (List.map fst workloads));
          exit 2
  in
  let ctx =
    {
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      plant = !plant;
      out = (if !out = "" then None else Some !out);
    }
  in
  let results = List.map (run_one ctx) chosen in
  let attempted = List.fold_left (fun acc (t, _) -> acc + t.attempted) 0 results in
  let failed = List.fold_left (fun acc (t, _) -> acc + failed t) 0 results in
  let single = List.length chosen = 1 in
  let metrics =
    List.concat_map snd results
    |> List.map (fun (qualified, k, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" (if single then k else qualified) (json_num v) u)
  in
  (match ctx.out with
  | Some dir when ctx.trace ->
      let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.tsv" !workload !seed) in
      Span.write path;
      Printf.printf "spans: %d written to %s (%d dropped)\n" !Span.dump_len path (Span.dropped ())
  | _ -> ());
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" (failed = 0)
    attempted failed (String.concat ", " metrics);
  exit (if failed = 0 then 0 else 1)
