(* The engine's end-to-end benchmark.

     main.exe --workload admit_deep|read_ground|net_open --seed N
              --seconds S --trace 0|1

   Each workload is generated here from the seed; the engine only sees
   the generated inputs.  An untraced run (--trace 0) prints every
   end-to-end metric with its unit and sample count, checks the
   workload's outputs, and ends with one JSON line holding the
   end-to-end metrics that every workload defines.  A traced run
   (--trace 1) first repeats the untraced measurement on half the time,
   then measures again with spans recorded around the benchmark's own
   calls into each layer (nothing inside the engine is traced; Obs.Trace
   stays off), and its JSON line holds the per-layer metrics.  Any
   failed correctness check prints the failure and exits 1 without a
   JSON line.  See BENCHMARK.json for why each workload was chosen. *)

(* The end-to-end metrics of an untraced run's JSON line: those every
   workload defines and that repeat closely enough across seeds to bound
   a regression.  The rest are printed only: read and reject latency,
   ground_s, max_rate_hz, recover_s and failed_pct exist on some
   workloads only, and on a shared two-core host submit_p99_us (fsync
   tails behind the TCP front door) spreads by 40-65% from seed to
   seed. *)
let e2e_metrics = [ "setup_s"; "mem_peak_mb"; "ops_per_s"; "submit_p50_us"; "coordination_pct" ]

(* Per-layer metrics of a traced run, with units.  A layer a workload
   does not exercise reads 0 there (e.g. actor.* outside admit_deep). *)
let layer_metrics =
  [ ("core.submit.count", "count"); ("core.submit.busy_s", "s"); ("core.read.count", "count");
    ("core.read.busy_s", "s"); ("core.ground.count", "count"); ("core.ground.busy_s", "s");
    ("core.forced_groundings", "count"); ("core.governor.retries", "count");
    ("core.overloaded", "count"); ("solver.nodes.submit", "count");
    ("solver.nodes.ground", "count"); ("solver.candidates", "count");
    ("solver.backtracks", "count"); ("solver.ns_per_node", "ns");
    ("solver.words_per_node", "words"); ("cache.hit_ratio", "ratio"); ("actor.busy_s", "s");
    ("actor.messages", "count"); ("actor.wait_us.p50", "us"); ("actor.wait_us.p99", "us");
    ("actor.busy_over_wall", "ratio"); ("gc.minor_collections", "count");
    ("gc.major_collections", "count"); ("gc.minor_words", "words");
    ("wal.append.count", "count"); ("wal.bytes_per_commit", "B"); ("wal.fsync.count", "count");
    ("wal.fsync.busy_s", "s"); ("wal.fsync_us.p50", "us"); ("wal.replay.records", "count");
    ("net.group_commit.batches", "count"); ("net.group_commit.mean_batch", "count");
    ("net.outside_core_us.p50", "us"); ("net.outside_core_us.p99", "us");
    ("gen.late_us.p99", "us"); ("self.actor_pct", "%"); ("self.core_pct", "%");
    ("self.wal_pct", "%"); ("self.net_pct", "%"); ("self.residual_pct", "%");
    ("trace.overhead_pct", "%");
  ]

let workloads =
  [ ("admit_deep", Admit_deep.run); ("read_ground", Read_ground.run); ("net_open", Net_open.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload admit_deep|read_ground|net_open --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match List.assoc_opt !workload workloads, !seed, !seconds, !trace with
  | Some run, Some seed, Some seconds, Some trace when seconds > 0. -> (!workload, run, seed, seconds, trace)
  | _ -> usage ()

let json_number v =
  if not (Float.is_finite v) then failwith "e2ebench: a metric is not a finite number"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let () =
  let name, run, seed, seconds, trace = parse_args () in
  let server = Net.Server.default_config and engine = Quantum.Qdb.default_config in
  Printf.printf
    "e2ebench %s: seed %d, %g s, trace %b; host nproc %d, OCaml %s; engine default config (k %d, \
     cache_capacity %d, node_limit %d, incremental %b); server default config (domains %d, \
     max_batch %d, session_buffer %d, engine_queue %d)\n%!"
    name seed seconds trace (Domain.recommended_domain_count ()) Sys.ocaml_version
    engine.Quantum.Qdb.k engine.Quantum.Qdb.cache_capacity engine.Quantum.Qdb.node_limit
    engine.Quantum.Qdb.incremental server.Net.Server.domains server.Net.Server.max_batch
    server.Net.Server.session_buffer server.Net.Server.engine_queue;
  let r : Report.t = run ~seed ~seconds ~trace in
  List.iter print_endline r.Report.notes;
  let print (m : Report.metric) =
    Printf.printf "  %-26s %14.6g %-6s %s\n" m.Report.name m.Report.value m.Report.unit m.Report.detail
  in
  print_endline "end-to-end (untraced):";
  List.iter print r.Report.e2e;
  Printf.printf "  operations: %d attempted, %d failed\n" r.Report.attempted r.Report.failed;
  if trace then begin
    print_endline "per layer (traced):";
    List.iter print r.Report.layers
  end;
  print_endline "checks:";
  List.iter (fun (c, ok) -> Printf.printf "  [%s] %s\n" (if ok then "ok" else "FAIL") c) r.Report.checks;
  if not (List.for_all snd r.Report.checks) then begin
    prerr_endline "e2ebench: correctness check failed";
    exit 1
  end;
  let find names list =
    List.map
      (fun (n, unit) ->
        match List.find_opt (fun (m : Report.metric) -> m.Report.name = n) list with
        | Some m -> (n, m.Report.value, m.Report.unit)
        | None when trace -> (n, 0., unit)
        | None -> failwith ("workload did not report " ^ n))
      names
  in
  let metrics =
    if trace then begin
      List.iter
        (fun (m : Report.metric) ->
          if not (List.mem_assoc m.Report.name layer_metrics) then
            failwith ("unknown per-layer metric " ^ m.Report.name))
        r.Report.layers;
      find layer_metrics r.Report.layers
    end
    else find (List.map (fun n -> (n, "")) e2e_metrics) r.Report.e2e
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.Report.attempted r.Report.failed
    (String.concat ", "
       (List.map
          (fun (n, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) unit)
          metrics))
