(* read_ground: independent single-flight streams of the Figure 8/9
   mix — entangled bookings with a share of Collapse seat reads, then a
   final [ground_all] — each stream single-threaded over an in-memory WAL.

   Why: it is the workload where reads collapse part of the pending set
   and the final grounding runs the soft-constraint (adjacency) search.

   Size: streams are 8 rows (12 couples, 24 users for 24 seats).  With
   at most 12 optional constraints per flight the soft search is the
   exhaustive subset sweep, whose cost stays small on every seed tried
   (4,000 streams: at most 17,160 grounding nodes, 0.19 s).  From 13
   couples up it is the greedy drop-one descent, whose cost is
   heavy-tailed: at 10 rows, one stream in 4,000 grounds for 5.6 s, and
   at 14 rows a few percent run past a second.  Any time cap on that
   tail fails streams by host speed, so two sets of runs cannot agree on
   the failures; the benchmark keeps to the size on which no operation
   fails.

   Each stream still runs in a child process that the benchmark kills
   at [cap_s] — a guard against a change that makes grounding hang, far
   above any stream seen — and a capped stream counts all its
   operations as failed.  Streams run [parallel] at a time (one per
   core: on a small shared host a lone busy core's speed drifts far more
   from run to run than two busy ones').  Every stream's seed comes from
   the run seed and its index.

   Checks: every Collapse read's answer equals that user's final
   booking (a collapsed value never moves), and no seat is booked
   twice. *)

module Qdb = Quantum.Qdb
module Store = Relational.Store
module Runner = Workload.Runner
module Travel = Workload.Travel

let rows = 8
let read_fraction = 0.2
let cap_s = 10.0
let parallel = 2

let spec seed =
  {
    Runner.geometry = { Workload.Flights.flights = 1; rows_per_flight = rows; dest = "LA" };
    order = Travel.Random_order;
    seed;
    read_fraction;
    pairs_per_flight = rows * 3 / 2;
  }

(* What a finished stream sends back to the parent. *)
type stream = {
  setup_s : float;
  submit_s : float array;
  read_s : float array;
  ground_s : float;
  ops : int;
  overloaded : int;  (** Overloaded verdicts and Engine_overloaded reads *)
  reads_match : bool;
  no_double_booking : bool;
  counts_add_up : bool;
  coordinated : int;
  possible : int;
  peak_mb : float;  (** peak resident set above the size the process forked at *)
  (* traced streams only *)
  engine : Quantum.Metrics.t;
  nodes : (string * int) list;  (** solver nodes per call kind *)
  busy_ns : (string * int) list;  (** time inside the calls per kind *)
  minor_words : float;
  gc_minor : int;
  gc_major : int;
  self : (string * float) list;
  op_wall_s : float;
  wal_appends : int;
  wal_bytes : int;
  wal_flushes : int;
  flush_s : float array;
  committed : int;
}

let kinds = [ "submit"; "read"; "ground" ]

let run_stream ~trace ~seed =
  let rss0 = Stats.status_mb "VmRSS" in
  let track = if trace then Some (Spans.track ()) else None in
  let gc0 = Gc.quick_stat () in
  let spec = spec seed in
  let ops, users = Runner.build_ops spec (Workload.Prng.create seed) in
  let t_setup = Spans.now () in
  let probe, backend = Wal_probe.wrap ?track (Relational.Wal.mem_backend ()) in
  let store = Workload.Flights.fresh_store ~backend spec.Runner.geometry in
  let qdb = Qdb.create ~config:Qdb.default_config store in
  let setup_s = Obs.Mclock.elapsed_s t_setup in
  let submit_s = Stats.create () and read_s = Stats.create () in
  let nodes = Hashtbl.create 3 and busy = Hashtbl.create 3 in
  let minor_words = ref 0. and op_wall = ref 0. in
  let bump tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  (* One engine call, timed; traced streams add a span and the solver
     node and minor-word deltas. *)
  let call kind f =
    let st = (Qdb.metrics qdb).Quantum.Metrics.solver_stats in
    let n0 = st.Solver.Backtrack.nodes and w0 = Gc.minor_words () and t0 = Spans.now () in
    let r =
      match track with
      | None -> f ()
      | Some tr -> Spans.time tr "core" f
    in
    let dt = Obs.Mclock.elapsed_ns t0 in
    op_wall := !op_wall +. (Int64.to_float dt *. 1e-9);
    if trace then begin
      minor_words := !minor_words +. (Gc.minor_words () -. w0);
      bump nodes kind (st.Solver.Backtrack.nodes - n0);
      bump busy kind (Int64.to_int dt)
    end;
    (r, Int64.to_float dt *. 1e-9)
  in
  let committed = ref 0 and rejected = ref 0 and overloaded = ref 0 in
  let answers = ref [] in
  List.iter
    (function
      | Runner.Book u ->
        let r, dt = call "submit" (fun () -> Qdb.submit qdb (Travel.entangled_txn u)) in
        Stats.add submit_s dt;
        (match r with
         | Qdb.Committed _ -> incr committed
         | Qdb.Rejected _ -> incr rejected
         | Qdb.Overloaded _ -> incr overloaded)
      | Runner.Read_seat u ->
        (match call "read" (fun () -> Qdb.read ~policy:Qdb.Collapse qdb (Travel.seat_query u)) with
         | rows, dt ->
           Stats.add read_s dt;
           answers := (u, rows) :: !answers
         | exception Qdb.Engine_overloaded _ -> incr overloaded))
    ops;
  let (), ground_s = call "ground" (fun () -> ignore (Qdb.ground_all qdb)) in
  let db = Store.db store in
  let booked u =
    match Workload.Flights.booking_of db u.Travel.name with
    | Some (f, s) -> [ Relational.Tuple.of_list [ Relational.Value.Int f; Relational.Value.Int s ] ]
    | None -> []
  in
  let mt = Qdb.metrics qdb in
  let coordinated, possible = Booking_check.coordination spec.Runner.geometry db users in
  let gc1 = Gc.quick_stat () in
  let assoc tbl = List.map (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt tbl k))) kinds in
  {
    setup_s;
    submit_s = Array.sub submit_s.Stats.data 0 (Stats.count submit_s);
    read_s = Array.sub read_s.Stats.data 0 (Stats.count read_s);
    ground_s;
    ops = List.length ops + 1;
    overloaded = !overloaded;
    reads_match =
      List.for_all (fun (u, rows) -> List.equal Relational.Tuple.equal rows (booked u)) !answers;
    no_double_booking = Booking_check.no_double_booking db;
    counts_add_up =
      mt.Quantum.Metrics.committed + mt.Quantum.Metrics.rejected + mt.Quantum.Metrics.overloaded
      = mt.Quantum.Metrics.submitted
      && mt.Quantum.Metrics.committed = !committed;
    coordinated;
    possible;
    peak_mb = Stats.peak_rss_mb () -. rss0;
    engine = mt;
    nodes = assoc nodes;
    busy_ns = assoc busy;
    minor_words = !minor_words;
    gc_minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    self =
      (match track with
       | None -> []
       | Some tr ->
         let self = Spans.self_times [ tr ] in
         [ ("core", self "core"); ("wal", self "wal") ]);
    op_wall_s = !op_wall;
    wal_appends = probe.Wal_probe.appends;
    wal_bytes = probe.Wal_probe.bytes;
    wal_flushes = probe.Wal_probe.flushes;
    flush_s = Array.sub probe.Wal_probe.flush_s.Stats.data 0 (Stats.count probe.Wal_probe.flush_s);
    committed = !committed;
  }

type pass = {
  streams : stream list;
  capped : int list;  (** indexes of streams killed at the cap *)
  attempted : int;
  wall_s : float;
}

let stream_seed seed i = (seed * 104729) + i

(* Streams, [parallel] at a time, until [seconds] have passed (at least
   one). *)
let run_pass ~trace ~seed ~seconds =
  let start = Spans.now () in
  let n_ops i =
    let seed = stream_seed seed i in
    List.length (fst (Runner.build_ops (spec seed) (Workload.Prng.create seed))) + 1
  in
  let rec go next running streams capped attempted =
    if List.length running < parallel && (next = 0 || Obs.Mclock.elapsed_s start < seconds) then
      let job = Child.spawn ~cap_s (fun () -> run_stream ~trace ~seed:(stream_seed seed next)) in
      go (next + 1) ((job, next) :: running) streams capped attempted
    else if running = [] then { streams; capped; attempted; wall_s = Obs.Mclock.elapsed_s start }
    else
      let job, result = (Child.wait_any (List.map fst running) : Child.job * stream option) in
      let i = List.assq job running in
      let running = List.filter (fun (j, _) -> j != job) running in
      match result with
      | Some s -> go next running (s :: streams) capped (attempted + n_ops i)
      | None -> go next running streams (i :: capped) (attempted + n_ops i)
  in
  go 0 [] [] [] 0

let samples f p =
  let s = Stats.create () in
  List.iter (fun st -> Array.iter (Stats.add s) (f st)) p.streams;
  s

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let layers p ~overhead_pct =
  let mt = Quantum.Metrics.create () in
  List.iter (fun s -> Quantum.Metrics.merge ~into:mt s.engine) p.streams;
  let of_kind field k = sum (fun s -> List.assoc k (field s)) p.streams in
  let busy k = float_of_int (of_kind (fun s -> s.busy_ns) k) *. 1e-9 in
  let nodes = sum (fun s -> sum snd s.nodes) p.streams in
  let busy_all = busy "submit" +. busy "read" +. busy "ground" in
  let per_node x = if nodes = 0 then 0. else x /. float_of_int nodes in
  let self l = sumf (fun s -> List.assoc l s.self) p.streams in
  let op_wall = sumf (fun s -> s.op_wall_s) p.streams in
  let flush = samples (fun s -> s.flush_s) p in
  let committed = sum (fun s -> s.committed) p.streams in
  let cache = mt.Quantum.Metrics.cache_stats and solver = mt.Quantum.Metrics.solver_stats in
  let hits = cache.Solver.Cache.extension_hits and full = cache.Solver.Cache.full_solves in
  let m = Report.m in
  let count name v = m name "count" (float_of_int v) in
  [ count "core.submit.count" mt.Quantum.Metrics.submitted;
    m "core.submit.busy_s" "s" (busy "submit");
    count "core.read.count" mt.Quantum.Metrics.reads;
    m "core.read.busy_s" "s" (busy "read");
    count "core.ground.count" (List.length p.streams);
    m "core.ground.busy_s" "s" (busy "ground");
    count "core.forced_groundings" mt.Quantum.Metrics.forced_groundings;
    count "core.governor.retries" mt.Quantum.Metrics.governor_retries;
    count "core.overloaded" mt.Quantum.Metrics.overloaded;
    count "solver.nodes.submit" (of_kind (fun s -> s.nodes) "submit" + of_kind (fun s -> s.nodes) "read");
    count "solver.nodes.ground" (of_kind (fun s -> s.nodes) "ground");
    count "solver.candidates" solver.Solver.Backtrack.candidates;
    count "solver.backtracks" solver.Solver.Backtrack.backtracks;
    m "solver.ns_per_node" "ns" (per_node (busy_all *. 1e9));
    m "solver.words_per_node" "words" (per_node (sumf (fun s -> s.minor_words) p.streams));
    m "cache.hit_ratio" "ratio"
      (if hits + full = 0 then 0. else float_of_int hits /. float_of_int (hits + full));
    count "gc.minor_collections" (sum (fun s -> s.gc_minor) p.streams);
    count "gc.major_collections" (sum (fun s -> s.gc_major) p.streams);
    m "gc.minor_words" "words" (sumf (fun s -> s.minor_words) p.streams);
    count "wal.append.count" (sum (fun s -> s.wal_appends) p.streams);
    m "wal.bytes_per_commit" "B"
      (if committed = 0 then 0. else float_of_int (sum (fun s -> s.wal_bytes) p.streams) /. float_of_int committed);
    count "wal.fsync.count" (sum (fun s -> s.wal_flushes) p.streams);
    m "wal.fsync.busy_s" "s" (Stats.sum flush);
    m ~detail:(Stats.describe flush) "wal.fsync_us.p50" "us" (Stats.median flush *. 1e6);
    m "self.core_pct" "%" (Report.pct (self "core") op_wall);
    m "self.wal_pct" "%" (Report.pct (self "wal") op_wall);
    m "self.residual_pct" "%" (Report.pct (op_wall -. self "core" -. self "wal") op_wall);
    m "trace.overhead_pct" "%" overhead_pct;
  ]

let run ~seed ~seconds ~trace =
  let p = run_pass ~trace:false ~seed ~seconds:(if trace then seconds /. 2. else seconds) in
  let submits = samples (fun s -> s.submit_s) p and reads = samples (fun s -> s.read_s) p in
  let layers =
    if not trace then []
    else
      let t = run_pass ~trace:true ~seed ~seconds:(seconds /. 2.) in
      let overhead = (Stats.median (samples (fun s -> s.submit_s) t) /. Stats.median submits) -. 1. in
      layers t ~overhead_pct:(100. *. overhead)
  in
  let n_capped = List.length p.capped in
  let n_streams = List.length p.streams + n_capped in
  let failed =
    (p.attempted - sum (fun s -> s.ops) p.streams) + sum (fun s -> s.overloaded) p.streams
  in
  let completed = p.attempted - failed in
  (* A capped stream's grounding took longer than [cap_s]: rank it above
     every finished one. *)
  let ground =
    Stats.of_list
      (List.map (fun s -> s.ground_s) p.streams @ List.map (fun _ -> Float.infinity) p.capped)
  in
  let coordinated = sum (fun s -> s.coordinated) p.streams
  and possible = sum (fun s -> s.possible) p.streams in
  let setup = Stats.of_list (List.map (fun s -> s.setup_s) p.streams) in
  let peak = Stats.of_list (List.map (fun s -> s.peak_mb) p.streams) in
  let e2e =
    [ Report.m ~detail:(Printf.sprintf "median of %d set-ups" (Stats.count setup)) "setup_s" "s"
        (Stats.median setup);
      Report.m
        ~detail:
          (Printf.sprintf
             "mean over finished streams of each stream process's peak resident set above its \
              size at fork (a mean, as the sizes come in a few heap-growth steps); median %.2f MB, \
              largest %.1f MB"
             (Stats.median peak) (Stats.percentile peak 1.))
        "mem_peak_mb" "MB"
        (Stats.sum peak /. float_of_int (Stats.count peak));
      Report.m
        ~detail:
          (Printf.sprintf
             "median over %d streams of operations per second inside engine calls, capped streams \
              reading 0; overall %d completed operations in %.3f s"
             n_streams completed p.wall_s)
        "ops_per_s" "1/s"
        (Stats.median
           (Stats.of_list
              (List.map (fun s -> float_of_int s.ops /. s.op_wall_s) p.streams
              @ List.map (fun _ -> 0.) p.capped)));
    ]
    @ Report.latency "submit" submits
    @ Report.latency "read" reads
    @ [ Report.m
          ~detail:
            (Printf.sprintf "median per stream, capped streams ranked slowest (a median past the cap reads as the cap); %s"
               (Stats.describe ~scale:1. ~unit:"s" ground))
          "ground_s" "s"
          (Float.min cap_s (Stats.median ground));
        Report.m
          ~detail:(Printf.sprintf "%d of %d users, finished streams" coordinated possible)
          "coordination_pct" "%"
          (Report.pct (float_of_int coordinated) (float_of_int possible));
        Report.m
          ~detail:(Printf.sprintf "%d of %d operations; %d of %d streams capped" failed p.attempted n_capped n_streams)
          "failed_pct" "%"
          (Report.pct (float_of_int failed) (float_of_int p.attempted));
      ]
  in
  {
    Report.attempted = p.attempted;
    failed;
    checks =
      [ ("committed + rejected + overloaded = submitted", List.for_all (fun s -> s.counts_add_up) p.streams);
        ("every Collapse read equals the user's final booking", List.for_all (fun s -> s.reads_match) p.streams);
        ("no seat booked twice", List.for_all (fun s -> s.no_double_booking) p.streams);
      ];
    e2e;
    layers;
    notes =
      [ Printf.sprintf
          "read_ground: single-flight streams of %d rows (%d users), read share %.2f (Collapse), final \
           ground_all, in-memory WAL synced every batch, one child process per stream, %d at a time, capped \
           at %.1f s"
          rows (3 * rows) read_fraction parallel cap_s;
        Printf.sprintf "  %d streams, %d capped (indexes %s)" n_streams n_capped
          (String.concat "," (List.rev_map string_of_int p.capped));
      ];
  }
