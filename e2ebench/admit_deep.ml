(* admit_deep: the Figure-7 entangled-booking stream (no reads) on
   partition actors over in-memory WAL stores.

   Why: it stresses deep-partition admission (composition, witness-cache
   extension, backtracking per node) and the multi-domain actor runtime,
   with no network and no disk.

   Shape: [slots] closed-loop clients, one per actor.  A client books one
   flight after another; each flight is a fresh store and engine built on
   its actor, filled by a seeded [Runner.build_ops] stream of [pairs]
   couples for [rows] rows of three seats (as many users as seats) in
   random arrival order, and closed by a [ground_all].  Pending sets
   reach a few dozen transactions per partition, deep enough for the
   solver to dominate, while a run still books a few hundred flights:
   per-flight cost varies a lot with the arrival order, and fewer,
   larger flights would make a run's figures depend on its seed.  A client posts its
   next booking only when the previous verdict is in, so each flight's
   outcomes are independent of timing.  Clients start new flights until
   the measuring time is up; each client's first flight is then run again
   on a fresh runtime and must reproduce its outcome counts and solver
   node count exactly. *)

module Qdb = Quantum.Qdb
module Store = Relational.Store
module Runner = Workload.Runner
module Travel = Workload.Travel
module Runtime = Actor.Runtime

let actors = 2
let slots = 2
let rows = 24
let pairs = 36
let geometry = { Workload.Flights.flights = 1; rows_per_flight = rows; dest = "LA" }

(* The users of one flight, in arrival order. *)
let stream seed =
  let spec =
    { Runner.geometry; pairs_per_flight = pairs; order = Travel.Random_order; read_fraction = 0.; seed }
  in
  let ops, _ = Runner.build_ops spec (Workload.Prng.create seed) in
  Array.of_list
    (List.map (function Runner.Book u -> u | Runner.Read_seat _ -> invalid_arg "no reads here") ops)

let users = Array.to_list (stream 0)

(* One flight's store and engine, born and used on its client's actor. *)
type flight = {
  store : Store.t;
  qdb : Qdb.t;
  probe : Wal_probe.t;
  track : Spans.track option;
  build_s : float;  (** store and engine build *)
  submit_s : Stats.t;  (** post until verdict *)
  wait_s : Stats.t;  (** post until the actor starts the task *)
  mutable committed : int;
  mutable rejected : int;
  mutable overloaded : int;
  mutable ground_s : float;
  mutable op_wall_ns : int;  (** post until done, over every task *)
  (* traced runs only *)
  mutable nodes_submit : int;
  mutable nodes_ground : int;
  mutable submit_ns : int;  (** inside Qdb.submit *)
  mutable ground_ns : int;  (** inside Qdb.ground_all *)
  mutable minor_words : float;  (** allocated inside those calls *)
}

let new_flight ~trace =
  let t0 = Spans.now () in
  let track = if trace then Some (Spans.track ()) else None in
  let probe, backend = Wal_probe.wrap ?track (Relational.Wal.mem_backend ()) in
  let store = Workload.Flights.fresh_store ~backend geometry in
  (* As in [Runner.run_actors]: the actor's batch-end hook owns syncing. *)
  Store.set_sync store Relational.Wal.Never;
  let qdb = Qdb.create ~config:Qdb.default_config store in
  {
    store;
    qdb;
    probe;
    track;
    build_s = Obs.Mclock.elapsed_s t0;
    submit_s = Stats.create ();
    wait_s = Stats.create ();
    committed = 0;
    rejected = 0;
    overloaded = 0;
    ground_s = 0.;
    op_wall_ns = 0;
    nodes_submit = 0;
    nodes_ground = 0;
    submit_ns = 0;
    ground_ns = 0;
    minor_words = 0.;
  }

(* A client's group state on its actor: the flight it is booking. *)
type slot = { mutable cur : flight option }

let current g = Option.get g.cur

(* One call into the engine; traced runs add a span and the solver-node
   and minor-word deltas around it. *)
let engine_call f ~ground call =
  match f.track with
  | None -> call ()
  | Some tr ->
    let st = (Qdb.metrics f.qdb).Quantum.Metrics.solver_stats in
    let n0 = st.Solver.Backtrack.nodes and w0 = Gc.minor_words () and t0 = Spans.now () in
    let r = Spans.time tr "core" call in
    let dt = Int64.to_int (Obs.Mclock.elapsed_ns t0) in
    f.minor_words <- f.minor_words +. (Gc.minor_words () -. w0);
    let dn = st.Solver.Backtrack.nodes - n0 in
    if ground then begin
      f.nodes_ground <- f.nodes_ground + dn;
      f.ground_ns <- f.ground_ns + dt
    end
    else begin
      f.nodes_submit <- f.nodes_submit + dn;
      f.submit_ns <- f.submit_ns + dt
    end;
    r

(* Everything a pass keeps from its flights; a flight's store and
   engine are dropped as soon as it has been folded in. *)
type acc = {
  submit_s : Stats.t;
  wait_s : Stats.t;
  ground_s : Stats.t;  (** per flight *)
  build_s : Stats.t;  (** per flight *)
  engine : Quantum.Metrics.t;  (** every flight's engine metrics, merged *)
  probe : Wal_probe.t;
  mutable flights : int;
  mutable wall_s : float;  (** the measuring window *)
  mutable elapsed_s : float;  (** until the last flight finished *)
  mutable window_ops : int;  (** bookings finished inside the window *)
  mutable last_counted : int64;  (** when the last of them finished *)
  mutable committed : int;
  mutable rejected : int;
  mutable overloaded : int;
  mutable coordinated : int;
  mutable possible : int;
  mutable counts_add_up : bool;
  mutable no_double_booking : bool;
  mutable all_grounded : bool;
  mutable nodes_submit : int;
  mutable nodes_ground : int;
  mutable submit_ns : int;
  mutable ground_ns : int;
  mutable minor_words : float;
  mutable op_wall_ns : int;
  mutable busy_ns : int;
  mutable messages : int;
  mutable live : int;
  mutable self : (string * float) list;  (** self seconds per traced layer *)
}

let fresh_acc () =
  {
    submit_s = Stats.create ();
    wait_s = Stats.create ();
    ground_s = Stats.create ();
    build_s = Stats.create ();
    engine = Quantum.Metrics.create ();
    probe = Wal_probe.create ();
    flights = 0;
    wall_s = 0.;
    elapsed_s = 0.;
    window_ops = 0;
    last_counted = 0L;
    committed = 0;
    rejected = 0;
    overloaded = 0;
    coordinated = 0;
    possible = 0;
    counts_add_up = true;
    no_double_booking = true;
    all_grounded = true;
    nodes_submit = 0;
    nodes_ground = 0;
    submit_ns = 0;
    ground_ns = 0;
    minor_words = 0.;
    op_wall_ns = 0;
    busy_ns = 0;
    messages = 0;
    live = 0;
    self = [];
  }

let traced_layers = [ "actor"; "core"; "wal" ]

let fold_flight acc f =
  let mt = Qdb.metrics f.qdb in
  let db = Store.db f.store in
  Stats.append ~into:acc.submit_s f.submit_s;
  Stats.append ~into:acc.wait_s f.wait_s;
  Stats.add acc.ground_s f.ground_s;
  Stats.add acc.build_s f.build_s;
  Quantum.Metrics.merge ~into:acc.engine mt;
  Wal_probe.add ~into:acc.probe f.probe;
  acc.committed <- acc.committed + f.committed;
  acc.rejected <- acc.rejected + f.rejected;
  acc.overloaded <- acc.overloaded + f.overloaded;
  let c, mx = Booking_check.coordination geometry db users in
  acc.coordinated <- acc.coordinated + c;
  acc.possible <- acc.possible + mx;
  acc.counts_add_up <-
    acc.counts_add_up
    && mt.Quantum.Metrics.committed + mt.Quantum.Metrics.rejected + mt.Quantum.Metrics.overloaded
       = mt.Quantum.Metrics.submitted
    && f.committed + f.rejected + f.overloaded = Stats.count f.submit_s
    && f.committed = mt.Quantum.Metrics.committed;
  acc.no_double_booking <- acc.no_double_booking && Booking_check.no_double_booking db;
  acc.all_grounded <-
    acc.all_grounded && Qdb.pending_count f.qdb = 0
    && List.length (Booking_check.bookings db) = f.committed;
  acc.nodes_submit <- acc.nodes_submit + f.nodes_submit;
  acc.nodes_ground <- acc.nodes_ground + f.nodes_ground;
  acc.submit_ns <- acc.submit_ns + f.submit_ns;
  acc.ground_ns <- acc.ground_ns + f.ground_ns;
  acc.minor_words <- acc.minor_words +. f.minor_words;
  acc.op_wall_ns <- acc.op_wall_ns + f.op_wall_ns;
  acc.flights <- acc.flights + 1;
  Option.iter
    (fun tr ->
      let self = Spans.self_times [ tr ] in
      acc.self <-
        List.map
          (fun l -> (l, Option.value ~default:0. (List.assoc_opt l acc.self) +. self l))
          traced_layers)
    f.track

let flight_seed seed slot j = (seed * 7919) + (j * slots) + slot

(* Slot keys spread evenly over the live actors. *)
let slot_keys rt =
  let live = Runtime.live rt in
  let rec pick k acc =
    if List.length acc = slots then List.rev acc
    else
      let owner = Runtime.owner rt ~key:k in
      let mine = List.length (List.filter (fun k' -> Runtime.owner rt ~key:k' = owner) acc) in
      pick (k + 1) (if mine < slots / live then k :: acc else acc)
  in
  Array.of_list (pick 0 [])

let create_runtime () =
  let rt =
    Runtime.create
      ~on_batch_end:(fun g -> Option.iter (fun f -> Store.sync f.store) g.cur)
      ~actors ~make:(fun _ -> { cur = None }) ()
  in
  let keys = slot_keys rt in
  Array.iter (fun k -> Runtime.post rt ~key:k ignore) keys;
  Runtime.drain rt;
  (rt, keys)

(* Actor spawn: a runtime started (every slot's group made on its actor)
   and shut down, timed nine times; the median counts. *)
let spawn_s () =
  let one () =
    let t0 = Spans.now () in
    let rt, _ = create_runtime () in
    let dt = Obs.Mclock.elapsed_s t0 in
    Runtime.shutdown rt;
    dt
  in
  Stats.median (Stats.of_list (List.init 9 (fun _ -> one ())))

type event =
  | Ready of int  (** a slot's previous task is done *)
  | Flight_done of int * flight
  | Failed of exn  (** a task raised; the run stops instead of waiting for it *)

(* Run every client until [more ~slot j] says not to start flight [j];
   returns each slot's first-flight digest (outcome counts and solver
   nodes).  [acc] gets every finished flight; submissions finished by
   [deadline] count toward [acc.window_ops]. *)
let drive acc ~trace ~seed ~more ~deadline =
  let rt, keys = create_runtime () in
  Fun.protect ~finally:(fun () -> Runtime.shutdown rt) @@ fun () ->
  let events = Queue.create () and m = Mutex.create () and c = Condition.create () in
  let signal e =
    Mutex.lock m;
    Queue.push e events;
    Condition.signal c;
    Mutex.unlock m
  in
  let task posted g work =
    let f = current g in
    let t_start = Spans.now () in
    Option.iter (fun tr -> Spans.record tr "actor" posted t_start) f.track;
    Stats.add f.wait_s (Int64.to_float (Int64.sub t_start posted) *. 1e-9);
    work f;
    let dt = Int64.sub (Spans.now ()) posted in
    f.op_wall_ns <- f.op_wall_ns + Int64.to_int dt;
    Int64.to_float dt *. 1e-9
  in
  let book u slot posted g =
    let dt =
      task posted g (fun f ->
          match engine_call f ~ground:false (fun () -> Qdb.submit f.qdb (Travel.entangled_txn u)) with
          | Qdb.Committed _ -> f.committed <- f.committed + 1
          | Qdb.Rejected _ -> f.rejected <- f.rejected + 1
          | Qdb.Overloaded _ -> f.overloaded <- f.overloaded + 1)
    in
    Stats.add (current g).submit_s dt;
    signal (Ready slot)
  in
  let ground slot posted g =
    ignore
      (task posted g (fun f ->
           let t0 = Spans.now () in
           ignore (engine_call f ~ground:true (fun () -> Qdb.ground_all f.qdb));
           f.ground_s <- Obs.Mclock.elapsed_s t0));
    signal (Flight_done (slot, current g))
  in
  let start slot g =
    g.cur <- Some (new_flight ~trace);
    signal (Ready slot)
  in
  let flight_no = Array.make slots 0 and queue = Array.make slots [||] and pos = Array.make slots 0 in
  let digests = Array.make slots (0, 0, 0, 0) in
  let post slot work =
    Runtime.post rt ~key:keys.(slot) (fun g -> try work g with e -> signal (Failed e))
  in
  let begin_flight slot =
    if more ~slot flight_no.(slot) then begin
      queue.(slot) <- stream (flight_seed seed slot flight_no.(slot));
      pos.(slot) <- 0;
      post slot (start slot);
      true
    end
    else false
  in
  let step slot =
    let i = pos.(slot) in
    pos.(slot) <- i + 1;
    if i < Array.length queue.(slot) then post slot (book queue.(slot).(i) slot (Spans.now ()))
    else post slot (ground slot (Spans.now ()))
  in
  let active = ref 0 in
  for slot = 0 to slots - 1 do if begin_flight slot then incr active done;
  let counted = ref 0 and last = ref 0L in
  Mutex.lock m;
  while !active > 0 do
    while Queue.is_empty events do Condition.wait c m done;
    let e = Queue.pop events in
    Mutex.unlock m;
    (match e with
     | Ready slot ->
       let now = Spans.now () in
       if pos.(slot) > 0 && Int64.compare now deadline <= 0 then begin
         incr counted;
         last := now
       end;
       step slot
     | Flight_done (slot, f) ->
       if flight_no.(slot) = 0 then
         digests.(slot) <-
           ( f.committed,
             f.rejected,
             f.overloaded,
             (Qdb.metrics f.qdb).Quantum.Metrics.solver_stats.Solver.Backtrack.nodes );
       fold_flight acc f;
       flight_no.(slot) <- flight_no.(slot) + 1;
       if not (begin_flight slot) then decr active
     | Failed e -> raise e);
    Mutex.lock m
  done;
  Mutex.unlock m;
  Runtime.drain rt;
  Array.iter
    (fun (st : Runtime.stats) ->
      acc.busy_ns <- acc.busy_ns + st.Runtime.busy_ns;
      acc.messages <- acc.messages + st.Runtime.messages)
    (Runtime.stats rt);
  acc.live <- Runtime.live rt;
  acc.window_ops <- acc.window_ops + !counted;
  acc.last_counted <- !last;
  Array.to_list digests

(* Clients book flights until [seconds] have passed. *)
let run_pass acc ~trace ~seed ~seconds =
  let start = Spans.now () in
  let deadline = Int64.add start (Int64.of_float (seconds *. 1e9)) in
  let digest =
    drive acc ~trace ~seed ~deadline ~more:(fun ~slot:_ _ -> Obs.Mclock.elapsed_s deadline < 0.)
  in
  acc.wall_s <- Int64.to_float (Int64.sub acc.last_counted start) *. 1e-9;
  acc.elapsed_s <- Obs.Mclock.elapsed_s start;
  digest

let layers acc ~gc_minor ~gc_major ~overhead_pct =
  let mt = acc.engine in
  let solver = mt.Quantum.Metrics.solver_stats and cache = mt.Quantum.Metrics.cache_stats in
  let nodes = acc.nodes_submit + acc.nodes_ground in
  let submit_s = float_of_int acc.submit_ns *. 1e-9 and ground_s = float_of_int acc.ground_ns *. 1e-9 in
  let self l = List.assoc l acc.self in
  let op_wall = float_of_int acc.op_wall_ns *. 1e-9 in
  let busy_s = float_of_int acc.busy_ns *. 1e-9 in
  let hits = cache.Solver.Cache.extension_hits and full = cache.Solver.Cache.full_solves in
  let per_node x = if nodes = 0 then 0. else x /. float_of_int nodes in
  let flush_s = acc.probe.Wal_probe.flush_s in
  let m = Report.m in
  let count name v = m name "count" (float_of_int v) in
  [ count "core.submit.count" mt.Quantum.Metrics.submitted;
    m "core.submit.busy_s" "s" submit_s;
    count "core.ground.count" (Stats.count acc.ground_s);
    m "core.ground.busy_s" "s" ground_s;
    count "core.forced_groundings" mt.Quantum.Metrics.forced_groundings;
    count "core.governor.retries" mt.Quantum.Metrics.governor_retries;
    count "core.overloaded" mt.Quantum.Metrics.overloaded;
    count "solver.nodes.submit" acc.nodes_submit;
    count "solver.nodes.ground" acc.nodes_ground;
    count "solver.candidates" solver.Solver.Backtrack.candidates;
    count "solver.backtracks" solver.Solver.Backtrack.backtracks;
    m "solver.ns_per_node" "ns" (per_node ((submit_s +. ground_s) *. 1e9));
    m "solver.words_per_node" "words" (per_node acc.minor_words);
    m "cache.hit_ratio" "ratio"
      (if hits + full = 0 then 0. else float_of_int hits /. float_of_int (hits + full));
    m "actor.busy_s" "s" busy_s;
    count "actor.messages" acc.messages;
    m ~detail:(Stats.describe acc.wait_s) "actor.wait_us.p50" "us" (Stats.median acc.wait_s *. 1e6);
    m ~detail:(Stats.describe acc.wait_s) "actor.wait_us.p99" "us"
      (Stats.percentile acc.wait_s 0.99 *. 1e6);
    m "actor.busy_over_wall" "ratio" (busy_s /. acc.elapsed_s);
    count "gc.minor_collections" gc_minor;
    count "gc.major_collections" gc_major;
    m "gc.minor_words" "words" acc.minor_words;
    count "wal.append.count" acc.probe.Wal_probe.appends;
    m "wal.bytes_per_commit" "B"
      (if acc.committed = 0 then 0.
       else float_of_int acc.probe.Wal_probe.bytes /. float_of_int acc.committed);
    count "wal.fsync.count" acc.probe.Wal_probe.flushes;
    m "wal.fsync.busy_s" "s" (Stats.sum flush_s);
    m ~detail:(Stats.describe flush_s) "wal.fsync_us.p50" "us" (Stats.median flush_s *. 1e6);
    m "self.actor_pct" "%" (Report.pct (self "actor") op_wall);
    m "self.core_pct" "%" (Report.pct (self "core") op_wall);
    m "self.wal_pct" "%" (Report.pct (self "wal") op_wall);
    m "self.residual_pct" "%"
      (Report.pct (op_wall -. self "actor" -. self "core" -. self "wal") op_wall);
    m "trace.overhead_pct" "%" overhead_pct;
  ]

let run ~seed ~seconds ~trace =
  (* The WAL's CRC table is a lazy value, and OCaml 5 raises
     CamlinternalLazy.Undefined when two domains force one lazy value at
     once, as both actors' first store builds would.  Building one store
     here first forces it before any actor runs. *)
  ignore (new_flight ~trace:false);
  let spawn = spawn_s () in
  let acc = fresh_acc () in
  let first = run_pass acc ~trace:false ~seed ~seconds:(if trace then seconds /. 2. else seconds) in
  let layers =
    if not trace then []
    else begin
      let t = fresh_acc () in
      let gc0 = Gc.quick_stat () in
      ignore (run_pass t ~trace:true ~seed ~seconds:(seconds /. 2.));
      let gc1 = Gc.quick_stat () in
      let overhead = (Stats.median t.submit_s /. Stats.median acc.submit_s) -. 1. in
      layers t
        ~gc_minor:(gc1.Gc.minor_collections - gc0.Gc.minor_collections)
        ~gc_major:(gc1.Gc.major_collections - gc0.Gc.major_collections)
        ~overhead_pct:(100. *. overhead)
    end
  in
  (* Determinism: every client's first flight again, on a fresh runtime. *)
  let again =
    drive (fresh_acc ()) ~trace:false ~seed ~deadline:(Spans.now ()) ~more:(fun ~slot:_ j -> j = 0)
  in
  let bookings = Stats.count acc.submit_s in
  let ops = bookings + Stats.count acc.ground_s in
  let e2e =
    [ Report.m
        ~detail:
          (Printf.sprintf "actor spawn %.4f s (median of 9) plus the median of %d flight store builds"
             spawn (Stats.count acc.build_s))
        "setup_s" "s"
        (spawn +. Stats.median acc.build_s);
      Report.m "mem_peak_mb" "MB" (Stats.peak_rss_mb ());
      Report.m
        ~detail:
          (Printf.sprintf "%d bookings finished in the first %.3f s; %d flights"
             acc.window_ops acc.wall_s acc.flights)
        "ops_per_s" "1/s"
        (float_of_int acc.window_ops /. acc.wall_s);
    ]
    @ Report.latency "submit" acc.submit_s
    @ [ Report.m
          ~detail:("median per flight; " ^ Stats.describe ~scale:1. ~unit:"s" acc.ground_s)
          "ground_s" "s" (Stats.median acc.ground_s);
        Report.m
          ~detail:(Printf.sprintf "%d of %d users" acc.coordinated acc.possible)
          "coordination_pct" "%"
          (Report.pct (float_of_int acc.coordinated) (float_of_int acc.possible));
        Report.m "failed_pct" "%" (Report.pct (float_of_int acc.overloaded) (float_of_int ops));
      ]
  in
  let digest_text d =
    String.concat " " (List.map (fun (c, r, o, n) -> Printf.sprintf "%d/%d/%d:%d" c r o n) d)
  in
  {
    Report.attempted = ops;
    failed = acc.overloaded;
    checks =
      [ ("committed + rejected + overloaded = submitted", acc.counts_add_up);
        ("no seat booked twice", acc.no_double_booking);
        ("every committed booking grounded by the final ground_all", acc.all_grounded);
        ("outcome counts and solver nodes repeat exactly for one seed", first = again);
      ];
    e2e;
    layers;
    notes =
      [ Printf.sprintf
          "admit_deep: %d actors (%d live), %d closed-loop clients booking flights of %d couples on %d \
           rows one after another, read share 0, in-memory WAL synced at actor batch ends"
          actors acc.live slots pairs rows;
        Printf.sprintf "  %d flights; first flight per client committed/rejected/overloaded:nodes %s"
          acc.flights (digest_text first);
      ];
  }
