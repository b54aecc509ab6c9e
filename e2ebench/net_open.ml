(* net_open: the TCP front door on loopback — [Net.Server.start] with
   the default server configuration over a file-backed WAL with real
   fsyncs — driven open-loop from one connection (a sender and a
   receiver thread in a client process of its own) over a fixed list of
   arrival rates, then stopped and recovered from the WAL.

   Why: it stresses framing, the engine queue, group commit, fsync and
   recovery; the solver does almost nothing, because every flight is
   shallow (8 users, 3 seats, so most bookings are rejected).  A small
   share of requests are Collapse seat queries.

   Rates: one where each request pays its own fsync, one near the knee
   where group-commit batches form, one past it.  Each rate is one phase
   of [per_phase] requests on a fresh store and server (booked-but-not-
   yet-grounded transactions pile up over a phase, and a phase must not
   inherit another's), and rounds of the three phases repeat until the
   measuring time is used up.  Each request is timed
   from when it was due, not when it was sent, so a stalled generator
   or a growing backlog shows up as latency; a rate whose generator ran
   late or whose backlog grew is marked invalid.

   Checks: after each phase's stop, the engine recovered from only the WAL lines
   the last fsync made durable holds every Committed label (booked or
   pending) and no Rejected one; every query answer equals the user's
   final booking; no seat is booked twice. *)

module Qdb = Quantum.Qdb
module Store = Relational.Store
module Wal = Relational.Wal
module Server = Net.Server
module Conn = Net.Conn
module Frame = Net.Frame
module Travel = Workload.Travel

let rates = [ 500.; 1500.; 3000. ]
let reference_rate = 500.

(* A rate is valid when its p99 stays under this limit, the generator's
   p99 lateness under [late_limit_us], and it completed at no less than
   [keep_up] of the offered rate. *)
let limit_us = 20_000.
let late_limit_us = 5_000.
let keep_up = 0.95
let query_share = 0.1
let users_per_flight = 8
let per_phase = 1200
let dir = ".e2ebench"

type kind =
  | Submit
  | Query

type request = {
  user : Travel.user;
  kind : kind;
  frame : Frame.t;
}

(* Requests flight by flight: a flight's 8 users in seeded order, each
   followed with probability [query_share] by a seat query for a user of
   the same flight who has already asked for a seat. *)
let requests ~seed n =
  let rng = Workload.Prng.create seed in
  let out = ref [] and count = ref 0 and flight = ref 0 in
  while !count < n do
    let users =
      Workload.Prng.shuffle_list rng
        (List.filter
           (fun u -> u.Travel.flight = !flight)
           (Travel.make_users ~flights:(!flight + 1) ~pairs_per_flight:(users_per_flight / 2)))
    in
    let asked = ref [] in
    List.iter
      (fun u ->
        let entangled = Workload.Prng.bool rng in
        let text = if entangled then Travel.entangled_txn_text u else Travel.plain_txn_text u in
        let partner = if entangled then Some u.Travel.partner else None in
        out := { user = u; kind = Submit; frame = Frame.Submit_datalog { label = u.Travel.name; partner; text } } :: !out;
        asked := u :: !asked;
        if Workload.Prng.float rng < query_share then begin
          let q = Workload.Prng.pick rng !asked in
          let text = Printf.sprintf "(f, s) :- Bookings(\"%s\", f, s)" q.Travel.name in
          out := { user = q; kind = Query; frame = Frame.Query text } :: !out
        end)
      users;
    count := List.length !out;
    incr flight
  done;
  (Array.of_list (List.rev !out), !flight)

type outcome =
  | Committed
  | Rejected
  | Answered of string list
  | Failed

(* One phase: one rate on a fresh server, then stop and recovery. *)
type phase = {
  rate : float;
  answered : int;
  attempted : int;
  failed : int;
  committed : int;
  wall_s : float;  (** first due time until the last response *)
  submit_s : Stats.t;  (** due until verdict *)
  reject_s : Stats.t;
  read_s : Stats.t;
  late_s : Stats.t;  (** send start minus due time *)
  setup_s : float;
  recover_s : float;
  ground_s : float;  (** ground_all on the recovered engine *)
  coordinated : int;
  possible : int;
  checks : (string * bool) list;
  batches : int;
  mean_batch : float;
  (* traced phases only *)
  engine : Quantum.Metrics.t;  (** the server engine's *)
  nodes_ground : int;
  probe : Wal_probe.t;
  replayed : int;
  outside_s : Stats.t;  (** client latency minus the engine's admission time *)
  op_wall_s : float;  (** client latency of those admissions, summed *)
  core_s : float;  (** the engine's admission time, summed *)
  send_s : float;  (** inside the client's frame writes *)
}

let achieved p = float_of_int p.answered /. p.wall_s

let valid p =
  Stats.percentile p.submit_s 0.99 *. 1e6 <= limit_us
  && Stats.percentile p.late_s 0.99 *. 1e6 <= late_limit_us
  && achieved p >= keep_up *. p.rate

let wal_path name = Filename.concat dir name
let log = wal_path "net_open.wal"
let durable = wal_path "net_open.durable.wal"

(* Keep only the first [n] lines of the log at [src] in [dst]. *)
let copy_prefix ~src ~dst n =
  let ic = open_in_bin src and oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_in_noerr ic; close_out_noerr oc) @@ fun () ->
  for _ = 1 to n do
    output_string oc (input_line ic);
    output_char oc '\n'
  done

let cleanup () =
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ log; durable ];
  if Sys.file_exists dir && Sys.readdir dir = [||] then Sys.rmdir dir

(* What the client process sends back after one phase. *)
type client = {
  connect_s : float;
  outcomes : outcome array;
  latency : float array;  (** per request: due until answered, seconds *)
  late : float array;  (** per request: send start minus due time, seconds *)
  c_answered : int;
  c_wall_s : float;  (** first due time until the last response *)
  c_send_s : float;  (** inside the frame writes, traced phases only *)
}

(* The open-loop client: a sender thread following the arrival schedule
   and this thread matching the in-order responses to their due times.
   It speaks the wire protocol through [Net.Conn], as [Net.Client] does,
   but on a socket with TCP_NODELAY, as load generators do: without it,
   whether the client's own Nagle delay stacks onto the server's
   differs from one connection to the next, and the latency with it. *)
let drive ~trace ~rate ~port (reqs : request array) =
  let count = Array.length reqs in
  let t0 = Spans.now () in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let client = Conn.of_fd fd in
  let connect_s = Obs.Mclock.elapsed_s t0 in
  let outcomes = Array.make count Failed and latency = Array.make count Float.nan in
  let late = Array.make count Float.nan and send_ns = ref 0 in
  let start = Spans.now () in
  let due i = Int64.add start (Int64.of_float (float_of_int i /. rate *. 1e9)) in
  let sender =
    Thread.create
      (fun () ->
        try
          for i = 0 to count - 1 do
            let behind = Int64.to_float (Int64.sub (due i) (Spans.now ())) *. 1e-9 in
            if behind > 0. then Thread.delay behind;
            let t0 = Spans.now () in
            late.(i) <- Int64.to_float (Int64.sub t0 (due i)) *. 1e-9;
            if not (Conn.write_frame client reqs.(i).frame) then raise Exit;
            if trace then send_ns := !send_ns + Int64.to_int (Obs.Mclock.elapsed_ns t0)
          done
        with Exit -> ())
      ()
  in
  let answered = ref 0 in
  (try
     for i = 0 to count - 1 do
       match Conn.read_frame client with
       | Error _ -> raise Exit
       | Ok frame ->
         incr answered;
         latency.(i) <- Int64.to_float (Int64.sub (Spans.now ()) (due i)) *. 1e-9;
         outcomes.(i) <-
           (match reqs.(i).kind, frame with
            | Submit, Frame.Committed _ -> Committed
            | Submit, Frame.Rejected _ -> Rejected
            | Query, Frame.Rows rows -> Answered rows
            | _ -> Failed)
     done
   with Exit -> ());
  Thread.join sender;
  let wall_s = Obs.Mclock.elapsed_s start in
  Conn.close client;
  {
    connect_s;
    outcomes;
    latency;
    late;
    c_answered = !answered;
    c_wall_s = wall_s;
    c_send_s = float_of_int !send_ns *. 1e-9;
  }

(* A phase that has not finished after this long has hung. *)
let phase_cap_s = 120.

let run_phase ~trace ~seed ~rate =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let reqs, flights = requests ~seed per_phase in
  let count = Array.length reqs in
  let geometry = { Workload.Flights.flights; rows_per_flight = 1; dest = "LA" } in
  let track = if trace then Some (Spans.track ()) else None in
  if Sys.file_exists log then Sys.remove log;
  (* Set-up: store build and server start here, connect in the client. *)
  let t0 = Spans.now () in
  let probe, backend = Wal_probe.wrap ?track (Wal.file_backend log) in
  let store = Workload.Flights.fresh_store ~backend geometry in
  let server = Server.start ~store (Server.Tcp ("127.0.0.1", 0)) in
  let port =
    match Server.address server with
    | Server.Tcp (_, port) -> port
    | Server.Unix_sock _ -> invalid_arg "net_open serves TCP"
  in
  let start_s = Obs.Mclock.elapsed_s t0 in
  if trace then Obs.Flight.enable ~capacity:count ();
  (* The client runs in its own process, as real clients do, so its
     threads do not share this process's runtime lock with the server's. *)
  let c =
    match
      (Child.run ~cap_s:phase_cap_s (fun () -> drive ~trace ~rate ~port reqs)
        : client option)
    with
    | Some c -> c
    | None -> failwith "net_open: a phase did not finish"
  in
  let outcomes = c.outcomes and latency = c.latency in
  let setup_s = start_s +. c.connect_s in
  let submit_s = Stats.create () and reject_s = Stats.create () and read_s = Stats.create () in
  Array.iteri
    (fun i o ->
      match o with
      | Committed -> Stats.add submit_s latency.(i)
      | Rejected -> Stats.add submit_s latency.(i); Stats.add reject_s latency.(i)
      | Answered _ -> Stats.add read_s latency.(i)
      | Failed -> ())
    outcomes;
  let late = Stats.create () in
  Array.iter (fun x -> if not (Float.is_nan x) then Stats.add late x) c.late;
  Server.stop server;
  (match Server.failure server with
   | Some e -> failwith ("net_open: server failed: " ^ Printexc.to_string e)
   | None -> ());
  Store.close store;
  (* Recover from the durable prefix only, as a crash right after the
     last fsync would leave it. *)
  copy_prefix ~src:log ~dst:durable probe.Wal_probe.flushed_lines;
  let replay, backend = Wal_probe.wrap (Wal.file_backend durable) in
  let t0 = Spans.now () in
  let recovered = Qdb.recover backend in
  let recover_s = Obs.Mclock.elapsed_s t0 in
  let t0 = Spans.now () in
  ignore (Qdb.ground_all recovered);
  let ground_s = Obs.Mclock.elapsed_s t0 in
  backend.Wal.close ();
  cleanup ();
  let db = Qdb.db recovered in
  let booked u = Workload.Flights.booking_of db u.Travel.name in
  let rendered u =
    match booked u with
    | Some (f, s) ->
      [ Relational.Tuple.to_string (Relational.Tuple.of_list [ Relational.Value.Int f; Relational.Value.Int s ]) ]
    | None -> []
  in
  let all_ok pred = Array.for_all Fun.id (Array.mapi (fun i o -> pred reqs.(i) o) outcomes) in
  let users = List.map (fun r -> r.user) (List.filter (fun r -> r.kind = Submit) (Array.to_list reqs)) in
  let coordinated, possible = Booking_check.coordination geometry db users in
  let failed = Array.fold_left (fun n o -> if o = Failed then n + 1 else n) 0 outcomes in
  (* Client latency minus the engine's own admission time, per admission,
     matched by label through the engine's flight recorder. *)
  let outside_s = Stats.create () and op_wall = ref 0. and core = ref 0. in
  if trace then begin
    let core_ns = Hashtbl.create count in
    List.iter
      (fun (r : Obs.Flight.record) -> Hashtbl.replace core_ns r.Obs.Flight.label r.Obs.Flight.total_ns)
      (Obs.Flight.records ());
    Obs.Flight.disable ();
    Array.iteri
      (fun i r ->
        match r.kind, Hashtbl.find_opt core_ns r.user.Travel.name with
        | Submit, Some ns when not (Float.is_nan latency.(i)) ->
          let c = float_of_int ns *. 1e-9 in
          Stats.add outside_s (latency.(i) -. c);
          op_wall := !op_wall +. latency.(i);
          core := !core +. c
        | _ -> ())
      reqs
  end;
  let gc = Server.group_commit server in
  {
    rate;
    answered = c.c_answered;
    attempted = count;
    failed;
    committed = Array.fold_left (fun n o -> if o = Committed then n + 1 else n) 0 outcomes;
    wall_s = c.c_wall_s;
    submit_s;
    reject_s;
    read_s;
    late_s = late;
    setup_s;
    recover_s;
    ground_s;
    coordinated;
    possible;
    checks =
      [ ( "every Committed ack survives recovery from the fsynced WAL prefix",
          all_ok (fun r o -> o <> Committed || booked r.user <> None) );
        ("no Rejected label survives recovery", all_ok (fun r o -> o <> Rejected || booked r.user = None));
        ( "every query answer equals the user's final booking",
          all_ok (fun r o -> match o with Answered rows -> rows = rendered r.user | _ -> true) );
        ("no seat booked twice", Booking_check.no_double_booking db);
      ];
    batches = Net.Group_commit.batches gc;
    mean_batch = Net.Group_commit.mean_batch_size gc;
    engine = Qdb.metrics (Server.qdb server);
    nodes_ground = (Qdb.metrics recovered).Quantum.Metrics.solver_stats.Solver.Backtrack.nodes;
    probe;
    replayed = replay.Wal_probe.replayed;
    outside_s;
    op_wall_s = !op_wall;
    core_s = !core;
    send_s = c.c_send_s;
  }

let phase_seed seed round i = (seed * 15485863) + (round * 8) + i

type pass = {
  phases : phase list;
  gc_minor : int;
  gc_major : int;
  minor_words : float;
}

(* Rounds of one phase per rate until [seconds] have passed (at least
   one round). *)
let run_pass ~trace ~seed ~seconds =
  let gc0 = Gc.quick_stat () in
  let start = Spans.now () in
  let rec go round acc =
    if round > 0 && Obs.Mclock.elapsed_s start >= seconds then acc
    else
      go (round + 1)
        (List.rev_append
           (List.mapi (fun i rate -> run_phase ~trace ~seed:(phase_seed seed round i) ~rate) rates)
           acc)
  in
  let phases = go 0 [] in
  let gc1 = Gc.quick_stat () in
  {
    phases;
    gc_minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
  }

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let merged f phases =
  let s = Stats.create () in
  List.iter (fun p -> Stats.append ~into:s (f p)) phases;
  s

let at_rate rate p = List.filter (fun ph -> ph.rate = rate) p.phases

let layers p ~overhead_pct =
  let mt = Quantum.Metrics.create () in
  List.iter (fun ph -> Quantum.Metrics.merge ~into:mt ph.engine) p.phases;
  let solver = mt.Quantum.Metrics.solver_stats and cache = mt.Quantum.Metrics.cache_stats in
  let nodes_ground = sum (fun ph -> ph.nodes_ground) p.phases in
  let nodes = solver.Solver.Backtrack.nodes + nodes_ground in
  let submit_busy = Obs.Histogram.sum mt.Quantum.Metrics.submit_latency in
  let read_busy = Obs.Histogram.sum mt.Quantum.Metrics.read_latency in
  let ground_busy = sumf (fun ph -> ph.ground_s) p.phases in
  let hits = cache.Solver.Cache.extension_hits and full = cache.Solver.Cache.full_solves in
  let probe = Wal_probe.merge (List.map (fun ph -> ph.probe) p.phases) in
  let flush = probe.Wal_probe.flush_s in
  let append_s = float_of_int probe.Wal_probe.append_ns *. 1e-9 in
  let fsync_s = Stats.sum flush in
  let outside = merged (fun ph -> ph.outside_s) p.phases in
  let late = merged (fun ph -> ph.late_s) p.phases in
  let op_wall = sumf (fun ph -> ph.op_wall_s) p.phases in
  let core = sumf (fun ph -> ph.core_s) p.phases -. append_s in
  let send = sumf (fun ph -> ph.send_s) p.phases in
  let batches = sum (fun ph -> ph.batches) p.phases in
  let committed = sum (fun ph -> ph.committed) p.phases in
  let m = Report.m in
  let count name v = m name "count" (float_of_int v) in
  [ count "core.submit.count" mt.Quantum.Metrics.submitted;
    m ~detail:"the engine's own clock" "core.submit.busy_s" "s" submit_busy;
    count "core.read.count" mt.Quantum.Metrics.reads;
    m ~detail:"the engine's own clock" "core.read.busy_s" "s" read_busy;
    count "core.ground.count" (List.length p.phases);
    m ~detail:"ground_all on the recovered engines" "core.ground.busy_s" "s" ground_busy;
    count "core.forced_groundings" mt.Quantum.Metrics.forced_groundings;
    count "core.governor.retries" mt.Quantum.Metrics.governor_retries;
    count "core.overloaded" mt.Quantum.Metrics.overloaded;
    count "solver.nodes.submit" solver.Solver.Backtrack.nodes;
    count "solver.nodes.ground" nodes_ground;
    count "solver.candidates" solver.Solver.Backtrack.candidates;
    count "solver.backtracks" solver.Solver.Backtrack.backtracks;
    m "solver.ns_per_node" "ns"
      (if nodes = 0 then 0. else (submit_busy +. read_busy +. ground_busy) *. 1e9 /. float_of_int nodes);
    m "cache.hit_ratio" "ratio"
      (if hits + full = 0 then 0. else float_of_int hits /. float_of_int (hits + full));
    count "gc.minor_collections" p.gc_minor;
    count "gc.major_collections" p.gc_major;
    m ~detail:"whole process: server, client and generator threads" "gc.minor_words" "words"
      p.minor_words;
    count "wal.append.count" probe.Wal_probe.appends;
    m "wal.bytes_per_commit" "B"
      (if committed = 0 then 0. else float_of_int probe.Wal_probe.bytes /. float_of_int committed);
    count "wal.fsync.count" probe.Wal_probe.flushes;
    m "wal.fsync.busy_s" "s" fsync_s;
    m ~detail:(Stats.describe flush) "wal.fsync_us.p50" "us" (Stats.median flush *. 1e6);
    count "wal.replay.records" (sum (fun ph -> ph.replayed) p.phases);
    count "net.group_commit.batches" batches;
    m "net.group_commit.mean_batch" "count"
      (if batches = 0 then 0.
       else sumf (fun ph -> ph.mean_batch *. float_of_int ph.batches) p.phases /. float_of_int batches);
    m ~detail:(Stats.describe outside) "net.outside_core_us.p50" "us" (Stats.median outside *. 1e6);
    m ~detail:(Stats.describe outside) "net.outside_core_us.p99" "us" (Stats.percentile outside 0.99 *. 1e6);
    m ~detail:(Stats.describe late) "gen.late_us.p99" "us" (Stats.percentile late 0.99 *. 1e6);
    m ~detail:"admissions' engine time less WAL appends" "self.core_pct" "%" (Report.pct core op_wall);
    m ~detail:"appends and fsyncs, each counted once" "self.wal_pct" "%"
      (Report.pct (append_s +. fsync_s) op_wall);
    m ~detail:"client send calls" "self.net_pct" "%" (Report.pct send op_wall);
    m ~detail:"queueing, framing, waiting on a shared fsync, write-back, generator lateness"
      "self.residual_pct" "%"
      (Report.pct (op_wall -. core -. append_s -. fsync_s -. send) op_wall);
    m "trace.overhead_pct" "%" overhead_pct;
  ]

let run ~seed ~seconds ~trace =
  Fun.protect ~finally:cleanup @@ fun () ->
  let p = run_pass ~trace:false ~seed ~seconds:(if trace then seconds /. 2. else seconds) in
  let reference = at_rate reference_rate p in
  let ref_submit = merged (fun ph -> ph.submit_s) reference in
  let layers =
    if not trace then []
    else
      let t = run_pass ~trace:true ~seed ~seconds:(seconds /. 2.) in
      let traced = Stats.median (merged (fun ph -> ph.submit_s) (at_rate reference_rate t)) in
      layers t ~overhead_pct:(100. *. ((traced /. Stats.median ref_submit) -. 1.))
  in
  let attempted = sum (fun ph -> ph.attempted) p.phases in
  let failed = sum (fun ph -> ph.failed) p.phases in
  let wall = sumf (fun ph -> ph.wall_s) p.phases in
  let coordinated = sum (fun ph -> ph.coordinated) p.phases
  and possible = sum (fun ph -> ph.possible) p.phases in
  let each f = Stats.of_list (List.map f p.phases) in
  let setup = each (fun ph -> ph.setup_s)
  and recover = each (fun ph -> ph.recover_s)
  and ground = each (fun ph -> ph.ground_s) in
  let rate_valid rate =
    let phases = at_rate rate p in
    let merged_phase =
      { (List.hd phases) with
        answered = sum (fun ph -> ph.answered) phases;
        wall_s = sumf (fun ph -> ph.wall_s) phases;
        submit_s = merged (fun ph -> ph.submit_s) phases;
        late_s = merged (fun ph -> ph.late_s) phases }
    in
    (merged_phase, valid merged_phase)
  in
  let by_rate = List.map rate_valid rates in
  let max_rate = List.fold_left (fun acc (ph, ok) -> if ok then Float.max acc ph.rate else acc) 0. by_rate in
  let at_ref (m : Report.metric) =
    { m with Report.detail = Printf.sprintf "at %.0f Hz; %s" reference_rate m.Report.detail }
  in
  let e2e =
    [ Report.m ~detail:(Printf.sprintf "median of %d set-ups" (Stats.count setup)) "setup_s" "s"
        (Stats.median setup);
      Report.m "mem_peak_mb" "MB" (Stats.peak_rss_mb ());
      Report.m
        ~detail:(Printf.sprintf "%d answered requests over %.3f s of open-loop phases" (attempted - failed) wall)
        "ops_per_s" "1/s"
        (float_of_int (attempted - failed) /. wall);
    ]
    @ List.map at_ref
        (Report.latency "submit" ref_submit @ Report.latency "read" (merged (fun ph -> ph.read_s) reference))
    @ [ at_ref
          (let s = merged (fun ph -> ph.reject_s) reference in
           Report.m ~detail:(Stats.describe s) "reject_p99_us" "us" (Stats.percentile s 0.99 *. 1e6));
        Report.m
          ~detail:("median per phase of ground_all on the recovered engine; " ^ Stats.describe ~scale:1. ~unit:"s" ground)
          "ground_s" "s" (Stats.median ground);
        Report.m ~detail:(Printf.sprintf "%d of %d users, recovered and grounded" coordinated possible)
          "coordination_pct" "%"
          (Report.pct (float_of_int coordinated) (float_of_int possible));
        Report.m
          ~detail:
            (Printf.sprintf
               "highest rate with submit p99 <= %.0f us, generator p99 lateness <= %.0f us and \
                achieved >= %.0f%% of offered"
               limit_us late_limit_us (100. *. keep_up))
          "max_rate_hz" "1/s" max_rate;
        Report.m
          ~detail:("median per phase; " ^ Stats.describe ~scale:1. ~unit:"s" recover)
          "recover_s" "s" (Stats.median recover);
        Report.m ~detail:(Printf.sprintf "%d of %d requests" failed attempted) "failed_pct" "%"
          (Report.pct (float_of_int failed) (float_of_int attempted));
      ]
  in
  let rate_note (ph, ok) =
    Printf.sprintf "  %5.0f Hz: %d answered at %.1f Hz, submit %s, generator late p99 %.1f us, %s"
      ph.rate ph.answered (achieved ph) (Stats.describe ph.submit_s)
      (Stats.percentile ph.late_s 0.99 *. 1e6)
      (if ok then "valid" else "INVALID (over the latency limit, late generator or growing backlog)")
  in
  let checks =
    List.map
      (fun (name, _) -> (name, List.for_all (fun ph -> List.assoc name ph.checks) p.phases))
      (List.hd p.phases).checks
  in
  {
    Report.attempted;
    failed;
    checks;
    e2e;
    layers;
    notes =
      Printf.sprintf
        "net_open: one connection, open loop, %d phases of %d requests at %s Hz (reference %.0f Hz), \
         flights of %d users on 3 seats, %.0f%% seat queries, file WAL with fsync at group commit"
        (List.length p.phases) per_phase
        (String.concat "/" (List.map (Printf.sprintf "%.0f") rates))
        reference_rate users_per_flight (100. *. query_share)
      :: List.map rate_note by_rate;
  }
