(* A [Relational.Wal.backend] wrapper the benchmark hands to each store:
   it counts appended lines and bytes, flushes and replayed lines, and
   remembers how many lines the last flush made durable (the prefix a
   crash would leave).  With a track it also records a "wal" span around
   every append and flush. *)

module Wal = Relational.Wal

type t = {
  mutable appends : int;
  mutable bytes : int;
  mutable flushes : int;
  mutable flushed_lines : int;  (** lines durable as of the last flush *)
  mutable replayed : int;
  mutable append_ns : int;  (** traced runs only *)
  flush_s : Stats.t;  (** flush durations, traced runs only *)
}

let create () =
  { appends = 0; bytes = 0; flushes = 0; flushed_lines = 0; replayed = 0; append_ns = 0; flush_s = Stats.create () }

let wrap ?track (inner : Wal.backend) =
  let p = create () in
  let backend =
    {
      Wal.append =
        (fun line ->
          p.appends <- p.appends + 1;
          p.bytes <- p.bytes + String.length line + 1;
          match track with
          | None -> inner.Wal.append line
          | Some tr ->
            let t0 = Spans.now () in
            Spans.time tr "wal" (fun () -> inner.Wal.append line);
            p.append_ns <- p.append_ns + Int64.to_int (Obs.Mclock.elapsed_ns t0));
      iter_lines =
        (fun f ->
          inner.Wal.iter_lines (fun line ->
              p.replayed <- p.replayed + 1;
              f line));
      read_all =
        (fun () ->
          let lines = inner.Wal.read_all () in
          p.replayed <- p.replayed + List.length lines;
          lines);
      truncate =
        (fun n ->
          inner.Wal.truncate n;
          p.appends <- min p.appends n;
          p.flushed_lines <- min p.flushed_lines n);
      rewrite =
        (fun lines ->
          inner.Wal.rewrite lines;
          p.appends <- List.length lines;
          p.flushed_lines <- p.appends);
      flush =
        (fun () ->
          (match track with
           | None -> inner.Wal.flush ()
           | Some tr ->
             let t0 = Spans.now () in
             Spans.time tr "wal" inner.Wal.flush;
             Stats.add p.flush_s (Obs.Mclock.elapsed_s t0));
          p.flushes <- p.flushes + 1;
          p.flushed_lines <- p.appends);
      close = inner.Wal.close;
      reset =
        (fun () ->
          inner.Wal.reset ();
          p.appends <- 0;
          p.flushed_lines <- 0);
    }
  in
  (p, backend)

(* Fold [p]'s counts into [into] (its durable-prefix mark excepted). *)
let add ~into p =
  into.appends <- into.appends + p.appends;
  into.bytes <- into.bytes + p.bytes;
  into.flushes <- into.flushes + p.flushes;
  into.replayed <- into.replayed + p.replayed;
  into.append_ns <- into.append_ns + p.append_ns;
  Stats.append ~into:into.flush_s p.flush_s

let merge ps =
  let acc = create () in
  List.iter (add ~into:acc) ps;
  acc
