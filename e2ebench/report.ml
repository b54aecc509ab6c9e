(* What one workload run hands back to main.ml for printing. *)

type metric = {
  name : string;
  value : float;
  unit : string;
  detail : string;  (** sample count, percentiles, or how it was derived *)
}

type t = {
  attempted : int;
  failed : int;  (** errors, Overloaded verdicts and capped-stream operations *)
  checks : (string * bool) list;  (** correctness checks, all must hold *)
  e2e : metric list;
  layers : metric list;  (** traced runs only *)
  notes : string list;  (** configuration and context lines for the report *)
}

let m ?(detail = "") name unit value = { name; value; unit; detail }

(* The samples' median and p99, in microseconds, as two metrics whose
   detail carries the sample count and the highest supported percentile. *)
let latency prefix samples =
  let d = Stats.describe samples in
  [ m ~detail:d (prefix ^ "_p50_us") "us" (Stats.median samples *. 1e6);
    m ~detail:d (prefix ^ "_p99_us") "us" (Stats.percentile samples 0.99 *. 1e6);
  ]

let pct part whole = if whole = 0. then 0. else 100. *. part /. whole
