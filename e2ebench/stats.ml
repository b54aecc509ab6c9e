(* Raw-sample statistics.  Every percentile the benchmark reports is
   computed from the samples themselves (nearest rank over the sorted
   values), never from bucketed histograms, so a change of a few percent
   is visible. *)

type t = {
  mutable data : float array;
  mutable n : int;
}

let create () = { data = Array.make 256 0.; n = 0 }

let add s x =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0. in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n
let append ~into s = for i = 0 to s.n - 1 do add into s.data.(i) done
let of_list xs = let s = create () in List.iter (add s) xs; s
let sum s = let acc = ref 0. in for i = 0 to s.n - 1 do acc := !acc +. s.data.(i) done; !acc

let sorted s =
  let a = Array.sub s.data 0 s.n in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]; nan on no samples. *)
let percentile s p =
  if s.n = 0 then Float.nan
  else
    let a = sorted s in
    let rank = int_of_float (Float.ceil (p *. float_of_int s.n)) in
    a.(max 0 (min (s.n - 1) (rank - 1)))

let median s = percentile s 0.5

(* The highest of the usual percentiles that still has at least ten
   samples above it — the most a sample of this size supports. *)
let supported_percentile s =
  let n = float_of_int s.n in
  List.fold_left
    (fun best p -> if n *. (1. -. p) >= 10. then Some p else best)
    None [ 0.5; 0.9; 0.99; 0.999; 0.9999 ]

let percentile_label p =
  let x = p *. 100. in
  if Float.is_integer x then Printf.sprintf "p%.0f" x else Printf.sprintf "p%g" x

(* "p50 123.4 us, p99 456.7 us (n=2400; highest supported p99.9 = 789.0 us)" *)
let describe ?(scale = 1e6) ?(unit = "us") s =
  if s.n = 0 then "no samples"
  else
    let v p = percentile s p *. scale in
    let top =
      match supported_percentile s with
      | Some p -> Printf.sprintf "highest supported %s = %.4g %s" (percentile_label p) (v p) unit
      | None -> "no percentile has 10 samples above it"
    in
    Printf.sprintf "p50 %.4g %s, p99 %.4g %s (n=%d; %s)" (v 0.5) unit (v 0.99) unit s.n top

(* A size line of /proc/self/status ("VmHWM" for the peak resident set
   so far, "VmRSS" for the current one), in MB.  Linux only. *)
let status_mb field =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let prefix = field ^ ":" in
  let n = String.length prefix in
  let rec scan () =
    match input_line ic with
    | line when String.length line > n && String.sub line 0 n = prefix ->
      Scanf.sscanf (String.sub line n (String.length line - n)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith (field ^ " missing from /proc/self/status")
  in
  scan ()

let peak_rss_mb () = status_mb "VmHWM"
