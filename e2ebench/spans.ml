(* Spans recorded by the benchmark's own code around its calls into the
   engine's layers (traced runs only; nothing inside the program is
   instrumented).  A track belongs to one thread of control, so its
   spans nest properly; a layer's self time is its spans' time minus
   the part covered by spans nested directly inside them. *)

type span = {
  layer : string;
  t0 : int64;
  t1 : int64;
}

type track = { mutable spans : span list }

let now = Obs.Mclock.now_ns
let track () = { spans = [] }
let record tr layer t0 t1 = tr.spans <- { layer; t0; t1 } :: tr.spans

let time tr layer f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> record tr layer t0 (now ())) f

(* Self seconds per layer, summed over [tracks]. *)
let self_times tracks =
  let self = Hashtbl.create 8 in
  let add layer ns =
    let prev = Option.value ~default:0. (Hashtbl.find_opt self layer) in
    Hashtbl.replace self layer (prev +. (Int64.to_float ns *. 1e-9))
  in
  let walk tr =
    let spans =
      List.sort
        (fun a b -> match Int64.compare a.t0 b.t0 with 0 -> Int64.compare b.t1 a.t1 | c -> c)
        tr.spans
    in
    (* Stack of open spans with the time their direct children cover. *)
    let stack = ref [] in
    let close (s, children) = add s.layer (Int64.sub (Int64.sub s.t1 s.t0) children) in
    let rec pop_until t =
      match !stack with
      | (s, _) as top :: rest when Int64.compare s.t1 t <= 0 ->
        close top;
        stack := rest;
        pop_until t
      | _ -> ()
    in
    List.iter
      (fun s ->
        pop_until s.t0;
        (match !stack with
         | (p, children) :: rest -> stack := (p, Int64.add children (Int64.sub s.t1 s.t0)) :: rest
         | [] -> ());
        stack := (s, 0L) :: !stack)
      spans;
    List.iter close !stack
  in
  List.iter walk tracks;
  fun layer -> Option.value ~default:0. (Hashtbl.find_opt self layer)
