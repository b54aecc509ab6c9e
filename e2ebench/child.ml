(* Run functions in forked child processes and get their (marshalled)
   results back over pipes, killing a child still running after its
   [cap_s] seconds.  Every child is reaped.  Fork only while this
   process runs a single domain. *)

type job = {
  pid : int;
  fd : Unix.file_descr;
  deadline : float;
  buf : Buffer.t;
}

let spawn ~cap_s (f : unit -> 'a) =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      match f () with
      | v ->
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc v [];
        close_out oc;
        0
      | exception e ->
        prerr_endline ("e2ebench child failed: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close wr;
    { pid; fd = rd; deadline = Unix.gettimeofday () +. cap_s; buf = Buffer.create 65536 }

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

(* Wait until one of [jobs] has finished or passed its cap; returns it
   with its result ([None] when it was killed at the cap). *)
let wait_any jobs : job * 'a option =
  let chunk = Bytes.create 65536 in
  let rec loop () =
    let now = Unix.gettimeofday () in
    match List.find_opt (fun j -> j.deadline <= now) jobs with
    | Some j ->
      Unix.kill j.pid Sys.sigkill;
      Unix.close j.fd;
      ignore (reap j.pid);
      (j, None)
    | None ->
      let timeout = List.fold_left (fun t j -> Float.min t (j.deadline -. now)) Float.infinity jobs in
      (match Unix.select (List.map (fun j -> j.fd) jobs) [] [] timeout with
       | [], _, _ -> loop ()
       | fd :: _, _, _ ->
         let j = List.find (fun j -> j.fd = fd) jobs in
         let n = Unix.read fd chunk 0 (Bytes.length chunk) in
         if n > 0 then begin
           Buffer.add_subbytes j.buf chunk 0 n;
           loop ()
         end
         else begin
           Unix.close fd;
           if reap j.pid <> Unix.WEXITED 0 then failwith "e2ebench: child process failed";
           (j, Some (Marshal.from_string (Buffer.contents j.buf) 0))
         end
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  loop ()

let run ~cap_s f = snd (wait_any [ spawn ~cap_s f ])
