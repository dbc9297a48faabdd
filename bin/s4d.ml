(* s4d: serve a self-securing drive over the wire protocol.

     s4cli format -i disk.img --size-mb 64
     s4d -i disk.img --port 7777 &
     s4cli --connect 127.0.0.1:7777 write /etc/passwd --data "root:x:0:0"

   The daemon owns the file-backed store for its lifetime: it attaches
   the drive at startup (crash recovery, so a store left by kill -9
   opens like any other), serves any number of concurrent client
   connections, and on SIGINT/SIGTERM drains in-flight requests, then
   flushes the audit log and runs a final barrier before exiting. *)

module Simclock = S4_util.Simclock
module Sim_disk = S4_disk.Sim_disk
module File_disk = S4_disk.File_disk
module Drive = S4.Drive
module Backend = S4.Backend
module Rpc = S4.Rpc
module Audit = S4.Audit
module Log = S4_seglog.Log
module Netserver = S4_net.Server

open Cmdliner

let image_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "i"; "image" ] ~docv:"FILE" ~doc:"File-backed store (create with s4cli format).")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Listen address.")

let port_arg =
  Arg.(value & opt int 7777 & info [ "port" ] ~docv:"PORT" ~doc:"Listen port (0 = ephemeral).")

let max_frame_arg =
  Arg.(
    value
    & opt int Netserver.default_config.Netserver.max_frame
    & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Largest accepted frame payload.")

let max_inflight_arg =
  Arg.(
    value
    & opt int Netserver.default_config.Netserver.max_inflight
    & info [ "max-inflight" ] ~docv:"N" ~doc:"Pipelined requests allowed per connection.")

let max_batch_arg =
  Arg.(
    value
    & opt int Netserver.default_config.Netserver.max_batch
    & info [ "max-batch" ] ~docv:"N"
        ~doc:"Largest accepted batch frame (advertised to clients in Stat).")

let no_admin_arg =
  Arg.(
    value & flag
    & info [ "no-admin" ]
        ~doc:"Refuse admin credentials over the network (admin stays console-only).")

let max_seconds_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-seconds" ] ~docv:"SECS"
        ~doc:"Exit (gracefully) after this long; for scripted runs.")

let stop = ref false

let install_signals () =
  let handler = Sys.Signal_handle (fun _ -> stop := true) in
  (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ()

let run image host port max_frame max_inflight max_batch no_admin max_seconds =
  (* A missing, foreign or corrupt store is one "error: PATH: ..." line
     and exit 1 (File_disk's own messages already start with the path). *)
  let die m =
    prerr_endline ("error: " ^ m);
    exit 1
  in
  let disk, drive =
    try
      let disk = Sim_disk.of_file (File_disk.open_file image) in
      (disk, Drive.attach disk)
    with
    | Failure m -> die m
    | Invalid_argument m -> die (image ^ ": " ^ m)
    | Unix.Unix_error (e, _, _) -> die (image ^ ": " ^ Unix.error_message e)
    | Log.Log_full -> die (image ^ ": store full")
  in
  let config =
    {
      Netserver.default_config with
      Netserver.max_frame;
      max_inflight;
      max_batch;
      allow_admin = not no_admin;
    }
  in
  let srv = Netserver.of_drive ~config drive in
  let listener = Netserver.serve_tcp ~host ~port srv in
  install_signals ();
  Printf.printf "s4d: serving %s on %s:%d (window %.1f days, batches up to %d%s)\n%!" image
    host (Netserver.port listener)
    (Simclock.to_seconds (Drive.window drive) /. 86400.0)
    config.Netserver.max_batch
    (if no_admin then ", admin refused" else "");
  let t0 = Unix.gettimeofday () in
  while
    (not !stop)
    && match max_seconds with None -> true | Some s -> Unix.gettimeofday () -. t0 < s
  do
    Unix.sleepf 0.25
  done;
  Printf.printf "s4d: shutting down (%d connections served)\n%!"
    (Netserver.connections listener);
  Netserver.shutdown listener;
  (* The final flush must not fail silently: if any step errors, the
     store keeps its last completed barrier; exit nonzero so scripts
     notice. *)
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "s4d: shutdown sync FAILED: %s (last barrier kept)\n%!" s;
        exit 1)
      fmt
  in
  (match Backend.handle (Drive.backend drive) Rpc.admin_cred Rpc.Sync with
   | Rpc.R_unit -> ()
   | Rpc.R_error e -> fail "final Sync refused: %s" (Format.asprintf "%a" Rpc.pp_error e)
   | _ -> fail "final Sync returned an unexpected ack"
   | exception e -> fail "final Sync raised: %s" (Printexc.to_string e));
  (try
     Audit.flush (Drive.audit drive);
     Log.detach (Drive.log drive);
     Sim_disk.close disk
   with
   | Log.Log_full -> die (image ^ ": store full")
   | e -> fail "%s" (Printexc.to_string e));
  Printf.printf "s4d: store synced\n%!"

let () =
  let doc = "network daemon for a simulated self-securing (S4) drive" in
  let info = Cmd.info "s4d" ~version:"1.0" ~doc in
  let term =
    Term.(
      const run $ image_arg $ host_arg $ port_arg $ max_frame_arg $ max_inflight_arg
      $ max_batch_arg $ no_admin_arg $ max_seconds_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
