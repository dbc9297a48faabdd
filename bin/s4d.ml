(* s4d: serve a self-securing drive image over the wire protocol.

     s4cli format -i disk.img --size-mb 64
     s4d -i disk.img --port 7777 &
     s4cli --connect 127.0.0.1:7777 write /etc/passwd --data "root:x:0:0"

   The daemon owns the image for its lifetime: it loads the drive at
   startup, serves any number of concurrent client connections, and on
   SIGINT/SIGTERM drains in-flight requests, flushes the audit log and
   saves the image back before exiting. *)

module Simclock = S4_util.Simclock
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
    & info [ "i"; "image" ] ~docv:"FILE" ~doc:"Disk image file (create with s4cli format).")

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

let dsync_arg =
  Arg.(
    value & flag
    & info [ "dsync" ]
        ~doc:"Open a file-backed store with O_DSYNC (every write synchronous); ignored for \
              serialized images.")

let stop = ref false

let install_signals () =
  let handler = Sys.Signal_handle (fun _ -> stop := true) in
  (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ()

let run image host port max_frame max_inflight max_batch no_admin max_seconds dsync =
  if not (Sys.file_exists image) then begin
    Printf.eprintf "error: no such image %s (create one with: s4cli format -i %s)\n" image image;
    exit 1
  end;
  let clock, disk = S4_tools.Disk_image.load_any ~dsync image in
  let drive = Drive.attach disk in
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
  (* The final flush must not fail silently: if any step errors, leave
     the previous on-disk image intact (save is atomic; a file-backed
     store keeps its last barrier) and exit nonzero so scripts notice. *)
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "s4d: shutdown sync FAILED: %s (previous image kept)\n%!" s;
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
     Log.sync (Drive.log drive);
     S4_tools.Disk_image.save_any image clock disk;
     S4_disk.Sim_disk.close disk
   with e -> fail "%s" (Printexc.to_string e));
  Printf.printf "s4d: image saved\n%!"

let () =
  let doc = "network daemon for a simulated self-securing (S4) drive" in
  let info = Cmd.info "s4d" ~version:"1.0" ~doc in
  let term =
    Term.(
      const run $ image_arg $ host_arg $ port_arg $ max_frame_arg $ max_inflight_arg
      $ max_batch_arg $ no_admin_arg $ max_seconds_arg $ dsync_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
