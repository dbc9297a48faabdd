(* s4cli: operate a self-securing drive stored in a host-file image.

   The drive, its history pool and audit log live inside the image, so
   the security properties can be explored interactively:

     s4cli format -i disk.img --size-mb 64
     s4cli write  -i disk.img /etc/passwd --data "root:x:0:0"
     s4cli write  -i disk.img /etc/passwd --data "TAMPERED"
     s4cli log    -i disk.img
     s4cli versions -i disk.img /etc/passwd
     s4cli cat    -i disk.img /etc/passwd --at <ns>
     s4cli restore -i disk.img /etc --at <ns>
     s4cli fsck   -i disk.img

   With --connect HOST:PORT the data-path commands (write, cat, ls,
   rm, log, metrics) run against a live s4d daemon over the wire
   protocol instead of opening a local image; history access (--at,
   versions, restore, fsck, info, trace) needs the image. *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Drive = S4.Drive
module Backend = S4.Backend
module Rpc = S4.Rpc
module Audit = S4.Audit
module N = S4_nfs.Nfs_types
module Translator = S4_nfs.Translator
module History = S4_tools.History
module Recovery = S4_tools.Recovery
module Log = S4_seglog.Log
module Trace = S4_obs.Trace
module Metrics = S4_obs.Metrics
module Check = S4_obs.Check
module Netclient = S4_net.Client
module Nettransport = S4_net.Transport
module Wire = S4_net.Wire
module Chain = S4_integrity.Chain

open Cmdliner

let image_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "i"; "image" ] ~docv:"FILE" ~doc:"Disk image file.")

let image_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "i"; "image" ] ~docv:"FILE" ~doc:"Disk image file.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:"Operate on a running s4d daemon instead of a local image.")

let path_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH")
let paths_arg = Arg.(non_empty & pos_all string [] & info [] ~docv:"PATH...")

let at_arg =
  Arg.(
    value
    & opt (some int64) None
    & info [ "at" ] ~docv:"NS"
        ~doc:"Simulated time (ns) for history-pool access; see $(b,versions).")

let user_arg =
  Arg.(value & opt int 1 & info [ "user" ] ~docv:"UID" ~doc:"Acting user id (admin tools ignore this).")

type session = {
  clock : Simclock.t;
  disk : Sim_disk.t;
  drive : Drive.t;
  tr : Translator.t;
}

let open_session image user =
  let clock, disk = S4_tools.Disk_image.load_any image in
  let drive = Drive.attach disk in
  let tr = Translator.mount ~cred:(Rpc.user_cred ~user ~client:1) (Translator.Local drive) in
  (* Each CLI invocation is a new instant. *)
  Simclock.advance clock (Simclock.of_seconds 1.0);
  { clock; disk; drive; tr }

let close_session image s =
  (match Backend.handle (Drive.backend s.drive) Rpc.admin_cred Rpc.Sync with Rpc.R_unit -> () | _ -> ());
  Audit.flush (Drive.audit s.drive);
  Log.sync (Drive.log s.drive);
  S4_tools.Disk_image.save_any image s.clock s.disk;
  Sim_disk.close s.disk

(* --- remote sessions (s4cli --connect) -------------------------------- *)

type target = T_local of string | T_remote of string * int

let parse_hostport hp =
  match String.rindex_opt hp ':' with
  | Some i -> (
    let host = String.sub hp 0 i in
    let p = String.sub hp (i + 1) (String.length hp - i - 1) in
    match int_of_string_opt p with
    | Some port when port > 0 && port < 65536 -> (host, port)
    | _ ->
      prerr_endline ("error: bad port in " ^ hp);
      exit 1)
  | None ->
    prerr_endline ("error: expected HOST:PORT, got " ^ hp);
    exit 1

let target image connect =
  match (connect, image) with
  | Some hp, _ ->
    let host, port = parse_hostport hp in
    T_remote (host, port)
  | None, Some image -> T_local image
  | None, None ->
    prerr_endline "error: need --image FILE or --connect HOST:PORT";
    exit 1

type rsession = { rclient : Netclient.t; rtr : Translator.t }

let open_remote ~user host port =
  let rclient = Netclient.connect (Nettransport.tcp ~host ~port) in
  (match Netclient.capacity rclient with
  | _ when Netclient.identity rclient > 0 -> ()
  | _ ->
    Printf.eprintf "error: cannot reach s4d at %s:%d\n" host port;
    exit 1);
  let rclock = Simclock.create () in
  Simclock.set rclock (Netclient.server_now rclient);
  let backend = Netclient.backend ~clock:rclock ~keep_data:true rclient in
  let rtr = Translator.mount ~cred:(Rpc.user_cred ~user ~client:1) (Translator.Backend backend) in
  { rclient; rtr }

let close_remote r = Netclient.close r.rclient

let or_die = function
  | Ok v -> v
  | Error m ->
    prerr_endline ("error: " ^ m);
    exit 1

let nfs_die = function
  | Error e ->
    Format.eprintf "error: %a@." N.pp_error e;
    exit 1
  | Ok v -> v

(* --- commands --------------------------------------------------------- *)

let cmd_format =
  let size_mb = Arg.(value & opt int 64 & info [ "size-mb" ] ~docv:"MB") in
  let window_days =
    Arg.(value & opt float 7.0 & info [ "window-days" ] ~doc:"Guaranteed detection window.")
  in
  let file_backed =
    Arg.(
      value & flag
      & info [ "file-backed" ]
          ~doc:"Back sectors with the host file itself (pwrite + fsync barriers) instead of a \
                serialized image: acknowledged writes then survive kill -9 of the daemon.")
  in
  let run image size_mb window_days file_backed =
    let geometry = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(size_mb * 1024 * 1024) in
    let clock, disk =
      if file_backed then
        let disk = Sim_disk.of_file (S4_disk.File_disk.create ~path:image geometry) in
        (Sim_disk.clock disk, disk)
      else
        let clock = Simclock.create () in
        (clock, Sim_disk.create ~geometry clock)
    in
    let config =
      { Drive.default_config with Drive.window = Simclock.of_seconds (window_days *. 86400.0) }
    in
    let drive = Drive.format ~config disk in
    let tr = Translator.mount (Translator.Local drive) in
    ignore tr;
    Audit.flush (Drive.audit drive);
    Log.sync (Drive.log drive);
    S4_tools.Disk_image.save_any image clock disk;
    Sim_disk.close disk;
    Printf.printf "formatted %s: %d MB self-securing drive, %.1f-day window%s\n" image size_mb
      window_days
      (if file_backed then " (file-backed)" else "")
  in
  Cmd.v (Cmd.info "format" ~doc:"Create a fresh self-securing drive image.")
    Term.(const run $ image_arg $ size_mb $ window_days $ file_backed)

let cmd_write =
  let data = Arg.(value & opt (some string) None & info [ "data" ] ~docv:"STRING") in
  (* All targets ride ONE vectored submission: n files, one
     group-commit barrier. Results are positional. *)
  let write_all tr paths contents ~announce =
    let failed = ref false in
    List.iter2
      (fun path -> function
        | Ok _ -> announce path
        | Error e ->
          Format.eprintf "error: %s: %a@." path N.pp_error e;
          failed := true)
      paths
      (Translator.write_files tr (List.map (fun p -> (p, contents)) paths));
    !failed
  in
  let run image connect user paths data =
    let contents =
      match data with
      | Some d -> Bytes.of_string d
      | None -> Bytes.of_string (In_channel.input_all In_channel.stdin)
    in
    let failed =
      match target image connect with
      | T_local image ->
        let s = open_session image user in
        let failed =
          write_all s.tr paths contents ~announce:(fun path ->
              Printf.printf "wrote %d bytes to %s at t=%Ld\n" (Bytes.length contents) path
                (Simclock.now s.clock))
        in
        close_session image s;
        failed
      | T_remote (host, port) ->
        let r = open_remote ~user host port in
        let failed =
          write_all r.rtr paths contents ~announce:(fun path ->
              Printf.printf "wrote %d bytes to %s via %s:%d\n" (Bytes.length contents) path
                host port)
        in
        close_remote r;
        failed
    in
    if failed then exit 1
  in
  Cmd.v
    (Cmd.info "write"
       ~doc:
         "Write one or more files (creating parents) as a single batched submission; content \
          from --data or stdin.")
    Term.(const run $ image_opt_arg $ connect_arg $ user_arg $ paths_arg $ data)

let cmd_cat =
  let run image connect user path at =
    match target image connect with
    | T_local image ->
      let s = open_session image user in
      (match at with
       | None -> print_bytes (nfs_die (Translator.read_file s.tr path))
       | Some at ->
         let h = History.create s.drive in
         print_bytes (or_die (History.cat_path h ~at path)));
      print_newline ();
      close_session image s
    | T_remote (host, port) ->
      if at <> None then begin
        prerr_endline "error: --at needs the history pool; run against the image";
        exit 1
      end;
      let r = open_remote ~user host port in
      print_bytes (nfs_die (Translator.read_file r.rtr path));
      print_newline ();
      close_remote r
  in
  Cmd.v
    (Cmd.info "cat" ~doc:"Print a file's contents, optionally as of a past instant (admin).")
    Term.(const run $ image_opt_arg $ connect_arg $ user_arg $ path_arg $ at_arg)

let print_dirent (e : N.dirent) (a : N.attr) =
  Printf.printf "%c %8d  %-30s oid=%Ld\n"
    (match a.N.ftype with N.Fdir -> 'd' | N.Freg -> '-' | N.Flnk -> 'l')
    a.N.size e.N.name e.N.fh

let cmd_ls =
  let run image connect user path at =
    match target image connect with
    | T_local image ->
      let s = open_session image user in
      let h = History.create s.drive in
      let dir = or_die (History.resolve h ?at path) in
      let entries = or_die (History.ls h ?at dir) in
      List.iter (fun (e, a) -> print_dirent e a) entries;
      close_session image s
    | T_remote (host, port) ->
      if at <> None then begin
        prerr_endline "error: --at needs the history pool; run against the image";
        exit 1
      end;
      let r = open_remote ~user host port in
      let dir, _ = nfs_die (Translator.lookup_path r.rtr path) in
      (match Translator.handle r.rtr (N.Readdir dir) with
       | N.R_entries entries ->
         List.iter
           (fun (e : N.dirent) ->
             match Translator.handle r.rtr (N.Getattr e.N.fh) with
             | N.R_attr a -> print_dirent e a
             | _ -> ())
           entries
       | N.R_error e ->
         Format.eprintf "error: %a@." N.pp_error e;
         exit 1
       | _ -> ());
      close_remote r
  in
  Cmd.v
    (Cmd.info "ls" ~doc:"List a directory, optionally as of a past instant.")
    Term.(const run $ image_opt_arg $ connect_arg $ user_arg $ path_arg $ at_arg)

let cmd_rm =
  (* One vectored submission for the whole set: n removals share a
     single group-commit barrier. *)
  let rm_via tr paths =
    let failed = ref false in
    List.iter2
      (fun path -> function
        | Ok () ->
          Printf.printf "removed %s (the versions remain in the history pool)\n" path
        | Error e ->
          Format.eprintf "error: %s: %a@." path N.pp_error e;
          failed := true)
      paths
      (Translator.remove_files tr paths);
    !failed
  in
  let run image connect user paths =
    let failed =
      match target image connect with
      | T_local image ->
        let s = open_session image user in
        let failed = rm_via s.tr paths in
        close_session image s;
        failed
      | T_remote (host, port) ->
        let r = open_remote ~user host port in
        let failed = rm_via r.rtr paths in
        close_remote r;
        failed
    in
    if failed then exit 1
  in
  Cmd.v (Cmd.info "rm" ~doc:"Remove one or more files as a single batched submission.")
    Term.(const run $ image_opt_arg $ connect_arg $ user_arg $ paths_arg)

let cmd_versions =
  let run image path =
    let s = open_session image 0 in
    let h = History.create s.drive in
    let fh = or_die (History.resolve h path) in
    let entries = History.versions_of h fh in
    Printf.printf "%d retained journal entries for %s (oid %Ld):\n" (List.length entries) path fh;
    List.iter (fun e -> Format.printf "  %a@." S4_store.Entry.pp e) entries;
    Printf.printf "version instants (pass to --at):\n";
    List.iter (fun t -> Printf.printf "  %Ld\n" t) (History.version_times h fh);
    close_session image s
  in
  Cmd.v
    (Cmd.info "versions" ~doc:"Show the retained version history of a file (admin).")
    Term.(const run $ image_arg $ path_arg)

let print_audit = function
  | Rpc.R_audit records ->
    Printf.printf "%d audit records:\n" (List.length records);
    List.iter
      (fun (r : Audit.record) ->
        Printf.printf "  t=%-14Ld user=%-3d client=%-3d %-12s oid=%-4Ld %s%s\n" r.Audit.at
          r.Audit.user r.Audit.client r.Audit.op r.Audit.oid r.Audit.info
          (if r.Audit.ok then "" else "  DENIED"))
      records
  | r -> Format.eprintf "error: %a@." Rpc.pp_resp r

let cmd_log =
  let read_audit = Rpc.Read_audit { since = 0L; until = Int64.max_int } in
  let run image connect =
    match target image connect with
    | T_local image ->
      let s = open_session image 0 in
      print_audit (Backend.handle (Drive.backend s.drive) Rpc.admin_cred read_audit);
      close_session image s
    | T_remote (host, port) ->
      let r = open_remote ~user:0 host port in
      print_audit (Netclient.handle r.rclient Rpc.admin_cred read_audit);
      close_remote r
  in
  Cmd.v (Cmd.info "log" ~doc:"Dump the drive's audit log (admin).")
    Term.(const run $ image_opt_arg $ connect_arg)

let cmd_restore =
  let at_req =
    Arg.(required & opt (some int64) None & info [ "at" ] ~docv:"NS" ~doc:"Restore point.")
  in
  let run image path at =
    let s = open_session image 0 in
    let rec_ = Recovery.create s.drive in
    let report = or_die (Recovery.restore_tree rec_ ~at ~path) in
    Format.printf "%a@." Recovery.pp_report report;
    close_session image s
  in
  Cmd.v
    (Cmd.info "restore" ~doc:"Restore a subtree to a past instant (admin; copy-forward).")
    Term.(const run $ image_arg $ path_arg $ at_req)

let cmd_landmark =
  let take_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "take" ] ~docv:"NAME"
          ~doc:"Take a new named mark (quiesce, seal the audit chain, record its head).")
  in
  let run image take =
    let s = open_session image 0 in
    let lm =
      try S4_tools.Landmark.create s.drive
      with Failure m ->
        prerr_endline ("error: " ^ m);
        close_session image s;
        exit 1
    in
    (match take with
     | Some name ->
       let m = or_die (S4_tools.Landmark.mark lm ~name) in
       Format.printf "took %a@." S4_tools.Landmark.pp_mark m
     | None ->
       let marks = S4_tools.Landmark.marks lm in
       Printf.printf "%d marks:\n" (List.length marks);
       List.iter (fun m -> Format.printf "  %a@." S4_tools.Landmark.pp_mark m) marks;
       let lms = S4_tools.Landmark.list lm in
       Printf.printf "%d per-object landmarks:\n" (List.length lms);
       List.iter
         (fun (l : S4_tools.Landmark.landmark) ->
           Printf.printf "  %S oid=%Ld at=%Ld (%d bytes archived in oid %Ld)\n" l.l_name
             l.l_source l.l_taken_at l.l_bytes l.l_object)
         lms);
    close_session image s
  in
  Cmd.v
    (Cmd.info "landmark"
       ~doc:
         "List named rollback marks (and per-object landmarks), or take a new one with --take \
          (admin). A mark records the barrier instant and the sealed audit-chain head, so a later \
          $(b,recover) can prove the history it rolls back through is untampered.")
    Term.(const run $ image_arg $ take_arg)

let cmd_recover =
  let to_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "to" ] ~docv:"NAME" ~doc:"Mark to roll back to (see $(b,landmark)).")
  in
  let path_opt =
    Arg.(value & opt string "" & info [ "path" ] ~docv:"PATH" ~doc:"Subtree to restore (default: whole tree).")
  in
  let run image name path =
    let s = open_session image 0 in
    let lm =
      try S4_tools.Landmark.create s.drive
      with Failure m ->
        prerr_endline ("error: " ^ m);
        close_session image s;
        exit 1
    in
    (match S4_tools.Landmark.find_mark lm name with
     | None ->
       prerr_endline ("error: no mark named " ^ name);
       close_session image s;
       exit 1
     | Some m ->
       (match S4_tools.Landmark.verify_since lm m with
        | Ok () -> Printf.printf "audit chain since mark %S verifies\n" name
        | Error errs ->
          List.iter (fun e -> prerr_endline ("error: " ^ e)) errs;
          close_session image s;
          exit 1);
       let rec_ = Recovery.create s.drive in
       let report = or_die (Recovery.restore_tree rec_ ~at:m.S4_tools.Landmark.m_at ~path) in
       Format.printf "rolled back to %a@.%a@." S4_tools.Landmark.pp_mark m Recovery.pp_report
         report);
    close_session image s
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Roll a subtree back to a named mark (admin; copy-forward). Verifies the audit chain \
          from the mark's recorded head first — a rollback through tampered history is refused.")
    Term.(const run $ image_arg $ to_arg $ path_opt)

let cmd_fsck =
  let run image =
    let s = open_session image 0 in
    (match Drive.fsck s.drive with
     | [] -> print_endline "clean: all cross-layer invariants hold"
     | errs ->
       List.iter print_endline errs;
       exit 1);
    close_session image s
  in
  Cmd.v (Cmd.info "fsck" ~doc:"Check drive invariants.") Term.(const run $ image_arg)

let cmd_info =
  let run image =
    let s = open_session image 0 in
    Format.printf "%a@." Drive.pp_stats s.drive;
    Format.printf "%a@." Sim_disk.pp_stats s.disk;
    Printf.printf "simulated time: %Ld ns (%.2f days)\n" (Simclock.now s.clock)
      (Simclock.seconds s.clock /. 86400.0);
    close_session image s
  in
  Cmd.v (Cmd.info "info" ~doc:"Show drive statistics.") Term.(const run $ image_arg)

let cmd_trace =
  let run image user path at =
    let s = open_session image user in
    Metrics.reset ();
    Trace.clear ();
    Trace.enable ();
    (match at with
     | None -> ignore (nfs_die (Translator.read_file s.tr path))
     | Some at ->
       let h = History.create s.drive in
       ignore (or_die (History.cat_path h ~at path)));
    Trace.disable ();
    let spans = Trace.spans () in
    Format.printf "%a@." Trace.pp_tree spans;
    let res = Check.run spans in
    (match res.Check.violations with
     | [] -> Printf.printf "checker: %d spans, no violations\n" res.Check.spans_checked
     | vs ->
       List.iter (fun v -> Printf.printf "checker VIOLATION: %s\n" v) vs;
       exit 1);
    close_session image s
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Read a file with the span tracer on and print the nested span tree across all layers.")
    Term.(const run $ image_arg $ user_arg $ path_arg $ at_arg)

(* Walk the whole tree — stat everything, read every file — so the
   registry shows per-RPC-kind latency for the drive's contents. *)
let rec metrics_walk tr fh =
  match Translator.handle tr (N.Readdir fh) with
  | N.R_entries entries ->
    List.iter
      (fun (e : N.dirent) ->
        match Translator.handle tr (N.Getattr e.N.fh) with
        | N.R_attr a ->
          (match a.N.ftype with
           | N.Fdir -> metrics_walk tr e.N.fh
           | N.Freg | N.Flnk ->
             ignore
               (Translator.handle tr (N.Read { fh = e.N.fh; off = 0; len = max a.N.size 1 })))
        | _ -> ())
      entries
  | _ -> ()

let cmd_metrics =
  let run image connect user =
    match target image connect with
    | T_local image ->
      let s = open_session image user in
      Metrics.reset ();
      Wire.ensure_metrics ();
      Trace.clear ();
      Trace.enable ();
      metrics_walk s.tr (Translator.root s.tr);
      Trace.disable ();
      (match Drive.throttle s.drive with
       | Some th -> S4.Throttle.export_metrics th
       | None -> ());
      Format.printf "%a" Metrics.pp ();
      Printf.printf "(%d spans recorded)\n" (Trace.count ());
      close_session image s
    | T_remote (host, port) ->
      let r = open_remote ~user host port in
      Metrics.reset ();
      Wire.ensure_metrics ();
      metrics_walk r.rtr (Translator.root r.rtr);
      Format.printf "%a" Metrics.pp ();
      Printf.printf "(client: %d retries, %d reconnects)\n" (Netclient.retries r.rclient)
        (Netclient.reconnects r.rclient);
      close_remote r
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Walk the drive with tracing on and print the metrics registry (counters + latency histograms).")
    Term.(const run $ image_opt_arg $ connect_arg $ user_arg)

(* --state FILE holds the last verified sealed head, one line:
   "epoch records hex(sha256)". It is the admin's off-drive trust
   anchor — with it, verify-log resumes incrementally and detects
   rollback (a drive restored to before the anchor) and forks (a
   rewritten history that no longer contains it). *)
let hash_of_hex s =
  let digit c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  if String.length s <> 2 * Chain.hash_len then None
  else
    let b = Bytes.create Chain.hash_len in
    let ok = ref true in
    for i = 0 to Chain.hash_len - 1 do
      match (digit s.[2 * i], digit s.[(2 * i) + 1]) with
      | Some hi, Some lo -> Bytes.set b i (Char.chr ((hi lsl 4) lor lo))
      | _ -> ok := false
    done;
    if !ok then Some (Bytes.to_string b) else None

let read_state file =
  if not (Sys.file_exists file) then None
  else
    match In_channel.with_open_text file In_channel.input_all with
    | s -> (
      match String.split_on_char ' ' (String.trim s) with
      | [ e; r; hex ] -> (
        match (int_of_string_opt e, int_of_string_opt r, hash_of_hex hex) with
        | Some epoch, Some records, Some hash -> Some { Chain.epoch; records; hash }
        | _ ->
          prerr_endline ("error: unparsable trust anchor in " ^ file);
          exit 1)
      | _ ->
        prerr_endline ("error: unparsable trust anchor in " ^ file);
        exit 1)
    | exception Sys_error m ->
      prerr_endline ("error: " ^ m);
      exit 1

let write_state file (h : Chain.head) =
  Out_channel.with_open_text file (fun oc ->
      Printf.fprintf oc "%d %d %s\n" h.Chain.epoch h.Chain.records
        (S4_util.Sha256.to_hex h.Chain.hash))

let cmd_verify_log =
  let state_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state" ] ~docv:"FILE"
          ~doc:
            "Trust-anchor file. If it exists, verification resumes from the head it records \
             (detecting rollback and rewritten history); on a clean verify it is updated to the \
             newest sealed head.")
  in
  let lenient_arg =
    Arg.(
      value & flag
      & info [ "lenient" ]
          ~doc:
            "Accept a torn unsealed tail (the state a crash legitimately leaves). Local images \
             only.")
  in
  let finish ~state ~clean (newest : Chain.head option) =
    (match (state, clean, newest) with
     | Some file, true, Some h ->
       write_state file h;
       Printf.printf "trust anchor %s updated: %s\n" file
         (Format.asprintf "%a" Chain.pp_head h)
     | Some _, true, None ->
       print_endline "trust anchor left unchanged (nothing sealed to anchor)"
     | Some _, false, _ -> print_endline "trust anchor left unchanged (verification failed)"
     | None, _, _ -> ());
    if not clean then exit 1
  in
  let run image connect state lenient =
    match target image connect with
    | T_local image ->
      let s = open_session image 0 in
      let from = Option.join (Option.map read_state state) in
      let res = Audit.verify ?from ~lenient_tail:lenient (Drive.audit s.drive) in
      Format.printf "%a@." Chain.pp_result res;
      (* Seal whatever the session itself appended, so the anchor we
         save covers the newest sealed epoch. *)
      (match Backend.handle (Drive.backend s.drive) Rpc.admin_cred Rpc.Sync with Rpc.R_unit -> () | _ -> ());
      let newest = Audit.sealed_head (Drive.audit s.drive) in
      let clean = Chain.clean res in
      close_session image s;
      finish ~state ~clean (if newest.Chain.records = 0 then None else Some newest)
    | T_remote (host, port) ->
      if lenient then begin
        prerr_endline "error: --lenient needs the image; a live drive's chain must be whole";
        exit 1
      end;
      let r = open_remote ~user:0 host port in
      let from = Option.join (Option.map read_state state) in
      (match Netclient.handle r.rclient Rpc.admin_cred (Rpc.Verify_log { from }) with
       | Rpc.R_verify res ->
         Format.printf "%a@." Chain.pp_result res;
         close_remote r;
         (* Only a fully sealed head is a safe anchor: an unsealed
            tail may legitimately vanish in a crash. *)
         let newest =
           match res.Chain.v_head with Some h when res.Chain.v_tail = 0 -> Some h | _ -> None
         in
         finish ~state ~clean:(Chain.clean res) newest
       | r' ->
         Format.eprintf "error: %a@." Rpc.pp_resp r';
         close_remote r;
         exit 1)
  in
  Cmd.v
    (Cmd.info "verify-log"
       ~doc:
         "Re-walk the audit log's tamper-evident hash chain (admin). Detects rewritten, dropped, \
          reordered and forked history; with --state, resumes from and maintains an off-drive \
          trust anchor.")
    Term.(const run $ image_opt_arg $ connect_arg $ state_arg $ lenient_arg)

let () =
  let doc = "operate a simulated self-securing (S4) storage drive" in
  let info = Cmd.info "s4cli" ~version:"1.0" ~doc in
  exit (Cmd.eval (Cmd.group info
    [ cmd_format; cmd_write; cmd_cat; cmd_ls; cmd_rm; cmd_versions; cmd_log; cmd_restore;
      cmd_landmark; cmd_recover; cmd_fsck; cmd_verify_log; cmd_info; cmd_trace; cmd_metrics ]))
