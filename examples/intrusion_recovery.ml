(* The paper's motivating scenario, end to end.

   An intruder compromises a user account on the host, scrubs the
   system log, trojans a daemon binary, plants a backdoor and covers
   their tracks. The host OS is helpless — but the storage is
   self-securing: the administrator uses the drive's audit log to
   diagnose the intrusion and the history pool to restore the system,
   without reinstalling and without losing the legitimate work that
   happened before the break-in.

   Run with: dune exec examples/intrusion_recovery.exe *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Drive = S4.Drive
module Rpc = S4.Rpc
module N = S4_nfs.Nfs_types
module Translator = S4_nfs.Translator
module History = S4_tools.History
module Recovery = S4_tools.Recovery
module Diagnosis = S4_tools.Diagnosis
module Diag_target = S4_tools.Target

let section title = Printf.printf "\n=== %s ===\n" title

let write tr path s =
  match Translator.write_file tr path (Bytes.of_string s) with
  | Ok fh -> fh
  | Error e -> Format.kasprintf failwith "write %s: %a" path N.pp_error e

let cat tr path =
  match Translator.read_file tr path with
  | Ok b -> Bytes.to_string b
  | Error e -> Format.kasprintf failwith "read %s: %a" path N.pp_error e

let () =
  let clock = Simclock.create () in
  let disk =
    Sim_disk.create ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(128 * 1024 * 1024)) clock
  in
  let drive = Drive.format disk in
  (* The legitimate user's NFS mount (Fig. 1b configuration). *)
  let user_cred = Rpc.user_cred ~user:1 ~client:10 in
  let tr = Translator.mount ~cred:user_cred (Translator.Local drive) in

  section "day 1: normal operation";
  ignore (write tr "var/log/auth.log" "08:00 login alice from 10.0.0.5\n08:30 logout alice\n");
  ignore (write tr "usr/sbin/sshd" "SSHD-BINARY v1.2.27 (clean build)");
  ignore (write tr "home/alice/thesis.tex" "\\chapter{Introduction} Storage that defends itself...");
  Printf.printf "system files and user data written\n";
  Simclock.advance clock (Simclock.of_seconds 3600.0);
  let pre_intrusion = Simclock.now clock in

  section "day 2: the intrusion (using the stolen account)";
  (* The intruder holds alice's credential — exactly the threat model:
     compromising the host gains real users' identities. *)
  let dirty = Translator.mount ~cred:user_cred (Translator.Local drive) in
  ignore (write dirty "usr/sbin/sshd" "SSHD-BINARY v1.2.27 +BACKDOOR on port 31337");
  ignore (write dirty "var/log/auth.log" "08:00 login alice from 10.0.0.5\n08:30 logout alice\n");
  (* ^ log scrubbed: the intruder's own login line never appears *)
  ignore (write dirty "tmp/.hidden_rootkit.sh" "#!/bin/sh\nnc -l 31337 -e /bin/sh\n");
  (* The legitimate user keeps working, entangling her changes. *)
  Simclock.advance clock (Simclock.of_seconds 600.0);
  ignore (write tr "home/alice/thesis.tex" "\\chapter{Introduction} Storage that defends itself. NEW PARAGRAPH written after the break-in.");
  Printf.printf "log scrubbed, daemon trojaned, rootkit planted; user kept working\n";

  (* The intruder tries to destroy the evidence wholesale — and cannot:
     destructive administrative commands need the admin credential. *)
  (match S4.Backend.handle (Drive.backend drive) user_cred (Rpc.Flush { until = Int64.max_int }) with
   | Rpc.R_error Rpc.Permission_denied -> Printf.printf "intruder's Flush attempt: DENIED (and audited)\n"
   | _ -> failwith "security perimeter breached!");

  section "day 3: diagnosis from inside the perimeter";
  Simclock.advance clock (Simclock.of_seconds 3600.0);
  let report = Diagnosis.damage_report ~client:10 ~since:pre_intrusion ~until:(Simclock.now clock) (Diag_target.Drive drive) in
  Printf.printf "objects touched by the compromised client since the intrusion:\n";
  List.iter (fun a -> Format.printf "  %a@." Diagnosis.pp_activity a) report;
  let denials = Diagnosis.suspicious_denials ~since:pre_intrusion ~until:(Simclock.now clock) (Diag_target.Drive drive) in
  Printf.printf "denied (probing) requests: %d\n" (List.length denials);

  (* The scrubbed log lines are still in the history pool. (The
     admin's client caches nothing from before the intrusion.) *)
  Translator.invalidate_caches tr;
  let h = History.create drive in
  Printf.printf "\nauth.log as the intruder left it:\n  %S\n" (cat tr "var/log/auth.log");
  (match History.cat_path h ~at:pre_intrusion "var/log/auth.log" with
   | Ok b -> Printf.printf "auth.log as it really was (history pool):\n  %S\n" (Bytes.to_string b)
   | Error m -> failwith m);
  (* Even the deleted rootkit would be recoverable; here it still sits
     in tmp — show the trojan diff instead. *)
  (match History.cat_path h ~at:pre_intrusion "usr/sbin/sshd" with
   | Ok b -> Printf.printf "sshd before: %S\n" (Bytes.to_string b)
   | Error m -> failwith m);
  Printf.printf "sshd now:    %S\n" (cat tr "usr/sbin/sshd");

  section "recovery: restore the system tree, keep the user's new work";
  let rec_ = Recovery.create drive in
  (match Recovery.restore_tree rec_ ~at:pre_intrusion ~path:"usr" with
   | Ok r -> Format.printf "usr: %a@." Recovery.pp_report r
   | Error m -> failwith m);
  (match Recovery.restore_tree rec_ ~at:pre_intrusion ~path:"var" with
   | Ok r -> Format.printf "var: %a@." Recovery.pp_report r
   | Error m -> failwith m);
  (* tmp did not even exist before the intrusion, so the rootkit is
     removed surgically (the damage report above pointed straight at
     it); the object itself stays in the history pool as evidence. *)
  ignore rec_;
  Translator.invalidate_caches tr;
  (match Translator.lookup_path tr "tmp" with
   | Ok (dir, _) ->
     (match Translator.handle tr (N.Remove { dir; name = ".hidden_rootkit.sh" }) with
      | N.R_unit -> Printf.printf "tmp: rootkit removed from the namespace\n"
      | _ -> failwith "remove rootkit")
   | Error e -> Format.kasprintf failwith "lookup tmp: %a" N.pp_error e);
  Translator.invalidate_caches tr;
  Printf.printf "\nafter recovery:\n";
  Printf.printf "  sshd     : %S\n" (cat tr "usr/sbin/sshd");
  Printf.printf "  auth.log : %S\n" (cat tr "var/log/auth.log");
  Printf.printf "  thesis   : %S\n" (cat tr "home/alice/thesis.tex");
  (match Translator.lookup_path tr "tmp/.hidden_rootkit.sh" with
   | Error N.Enoent -> Printf.printf "  rootkit  : gone from the namespace\n"
   | _ -> failwith "rootkit survived?!");
  (* ... but the forensic copy is still there for the investigators. *)
  match History.cat_path h ~at:(Int64.add pre_intrusion (Simclock.of_seconds 300.0)) "tmp/.hidden_rootkit.sh" with
  | Ok b -> Printf.printf "  evidence : %S (from the history pool)\n" (Bytes.to_string b)
  | Error m -> failwith m
