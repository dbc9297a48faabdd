(* Multi-device coordination (paper Section 6): a mirrored pair of
   self-securing drives keeps serving — current data AND history —
   through the failure of either replica.

   Run with: dune exec examples/mirrored_drives.exe *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Drive = S4.Drive
module Rpc = S4.Rpc
module Mirror = S4_multi.Mirror

let alice = Rpc.user_cred ~user:1 ~client:1

let expect_oid = function
  | Rpc.R_oid oid -> oid
  | r -> Format.kasprintf failwith "expected oid: %a" Rpc.pp_resp r

let ok = function
  | Rpc.R_error e -> Format.kasprintf failwith "failed: %a" Rpc.pp_error e
  | _ -> ()

let () =
  let clock = Simclock.create () in
  let geometry = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(64 * 1024 * 1024) in
  let mk () = Drive.format (Sim_disk.create ~geometry clock) in
  let m = Mirror.create (mk ()) (mk ()) in
  let call req = (Mirror.submit m alice [| req |]).(0) in

  let write oid s =
    ok (call (Rpc.Write { oid; off = 0; len = String.length s; data = Some (Bytes.of_string s) }))
  in
  let read ?at oid =
    match call (Rpc.Read { oid; off = 0; len = 4096; at }) with
    | Rpc.R_data b -> Bytes.to_string b
    | r -> Format.kasprintf failwith "read: %a" Rpc.pp_resp r
  in

  let oid = expect_oid (call (Rpc.Create { acl = [] })) in
  write oid "generation one";
  let t1 = Simclock.now clock in
  Simclock.advance clock (Simclock.of_seconds 60.0);
  write oid "generation TWO";
  Printf.printf "mirrored object %Ld: %S (replicas agree: %b)\n" oid (read oid)
    (Mirror.divergence m = []);

  (* The primary dies. Nothing is lost: the secondary has the current
     data and the full history pool. *)
  Mirror.set_failed m Mirror.Primary true;
  Printf.printf "\nprimary FAILED\n";
  Printf.printf "  current from secondary : %S\n" (read oid);
  Printf.printf "  history from secondary : %S\n" (read ~at:t1 oid);

  (* Writes continue on the survivor; the mirror journals them. *)
  write oid "generation three (degraded)";
  Printf.printf "  degraded write accepted; %d mutations journalled for resync\n" (Mirror.lag m);

  (* The primary is repaired and catches up. *)
  Mirror.set_failed m Mirror.Primary false;
  (match Mirror.resync m with
   | Ok n -> Printf.printf "\nprimary repaired: %d mutations replayed\n" n
   | Error e -> failwith e);
  Printf.printf "replicas agree again: %b\n" (Mirror.divergence m = []);
  Printf.printf "history survives on both replicas: %S\n"
    (match
       S4.Backend.handle (Drive.backend (Mirror.drive m Mirror.Primary)) Rpc.admin_cred
         (Rpc.Read { oid; off = 0; len = 64; at = Some t1 })
     with
     | Rpc.R_data b -> Bytes.to_string b
     | r -> Format.asprintf "%a" Rpc.pp_resp r)
