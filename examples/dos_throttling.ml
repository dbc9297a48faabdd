(* History-pool exhaustion attack and the drive's hybrid defence
   (Section 3.3): space exhaustion cannot be prevented outright, so the
   drive detects probable abuse and throttles the offending client,
   keeping well-behaved users responsive while the administrator
   reacts.

   Run with: dune exec examples/dos_throttling.exe *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Drive = S4.Drive
module Rpc = S4.Rpc
module Throttle = S4.Throttle

let () =
  let clock = Simclock.create () in
  let disk =
    Sim_disk.create ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(48 * 1024 * 1024)) clock
  in
  (* A small history reserve makes the attack bite quickly. *)
  let config =
    {
      Drive.default_config with
      Drive.history_reserve = 0.05;
      window = Int64.mul 365L (Int64.mul 86_400L 1_000_000_000L);
    }
  in
  let drive = Drive.format ~config disk in
  let s4 = Drive.backend drive in
  let attacker = Rpc.user_cred ~user:66 ~client:666 in
  let honest = Rpc.user_cred ~user:1 ~client:10 in

  let mk cred =
    match S4.Backend.handle s4 cred (Rpc.Create { acl = [] }) with
    | Rpc.R_oid oid -> oid
    | _ -> failwith "create"
  in
  let victim = mk attacker in
  let own = mk honest in

  let latency cred req =
    let t0 = Simclock.now clock in
    ignore (S4.Backend.handle s4 cred req);
    Int64.to_float (Int64.sub (Simclock.now clock) t0) /. 1e6
  in

  Printf.printf "baseline request latencies:\n";
  Printf.printf "  attacker getattr: %.2f ms\n" (latency attacker (Rpc.Get_attr { oid = victim; at = None }));
  Printf.printf "  honest   getattr: %.2f ms\n\n" (latency honest (Rpc.Get_attr { oid = own; at = None }));

  (* The attack: overwrite the same object over and over, pushing an
     unbounded stream of versions into the history pool. *)
  Printf.printf "attacker floods the history pool with overwrites...\n";
  let junk = Bytes.make 8192 'j' in
  let rounds = ref 0 in
  let throttled_at = ref None in
  (try
     for i = 1 to 4000 do
       (match S4.Backend.handle s4 attacker (Rpc.Write { oid = victim; off = 0; len = 8192; data = Some junk }) with
        | Rpc.R_error Rpc.No_space -> raise Exit
        | _ -> ());
       incr rounds;
       Simclock.advance clock (Simclock.of_ms 1.0);
       match (!throttled_at, Drive.throttle drive) with
       | None, Some th when Throttle.is_throttled th ~client:666 -> throttled_at := Some i
       | _ -> ()
     done
   with Exit -> ());
  ignore (S4.Backend.handle s4 attacker Rpc.Sync);
  Printf.printf "  %d overwrites accepted; pool pressure now %.0f%%\n" !rounds (100.0 *. Drive.pool_pressure drive);
  (match !throttled_at with
   | Some i -> Printf.printf "  abuse detected and throttling engaged after %d writes\n" i
   | None -> Printf.printf "  (throttle did not engage)\n");

  (match Drive.throttle drive with
   | Some th ->
     Printf.printf "\nper-client standing with the pool under pressure:\n";
     Printf.printf "  attacker share of recent growth: %.0f%%  throttled: %b\n"
       (100.0 *. Throttle.client_share th ~client:666)
       (Throttle.is_throttled th ~client:666);
     Printf.printf "  honest   share of recent growth: %.0f%%  throttled: %b\n"
       (100.0 *. Throttle.client_share th ~client:10)
       (Throttle.is_throttled th ~client:10)
   | None -> ());

  Printf.printf "\nlatencies under attack:\n";
  Printf.printf "  attacker getattr: %.2f ms  <- penalised\n"
    (latency attacker (Rpc.Get_attr { oid = victim; at = None }));
  Printf.printf "  honest   getattr: %.2f ms  <- unaffected\n"
    (latency honest (Rpc.Get_attr { oid = own; at = None }));

  (* The administrator reacts: shrink the window and flush the junk. *)
  Printf.printf "\nadministrator intervenes: SetWindow + Flush of the attack period\n";
  ignore (S4.Backend.handle s4 Rpc.admin_cred (Rpc.Set_window { window = Simclock.of_seconds 60.0 }));
  ignore (S4.Backend.handle s4 Rpc.admin_cred (Rpc.Flush { until = Simclock.now clock }));
  ignore (Drive.run_cleaner drive);
  Printf.printf "  pool pressure after flush: %.0f%%\n" (100.0 *. Drive.pool_pressure drive)
