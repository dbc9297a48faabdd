open Harness

(* ------------------------------------------------------------------ *)
(* Fault sweep: throughput and recovery under injected media faults    *)

let faults () =
  Report.heading "Fault sweep: injected media faults vs throughput and retries";
  let ops = if !full_scale then 20_000 else 4_000 in
  let payload = Bytes.make 4096 'f' in
  let run_at rate =
    let disk = sized_disk 256 in
    let drive = Drive.format disk in
    let policy =
      S4_disk.Fault.create
        ~config:
          {
            S4_disk.Fault.quiet with
            transient_write_rate = rate;
            transient_read_rate = rate /. 10.;
          }
        (Rng.create ~seed:(rng_seed 97))
    in
    Sim_disk.set_fault disk (Some policy);
    let oids =
      Drive.submit drive cred (Array.init 8 (fun _ -> Rpc.Create { acl = [] }))
      |> Array.to_list
      |> List.map (function
           | Rpc.R_oid o -> o
           | r -> failwith (Format.asprintf "create: %a" Rpc.pp_resp r))
    in
    let completed = ref 0 and errors = ref 0 in
    let b = Drive.backend drive in
    for i = 0 to ops - 1 do
      let oid = List.nth oids (i mod 8) in
      let req =
        if i mod 8 = 7 then Rpc.Sync
        else Rpc.Write { oid; off = 4096 * (i mod 64); len = 4096; data = Some payload }
      in
      match Backend.handle b cred req with
      | Rpc.R_error _ -> incr errors
      | _ -> incr completed
    done;
    Sim_disk.set_fault disk None;
    let secs = Simclock.seconds (Sim_disk.clock disk) in
    let retries = (Log.stats (Drive.log drive)).Log.io_retries in
    ( rate,
      float_of_int !completed /. secs,
      retries,
      Drive.io_errors drive,
      !errors,
      Drive.degraded drive )
  in
  let rows =
    List.map
      (fun rate ->
        let rate, tput, retries, io_errors, rpc_errors, degraded = run_at rate in
        Report.record ~experiment:"faults"
          [
            ("fault_rate", rate);
            ("ops_per_sim_second", tput);
            ("io_retries", float_of_int retries);
            ("io_errors", float_of_int io_errors);
            ("rpc_errors", float_of_int rpc_errors);
            ("degraded", if degraded then 1.0 else 0.0);
          ];
        [
          Printf.sprintf "%.0e" rate;
          Printf.sprintf "%.0f" tput;
          string_of_int retries;
          string_of_int io_errors;
          string_of_int rpc_errors;
          (if degraded then "yes" else "no");
        ])
      [ 0.0; 1e-4; 1e-3; 1e-2 ]
  in
  Report.table
    ~header:[ "fault rate"; "ops/sim-s"; "io retries"; "io errors"; "rpc errors"; "degraded" ]
    rows;
  (* Crash-recovery spot check: random crash points through the same
     machinery the test suite sweeps exhaustively. *)
  let reports = S4_tools.Crashtest.sweep ~seed:(rng_seed 23) ~runs:(if !full_scale then 60 else 20) () in
  let failed = S4_tools.Crashtest.failed_reports reports in
  let snaps = List.fold_left (fun a r -> a + r.S4_tools.Crashtest.snapshots) 0 reports in
  let audit = List.fold_left (fun a r -> a + r.S4_tools.Crashtest.audit_checked) 0 reports in
  Printf.printf
    "\nCrash sweep: %d randomized crash points, %d snapshot states and %d audit records verified, %d invariant violations.\n"
    (List.length reports) snaps audit (List.length failed);
  List.iter
    (fun r -> Format.printf "  VIOLATION %a@." S4_tools.Crashtest.pp_report r)
    failed

(* ------------------------------------------------------------------ *)
(* Intrusion campaigns: detection, forensics and rollback end to end   *)

(* Seeded attacker campaigns (trojaned binaries, log scrubbing,
   timestomping, mass deletion, slow exfiltration) against a single
   drive and a 4-shard mirrored array, at growing damage scales. Each
   cell reports detection latency per attack class, rollback time
   against damage size, and the RPC rate sustained during recovery —
   and is gated on the ground-truth oracle: any undetected class,
   surviving attacker mutation, lost legitimate write or broken audit
   chain fails the whole run. *)
let intrusion () =
  Report.heading "Intrusion campaigns: detection latency, rollback cost, recovery throughput";
  let seed = rng_seed 42 in
  let scales = if !full_scale then [ 2; 4; 8; 12 ] else [ 2; 4; 8 ] in
  let cells =
    List.concat_map
      (fun apc ->
        [
          ( Printf.sprintf "drive/x%d" apc,
            { Campaign.default with Campaign.seed; attacks_per_class = apc } );
          ( Printf.sprintf "array4m/x%d" apc,
            { Campaign.default with
              Campaign.seed;
              attacks_per_class = apc;
              deployment = Campaign.Array { shards = 4; mirrored = true };
              disk_mb = 32 } );
        ])
      scales
  in
  let failures = ref 0 in
  let rows =
    List.map
      (fun (label, cfg) ->
        let o = Campaign.run cfg in
        (match Campaign.problems o with
         | [] -> ()
         | ps ->
           incr failures;
           Printf.eprintf "intrusion %s: oracle violations:\n" label;
           List.iter (fun p -> Printf.eprintf "  %s\n" p) ps);
        let lats = List.map snd o.Campaign.o_classes in
        let worst = List.fold_left max 0.0 lats in
        let mean = List.fold_left ( +. ) 0.0 lats /. float_of_int (List.length lats) in
        Report.record ~experiment:"intrusion" ~label
          ([
             ("attack_ops", float_of_int o.Campaign.o_attack_ops);
             ("damage_objects", float_of_int o.Campaign.o_damage_objects);
             ("damage_bytes", float_of_int o.Campaign.o_damage_bytes);
             ("denied_probes", float_of_int o.Campaign.o_denied_probes);
             ("detect_latency_mean_s", mean);
             ("detect_latency_worst_s", worst);
             ("rollback_s", o.Campaign.o_rollback_s);
             ("recovery_rpcs", float_of_int o.Campaign.o_recovery_rpcs);
             ("recovery_ops_per_s", o.Campaign.o_recovery_ops_per_s);
             ("files_restored", float_of_int o.Campaign.o_report.S4_tools.Recovery.files_restored);
             ("intruder_entries_removed", float_of_int o.Campaign.o_report.S4_tools.Recovery.files_removed);
             ("oracle_violations", float_of_int (List.length (Campaign.problems o)));
           ]
          @ List.map (fun (c, l) -> ("detect_" ^ c ^ "_s", l)) o.Campaign.o_classes);
        [
          label;
          string_of_int o.Campaign.o_damage_objects;
          string_of_int o.Campaign.o_damage_bytes;
          Printf.sprintf "%.2f" mean;
          Printf.sprintf "%.2f" worst;
          Printf.sprintf "%.3f" o.Campaign.o_rollback_s;
          Printf.sprintf "%.0f" o.Campaign.o_recovery_ops_per_s;
          (if Campaign.clean o then "clean" else "VIOLATED");
        ])
      cells
  in
  Report.table
    ~header:
      [ "cell"; "objects"; "bytes"; "detect mean s"; "detect worst s"; "rollback s";
        "rec ops/s"; "oracle" ]
    rows;
  Report.note
    "every cell is oracle-gated: all five attack classes detected, zero surviving attacker \
     mutations, zero lost legitimate writes, audit chain verified end to end";
  if !failures > 0 then fail "%d cells violated the recovery oracle" !failures
