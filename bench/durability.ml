open Harness

let sizes = [ 1; 2; 4; 8; 16; 32; 64 ]

(* Sync-bound configuration: the default 550us-per-RPC CPU charge caps
   simulated throughput at ~1.8k ops/s regardless of barriers, hiding
   exactly the cost these sweeps measure. Dial it down so the
   durability barrier dominates each cell. *)
let sync_bound_config = { Systems.content_drive_config with Drive.cpu_us_per_rpc = 50.0 }

(* ------------------------------------------------------------------ *)
(* Batch: vectored submission with group commit                        *)

(* Sweep the batch size over sync-bound mutations on three producers
   of the S4.Backend.t surface. Every batch ends in one durability
   barrier, so size 1 reproduces the old one-sync-per-mutation path
   and larger sizes amortize the barrier (group commit). Direct and
   sharded throughput is simulated time (the barrier is simulated disk
   work); the TCP cell's win is round trips, so it reports wall time. *)
let batch () =
  Report.heading "Batch: vectored submission group-commit sweep (batch size 1..64)";
  let total = if !full_scale then 2048 else 512 in
  List.iter
    (fun (wl_name, kind) ->
      Printf.printf "\nworkload: sync-bound %ss (%d ops, 1 barrier per batch)\n" wl_name total;
      let rows =
        List.map
          (fun (p : producer) ->
            let base = ref 0.0 in
            let row =
              List.map
                (fun k ->
                  let ops, t, rate = sync_cell p ~total ~batch:k kind in
                  if k = 1 then base := rate;
                  Report.record ~experiment:"batch"
                    ~label:(Printf.sprintf "%s/%s/%d" p.name wl_name k)
                    [
                      ("batch", float_of_int k);
                      ("ops", float_of_int ops);
                      ("sim_seconds", t.sim_s);
                      ("wall_seconds", t.wall_s);
                      ("ops_per_second", rate);
                      ("speedup_vs_1", rate /. !base);
                    ];
                  Printf.sprintf "%.0f (%.1fx)" rate (rate /. !base))
                sizes
            in
            basis_name p :: row)
          (producers sync_bound_config)
      in
      Report.table ~header:("backend \\ batch" :: List.map string_of_int sizes) rows)
    [ ("write", `Write); ("create", `Create) ]

(* ------------------------------------------------------------------ *)
(* Integrity: what sealing the audit chain costs                       *)

(* Chaining itself is always on (a SHA-256 per audit record, CPU only);
   what the config gates is the per-barrier epoch seal — one extra log
   block riding the same flush as the records it covers. This sweep
   prices that seal against the unsealed drive across batch sizes and
   deployments; group commit amortizes one seal per batch, so the loss
   shrinks as the batch grows. The acceptance bound: a simulated
   batch-16 cell loses less than 10% throughput. The wall-clock TCP row
   swings by more than that between runs and stays report-only. *)
let integrity () =
  Report.heading "Integrity: epoch-seal overhead at the durability barrier (batch 1..64)";
  let total = if !full_scale then 2048 else 512 in
  let sealed = producers { sync_bound_config with Drive.integrity = true }
  and unsealed = producers { sync_bound_config with Drive.integrity = false } in
  Printf.printf "\nsync-bound 4 KiB writes (%d ops, 1 barrier per batch); loss = sealed vs unsealed\n"
    total;
  let over_bound = ref [] in
  let rows =
    List.map2
      (fun (p_off : producer) (p_on : producer) ->
        let row =
          List.map
            (fun k ->
              let ops, _, off = sync_cell p_off ~total ~batch:k `Write in
              let _, _, on = sync_cell p_on ~total ~batch:k `Write in
              let loss_pct = 100.0 *. (1.0 -. (on /. off)) in
              Report.record ~experiment:"integrity"
                ~label:(Printf.sprintf "%s/%d" p_on.name k)
                [
                  ("batch", float_of_int k);
                  ("ops", float_of_int ops);
                  ("sealed_ops_per_second", on);
                  ("unsealed_ops_per_second", off);
                  ("loss_pct", loss_pct);
                ];
              if p_on.basis = Sim && k = 16 && loss_pct >= 10.0 then
                over_bound := Printf.sprintf "%s %.1f%%" p_on.name loss_pct :: !over_bound;
              Printf.sprintf "%.1f%%" loss_pct)
            sizes
        in
        basis_name p_on :: row)
      unsealed sealed
  in
  Report.table ~header:("backend \\ batch" :: List.map string_of_int sizes) rows;
  if !over_bound <> [] then
    fail "batch-16 seal loss at or over the 10%% bound: %s"
      (String.concat ", " (List.rev !over_bound))

(* ------------------------------------------------------------------ *)
(* Persist: what real durability costs                                 *)

(* The batch-16 sync-bound write workload from the group-commit sweep,
   run over the two sector backings: in-memory (the simulation
   baseline, no host I/O) and file-backed (pwrite + one fsync per
   barrier). Simulated time is identical across backings by
   construction — the timing model doesn't know where sectors live —
   so the wall-clock column is the durability price. *)
let persist () =
  Report.heading "Persist: sector-store backings under sync-bound writes (batch 16)";
  let total = if !full_scale then 2048 else 512 in
  let k = 16 in
  let backings =
    [
      ("sim", fun () -> (sized_disk 64, ignore));
      ( "file",
        fun () ->
          let path = Filename.temp_file "s4persist" ".s4" in
          (Sim_disk.of_file (File_disk.create ~path (geometry_mb 64)), fun () -> Sys.remove path) );
    ]
  in
  let rows =
    List.map
      (fun (name, mk) ->
        let t =
          measure ~best_of:3 (fun () ->
              let disk, cleanup = mk () in
              let backend = Drive.backend (Drive.format ~config:sync_bound_config disk) in
              let work = sync_writes backend ~total ~batch:k `Write in
              let fsyncs () =
                match Sim_disk.file_backing disk with Some f -> File_disk.syncs f | None -> 0
              in
              ( backend.Backend.clock,
                (fun () ->
                  work ();
                  fsyncs ()),
                fun () ->
                  Sim_disk.close disk;
                  cleanup () ))
        in
        let wall_rate = float_of_int total /. t.wall_s in
        Report.record ~experiment:"persist" ~label:name
          [
            ("batch", float_of_int k);
            ("ops", float_of_int total);
            ("sim_seconds", t.sim_s);
            ("wall_seconds", t.wall_s);
            ("wall_ops_per_second", wall_rate);
            ("sim_ops_per_second", float_of_int total /. t.sim_s);
            ("fsyncs", float_of_int t.value);
          ];
        [
          name;
          Printf.sprintf "%.3f" t.sim_s;
          Printf.sprintf "%.4f" t.wall_s;
          Printf.sprintf "%.0f" wall_rate;
          string_of_int t.value;
        ])
      backings
  in
  Report.table
    ~header:[ "backing"; "sim s"; "wall s (best of 3)"; "wall writes/s"; "fsyncs" ]
    rows

(* ------------------------------------------------------------------ *)
(* Kill -9: acked-write durability across real process kills           *)

let kill9 () =
  Report.heading "Kill -9: fork a server, kill it cold, verify every acked sync";
  let runs = if !full_scale then 60 else 30 in
  let seed = rng_seed 42 in
  let reports = Crashtest.kill9_sweep ~seed ~runs () in
  List.iter (fun r -> Format.printf "  %a@." Crashtest.pp_report r) reports;
  let failed = Crashtest.failed_reports reports in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  let acked = sum (fun r -> r.Crashtest.ops_before_crash) in
  let snaps = sum (fun r -> r.Crashtest.snapshots) in
  let audit = sum (fun r -> r.Crashtest.audit_checked) in
  Report.record ~experiment:"kill9" ~label:"sweep"
    [
      ("runs", float_of_int runs);
      ("failed", float_of_int (List.length failed));
      ("acked_ops", float_of_int acked);
      ("snapshots_checked", float_of_int snaps);
      ("audit_records_matched", float_of_int audit);
    ];
  Printf.printf
    "%d kills: %d acked ops, %d synced snapshots verified, %d audit records matched, %d failed\n"
    runs acked snaps audit (List.length failed);
  if failed <> [] then
    fail "%d runs lost acknowledged writes or broke invariants" (List.length failed)
