open Harness

(* ------------------------------------------------------------------ *)
(* Scale: sharded-array throughput scaling + online rebalance cost     *)

let scale () =
  Report.heading "Scale: sharded S4 array, 1..8 drives (PostMark + small-file microbench)";
  let pm_config =
    pm_seeded
      (if !full_scale then { Postmark.default with Postmark.files = 12_000 }
       else { Postmark.default with Postmark.files = 3_000; transactions = 6_000 })
  in
  let mb_files = if !full_scale then 10_000 else 2_000 in
  let counts = [ 1; 2; 4; 8 ] in
  (* Per-drive caches sized below the PostMark working set: a single
     drive thrashes, while each added shard brings its own cache and
     spindle — the aggregate-resources effect that makes scale-out
     arrays scale. *)
  let drive_config =
    {
      Systems.benchmark_drive_config with
      Drive.store =
        {
          Systems.benchmark_drive_config.Drive.store with
          Store.block_cache_bytes = 4 * 1024 * 1024;
          object_cache_bytes = 4 * 1024 * 1024;
        };
    }
  in
  Printf.printf "postmark: files=%d transactions=%d; microbench: files=%d x 1KB; 4MB caches/drive\n\n"
    pm_config.Postmark.files pm_config.Postmark.transactions mb_files;
  let rows =
    List.map
      (fun shards ->
        let cfg = { Systems.Config.serial with drive_config } in
        let pm = Postmark.run ~config:pm_config (Systems.s4_array ~config:cfg ~shards ()) in
        let mb =
          Microbench.run
            ~config:{ Microbench.default with Microbench.files = mb_files }
            (Systems.s4_array ~config:cfg ~shards ())
        in
        (shards, pm, mb))
      counts
  in
  let base_tps =
    match rows with
    | (_, pm, _) :: _ -> pm.Postmark.transactions_per_second
    | [] -> 1.0
  in
  List.iter
    (fun (shards, (pm : Postmark.result), (mb : Microbench.result)) ->
      Report.record ~experiment:"scale"
        [
          ("shards", float_of_int shards);
          ("postmark_tps", pm.Postmark.transactions_per_second);
          ("postmark_speedup", pm.Postmark.transactions_per_second /. base_tps);
          ("postmark_transaction_seconds", pm.Postmark.transaction_seconds);
          ("micro_create_s", mb.Microbench.create_seconds);
          ("micro_read_s", mb.Microbench.read_seconds);
          ("micro_delete_s", mb.Microbench.delete_seconds);
        ])
    rows;
  Report.table
    ~header:
      [ "shards"; "postmark txn/s"; "speedup"; "micro create (s)"; "read (s)"; "delete (s)" ]
    (List.map
       (fun (shards, (pm : Postmark.result), (mb : Microbench.result)) ->
         [
           string_of_int shards;
           Printf.sprintf "%.1f" pm.Postmark.transactions_per_second;
           Printf.sprintf "%.2fx" (pm.Postmark.transactions_per_second /. base_tps);
           Printf.sprintf "%.2f" mb.Microbench.create_seconds;
           Printf.sprintf "%.2f" mb.Microbench.read_seconds;
           Printf.sprintf "%.2f" mb.Microbench.delete_seconds;
         ])
       rows);
  print_newline ();
  Report.bars
    (List.map
       (fun (n, (pm : Postmark.result), _) ->
         (Printf.sprintf "%d shard%s (txn/s)" n (if n = 1 then "" else "s"),
          pm.Postmark.transactions_per_second))
       rows);
  (* Per-shard worker domains: the same PostMark-shaped object mix,
     submitted as vectored batches straight at the router, serial vs
     one worker domain per shard. Two honest columns per row: the
     simulated clock (the model's parallel charge — a batch window
     spanning k shards costs the slowest lane instead of the sum) and
     host wall-clock (true parallelism, bounded by the cores actually
     available — on a single-core host the wall column shows no
     speedup by construction, and the [cores] field says so). *)
  print_newline ();
  Report.heading "Scale: per-shard worker domains (vectored object workload)";
  let cores = Domain.recommended_domain_count () in
  let files = if !full_scale then 1024 else 256 in
  let batches = if !full_scale then 400 else 120 in
  let batch = 64 in
  Printf.printf "host cores: %d%s; %d objects, %d batches x %d requests\n\n" cores
    (if cores < 2 then " (wall-clock parallelism unavailable on this host)" else "")
    files batches batch;
  let payload = Bytes.make 4096 'd' in
  let run_mode ~shards ~domains =
    let clock = Simclock.create () in
    let router =
      Router.create (List.init shards (fun i -> (i, Router.Single (format_drive drive_config clock))))
    in
    Router.set_domains router domains;
    let oids = create_objects (Router.submit router) files in
    ignore
      (Router.submit router cred ~sync:true
         (Array.map
            (fun oid -> Rpc.Write { oid; off = 0; len = 4096; data = Some payload })
            oids));
    let rng = Rng.create ~seed:(rng_seed 424) in
    let t =
      measure (fun () ->
          ( clock,
            (fun () ->
              for _ = 1 to batches do
                let reqs =
                  Array.init batch (fun _ ->
                      let oid = oids.(Rng.int rng files) in
                      match Rng.int rng 4 with
                      | 0 | 1 -> Rpc.Read { oid; off = 4096 * Rng.int rng 4; len = 4096; at = None }
                      | 2 ->
                        Rpc.Write { oid; off = 4096 * Rng.int rng 4; len = 4096; data = Some payload }
                      | _ -> Rpc.Append { oid; len = 1024; data = Some (Bytes.sub payload 0 1024) })
                in
                ignore (Router.submit router cred ~sync:true reqs)
              done),
            fun () -> Router.close_domains router ))
    in
    let ops = float_of_int (batches * batch) in
    (ops /. t.sim_s, ops /. t.wall_s)
  in
  let domain_rows =
    List.map
      (fun shards ->
        let s_sim, s_wall = run_mode ~shards ~domains:1 in
        let d_sim, d_wall = run_mode ~shards ~domains:shards in
        Report.record ~experiment:"scale_domains"
          [
            ("shards", float_of_int shards);
            ("cores", float_of_int cores);
            ("ops", float_of_int (batches * batch));
            ("sim_tps_serial", s_sim);
            ("sim_tps_domains", d_sim);
            ("sim_speedup", d_sim /. s_sim);
            ("wall_tps_serial", s_wall);
            ("wall_tps_domains", d_wall);
            ("wall_speedup", d_wall /. s_wall);
          ];
        (shards, s_sim, d_sim, s_wall, d_wall))
      counts
  in
  Report.table
    ~header:
      [
        "shards"; "sim txn/s serial"; "sim txn/s domains"; "sim speedup";
        "wall txn/s serial"; "wall txn/s domains"; "wall speedup";
      ]
    (List.map
       (fun (shards, s_sim, d_sim, s_wall, d_wall) ->
         [
           string_of_int shards;
           Printf.sprintf "%.0f" s_sim;
           Printf.sprintf "%.0f" d_sim;
           Printf.sprintf "%.2fx" (d_sim /. s_sim);
           Printf.sprintf "%.0f" s_wall;
           Printf.sprintf "%.0f" d_wall;
           Printf.sprintf "%.2fx" (d_wall /. s_wall);
         ])
       domain_rows);
  (* Online rebalance cost: populate a 2-shard array, then add a third
     drive to the live array and drain the migration queue. Default
     caches here — the constrained caches above exist to make the
     throughput sweep disk-bound, but they make the migration verifier
     thrash and would dominate the cost being measured. *)
  print_newline ();
  Report.heading "Scale: online rebalance cost (2 -> 3 drives under a populated array)";
  let sys = Systems.s4_array ~shards:2 () in
  let populate =
    { pm_config with Postmark.transactions = pm_config.Postmark.transactions / 2 }
  in
  ignore (Postmark.run ~config:populate sys);
  let router = Option.get sys.Systems.router in
  let extra = format_drive Systems.benchmark_drive_config sys.Systems.clock in
  let queued = Router.add_shard router 2 (Router.Single extra) in
  let secs, (moved, errors) =
    Systems.elapsed_seconds sys (fun () -> Router.rebalance router)
  in
  let st = Router.migration_stats router in
  let issues = Router.fsck router in
  Report.kv
    [
      ("moves queued by membership change", string_of_int queued);
      ("objects migrated", string_of_int moved);
      ("journal entries replayed", string_of_int st.Router.entries);
      ("data bytes copied", string_of_int st.Router.bytes);
      ("simulated rebalance time", Printf.sprintf "%.2f s" secs);
      ("migration errors", string_of_int (List.length errors));
      ("post-rebalance fsck issues", string_of_int (List.length issues));
    ];
  List.iter (fun e -> Printf.printf "  error: %s\n" e) errors;
  List.iter (fun i -> Printf.printf "  fsck: %s\n" i) issues;
  Report.record ~experiment:"scale_rebalance"
    [
      ("moves_queued", float_of_int queued);
      ("objects_migrated", float_of_int moved);
      ("entries_replayed", float_of_int st.Router.entries);
      ("bytes_copied", float_of_int st.Router.bytes);
      ("rebalance_seconds", secs);
      ("errors", float_of_int (List.length errors));
      ("fsck_issues", float_of_int (List.length issues));
    ]

(* ------------------------------------------------------------------ *)
(* Readscale: replica reads + client cache + per-client fair queueing  *)

(* Read-path scale-out, oracle-gated:
   (a) balanced mirror reads + overlapped batch charging must beat
       primary-only reads by >= 1.5x at >= 4 clients;
   (b) the lease-backed client cache must serve hot-set hits without
       touching the wire at all;
   (c) under a flooding client, an honest client's p99 read latency on
       the weighted-fair server must stay within 2x of the no-hog
       baseline. *)
let readscale () =
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let p99 lats =
    let a = Array.of_list lats in
    Array.sort compare a;
    let n = Array.length a in
    a.(min (n - 1) (int_of_float (ceil (0.99 *. float_of_int n)) - 1))
  in

  (* --- (a) replica reads: ops/s vs client count ------------------- *)
  Report.heading "Readscale: replica reads — mirrored 4-shard array, balanced vs primary-only";
  let objects = 1024 in
  let obj_bytes = 4096 in
  let reads_per_client = 16 in
  let rounds = if !full_scale then 60 else 20 in
  let client_counts = [ 1; 2; 4; 8; 16 ] in
  let payload = Bytes.make obj_bytes 'r' in
  (* Caches sized well below the 4 MB working set per replica: random
     reads are spindle reads, so the sweep measures disk parallelism,
     not RAM. *)
  let mirror_drive_config =
    {
      Systems.content_drive_config with
      Drive.store =
        {
          Systems.content_drive_config.Drive.store with
          Store.block_cache_bytes = 256 * 1024;
          object_cache_bytes = 256 * 1024;
        };
    }
  in
  let read_rate ~balanced clients =
    let sys =
      Systems.s4_array
        ~config:
          {
            Systems.Config.default with
            mirrored = true;
            balanced;
            read_overlap = true;
            drive_config = mirror_drive_config;
          }
        ~shards:4 ()
    in
    let router = Option.get sys.Systems.router in
    let oids = create_objects (Router.submit router) objects in
    ignore
      (Router.submit router cred
         (Array.map
            (fun oid -> Rpc.Write { oid; off = 0; len = obj_bytes; data = Some payload })
            oids));
    Router.sync_all router;
    let rng = Rng.create ~seed:(rng_seed 1811) in
    let idx = Array.init objects (fun i -> i) in
    let shuffle () =
      for i = objects - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let tmp = idx.(i) in
        idx.(i) <- idx.(j);
        idx.(j) <- tmp
      done
    in
    Systems.drop_all_caches sys;
    let t0 = Simclock.now sys.Systems.clock in
    for _ = 1 to rounds do
      (* Distinct objects per round; each client contributes a run of
         reads, interleaved round-robin the way concurrent readers
         arrive at a shared array. *)
      shuffle ();
      let n = clients * reads_per_client in
      let reqs =
        Array.init n (fun k ->
            Rpc.Read { oid = oids.(idx.(k mod objects)); off = 0; len = obj_bytes; at = None })
      in
      Array.iteri
        (fun i r ->
          match r with
          | Rpc.R_data _ -> ()
          | r -> Format.kasprintf failwith "readscale: read %d failed: %a" i Rpc.pp_resp r)
        (Router.submit router cred reqs)
    done;
    let secs = Simclock.to_seconds (Int64.sub (Simclock.now sys.Systems.clock) t0) in
    let prim, sec =
      List.fold_left
        (fun (p, s) id ->
          match Router.member router id with
          | Router.Mirrored m ->
            let mp, ms = Mirror.read_counts m in
            (p + mp, s + ms)
          | Router.Single _ -> (p, s))
        (0, 0) (Router.shard_ids router)
    in
    (float_of_int (rounds * clients * reads_per_client) /. secs, prim, sec)
  in
  let mirror_rows =
    List.map
      (fun clients ->
        let base, _, _ = read_rate ~balanced:false clients in
        let bal, prim, sec = read_rate ~balanced:true clients in
        let speedup = bal /. base in
        Report.record ~experiment:"readscale_mirror" ~label:(string_of_int clients)
          [
            ("clients", float_of_int clients);
            ("primary_only_ops_per_s", base);
            ("balanced_ops_per_s", bal);
            ("speedup", speedup);
            ("balanced_primary_reads", float_of_int prim);
            ("balanced_secondary_reads", float_of_int sec);
          ];
        (clients, base, bal, speedup, prim, sec))
      client_counts
  in
  Report.table
    ~header:[ "clients"; "primary-only ops/s"; "balanced ops/s"; "speedup"; "replica split" ]
    (List.map
       (fun (c, base, bal, sp, prim, sec) ->
         [
           string_of_int c;
           Printf.sprintf "%.0f" base;
           Printf.sprintf "%.0f" bal;
           Printf.sprintf "%.2fx" sp;
           Printf.sprintf "%d/%d" prim sec;
         ])
       mirror_rows);
  if
    not
      (List.exists (fun (c, _, _, sp, _, _) -> c >= 4 && sp >= 1.5) mirror_rows)
  then
    violate "mirrored reads never reached 1.5x primary-only at >= 4 clients";
  (List.iter (fun (c, _, _, _, prim, sec) ->
       if c >= 2 && (prim = 0 || sec = 0) then
         violate "balanced policy never touched one replica (%d clients: %d/%d)" c prim sec))
    mirror_rows;

  (* --- (b) lease-backed client cache: hot-set sweep ---------------- *)
  print_newline ();
  Report.heading "Readscale: lease-backed client cache — hot-set hit-rate sweep (loopback wire)";
  let files = 96 in
  let hot_set = 8 in
  let sweep_reads = if !full_scale then 4_000 else 1_500 in
  let file_bytes = 1024 in
  let cache_cell hot_fraction =
    let clock = Simclock.create () in
    let drive = format_drive Systems.content_drive_config clock in
    let server_config =
      { Netserver.default_config with Netserver.lease_ns = 120_000_000_000L }
    in
    let srv = Netserver.of_drive ~config:server_config drive in
    (* Budget ~24 cached reads: the 8-object hot set fits and stays,
       the cold tail churns through the LRU. *)
    let client_config =
      {
        Netclient.default_config with
        Netclient.cache_budget = 24 * (file_bytes + 32);
        cache_journal = true;
      }
    in
    let client = Netclient.connect ~config:client_config (Nettransport.loopback srv) in
    let data = Bytes.make file_bytes 'c' in
    let oids =
      Array.init files (fun i ->
          match Netclient.handle client cred (Rpc.Create { acl = S4.Acl.default ~owner:1 }) with
          | Rpc.R_oid oid ->
            ignore
              (Netclient.handle client cred
                 (Rpc.Write { oid; off = 0; len = file_bytes; data = Some data }));
            oid
          | r -> Format.kasprintf failwith "cache cell: create %d: %a" i Rpc.pp_resp r)
    in
    ignore (Netclient.handle client Rpc.admin_cred Rpc.Sync);
    let rng = Rng.create ~seed:(rng_seed 2203) in
    let frames_before = Metrics.counter "net/frames_in" in
    let t0 = Simclock.now clock in
    for _ = 1 to sweep_reads do
      let oid =
        if Rng.float rng 1.0 < hot_fraction then oids.(Rng.int rng hot_set)
        else oids.(hot_set + Rng.int rng (files - hot_set))
      in
      match Netclient.handle client cred (Rpc.Read { oid; off = 0; len = file_bytes; at = None }) with
      | Rpc.R_data _ -> ()
      | r -> Format.kasprintf failwith "cache cell: read: %a" Rpc.pp_resp r
    done;
    let secs = Simclock.to_seconds (Int64.sub (Simclock.now clock) t0) in
    let wire_frames = Metrics.counter "net/frames_in" - frames_before in
    let cache = Option.get (Netclient.cache client) in
    let hits = S4_net.Cache.hits cache and misses = S4_net.Cache.misses cache in
    (match S4_net.Cache.check cache with
     | Ok () -> ()
     | Error e -> violate "lease checker (hot=%.1f): %s" hot_fraction e);
    if hits + misses <> sweep_reads then
      violate "cache accounting: %d hits + %d misses <> %d reads" hits misses sweep_reads;
    (* The whole point: a hit never crosses the wire. Wire traffic is
       bounded by the misses (one Request frame each). *)
    if hot_fraction > 0.0 && hits = 0 then violate "hot set produced no cache hits";
    (* One miss = one round trip = two frame-received events (one at
       the server, one at the client). A hit contributes neither. *)
    if wire_frames > 2 * (sweep_reads - hits) then
      violate "cache hits leaked onto the wire: %d frame events for %d misses" wire_frames
        (sweep_reads - hits);
    Netclient.close client;
    (hot_fraction, float_of_int sweep_reads /. secs, hits, misses, wire_frames / 2)
  in
  let cache_rows = List.map cache_cell [ 0.0; 0.5; 0.9 ] in
  List.iter
    (fun (hot, rate, hits, misses, frames) ->
      Report.record ~experiment:"readscale_cache" ~label:(Printf.sprintf "hot%.1f" hot)
        [
          ("hot_fraction", hot);
          ("reads", float_of_int sweep_reads);
          ("ops_per_s", rate);
          ("cache_hits", float_of_int hits);
          ("cache_misses", float_of_int misses);
          ("wire_round_trips", float_of_int frames);
          ("hit_rate", float_of_int hits /. float_of_int sweep_reads);
        ])
    cache_rows;
  Report.table
    ~header:[ "hot fraction"; "ops/s"; "hits"; "misses"; "wire round trips" ]
    (List.map
       (fun (hot, rate, hits, misses, frames) ->
         [
           Printf.sprintf "%.1f" hot;
           Printf.sprintf "%.0f" rate;
           string_of_int hits;
           string_of_int misses;
           string_of_int frames;
         ])
       cache_rows);

  (* --- (c) noisy neighbor: honest p99 under a flooding client ------ *)
  print_newline ();
  Report.heading "Readscale: per-client fair queueing — honest p99 under a flooding client";
  let qos_rounds = if !full_scale then 120 else 60 in
  let hog_batches = 6 and hog_batch = 24 in
  let hog_bytes = 2048 in
  (* One request is a one-element Batch frame. *)
  let one_frame xid req = Wire.encode (Wire.Batch { xid; cred; sync = false; reqs = [| req |] }) in
  let mk_pair ~qos =
    let clock = Simclock.create () in
    let drive = format_drive Systems.content_drive_config clock in
    let config =
      { Netserver.default_config with Netserver.qos; max_inflight = 4096 }
    in
    let srv = Netserver.of_drive ~config drive in
    let hog = Netserver.Session.create ~identity:7 srv in
    let honest = Netserver.Session.create ~identity:8 srv in
    (* Seed one object per client. *)
    let mk_oid sess =
      let frame = one_frame 1L (Rpc.Create { acl = [] }) in
      Netserver.Session.feed sess frame 0 (Bytes.length frame);
      Netserver.Session.run sess;
      let rec find pos b =
        match Wire.decode b ~pos ~avail:(Bytes.length b - pos) with
        | Wire.Frame (Wire.Batch_reply { resps = [| Rpc.R_oid oid |]; _ }, _) -> oid
        | Wire.Frame (_, used) -> find (pos + used) b
        | _ -> failwith "readscale qos: no oid response"
      in
      find 0 (Netserver.Session.output sess)
    in
    let hog_oid = mk_oid hog and honest_oid = mk_oid honest in
    let wframe =
      let data = Some (Bytes.make hog_bytes 'h') in
      Wire.encode
        (Wire.Batch
           {
             xid = 99L;
             cred = Rpc.user_cred ~user:2 ~client:7;
             sync = false;
             reqs =
               Array.init hog_batch (fun _ ->
                   Rpc.Write { oid = hog_oid; off = 0; len = hog_bytes; data });
           })
    in
    let seed =
      one_frame 2L
        (Rpc.Write { oid = honest_oid; off = 0; len = 1024; data = Some (Bytes.make 1024 'o') })
    in
    Netserver.Session.feed honest seed 0 (Bytes.length seed);
    Netserver.Session.run honest;
    ignore (Netserver.Session.output honest);
    (clock, drive, srv, hog, honest, honest_oid, wframe)
  in
  let honest_read honest_oid xid =
    one_frame xid (Rpc.Read { oid = honest_oid; off = 0; len = 1024; at = None })
  in
  let run_cell ~qos ~with_hog label =
    let clock, drive, srv, hog, honest, honest_oid, wframe = mk_pair ~qos in
    ignore drive;
    let lats = ref [] in
    for round = 1 to qos_rounds do
      Store.drop_caches (Drive.store drive);
      if with_hog then
        for _ = 1 to hog_batches do
          Netserver.Session.feed hog wframe 0 (Bytes.length wframe)
        done;
      let rframe = honest_read honest_oid (Int64.of_int (100 + round)) in
      Netserver.Session.feed honest rframe 0 (Bytes.length rframe);
      let t0 = Simclock.now clock in
      if not qos then begin
        (* Per-session FIFO service in arrival order: the flood runs
           first, the honest read waits behind all of it. *)
        if with_hog then Netserver.Session.run hog;
        ignore (Netserver.Session.step honest)
      end
      else begin
        (* Shared weighted-fair queue: step until the honest reply is
           out; its cost-1 read outranks the hog's cost-24 batches. *)
        let answered = ref false in
        while not !answered do
          if not (Netserver.Session.step honest) then answered := true
          else if Bytes.length (Netserver.Session.output honest) > 0 then answered := true
        done
      end;
      lats := Int64.to_float (Int64.sub (Simclock.now clock) t0) :: !lats;
      (* Drain the remaining flood before the next round. *)
      Netserver.Session.run hog;
      ignore (Netserver.Session.output hog);
      ignore (Netserver.Session.output honest)
    done;
    (match Netserver.scheduler srv with
     | Some sched ->
       Printf.printf "  %s: wfq served hog=%.0f honest=%.0f units, vtime %.1f\n" label
         (Wfq.served sched ~client:7) (Wfq.served sched ~client:8)
         (Wfq.virtual_time sched)
     | None -> ());
    !lats
  in
  let base = run_cell ~qos:true ~with_hog:false "no-hog" in
  let fifo = run_cell ~qos:false ~with_hog:true "fifo+hog" in
  let fair = run_cell ~qos:true ~with_hog:true "wfq+hog" in
  let ms v = v /. 1e6 in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let rows =
    [
      ("no hog (baseline)", base); ("hog, per-session FIFO", fifo); ("hog, weighted-fair", fair);
    ]
  in
  List.iter
    (fun (label, lats) ->
      Report.record ~experiment:"readscale_qos" ~label
        [
          ("rounds", float_of_int qos_rounds);
          ("p99_ms", ms (p99 lats));
          ("mean_ms", ms (mean lats));
        ])
    rows;
  Report.table
    ~header:[ "cell"; "honest mean (ms)"; "honest p99 (ms)" ]
    (List.map
       (fun (label, lats) ->
         [ label; Printf.sprintf "%.2f" (ms (mean lats)); Printf.sprintf "%.2f" (ms (p99 lats)) ])
       rows);
  let p99_base = p99 base and p99_fair = p99 fair and p99_fifo = p99 fifo in
  if p99_fair > 2.0 *. p99_base then
    violate "honest p99 under WFQ is %.2f ms, more than 2x the %.2f ms no-hog baseline"
      (ms p99_fair) (ms p99_base);
  if p99_fifo < p99_fair then
    violate "FIFO out-isolated WFQ (%.2f ms < %.2f ms): scheduler not engaging" (ms p99_fifo)
      (ms p99_fair);

  Report.note
    "oracle-gated: balanced reads >= 1.5x at >= 4 clients; cache hits never touch the wire \
     (lease checker clean); honest p99 under a hog within 2x of no-hog";
  match !violations with
  | [] -> ()
  | vs ->
    List.iter (fun v -> Printf.eprintf "readscale ORACLE VIOLATION: %s\n" v) (List.rev vs);
    fail "%d oracle violations" (List.length vs)
