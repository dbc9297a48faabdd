(* Tests for the disk simulator and network model. *)

module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Net = S4_disk.Net
module Fault = S4_disk.Fault
module Simclock = S4_util.Simclock
module Rng = S4_util.Rng

let check = Alcotest.check

let small_geom =
  Geometry.
    {
      name = "test 64MB";
      sector_size = 512;
      sectors = 131_072;
      rpm = 10_000;
      track_sectors = 334;
      min_seek_ms = 0.6;
      avg_seek_ms = 5.4;
      max_seek_ms = 10.5;
      transfer_mb_s = 21.0;
    }

let mk () =
  let clock = Simclock.create () in
  (clock, Sim_disk.create ~geometry:small_geom clock)

(* --- Geometry ------------------------------------------------------ *)

let test_geometry_presets () =
  check Alcotest.bool "cheetah ~9GB" true
    (abs (Geometry.capacity_bytes Geometry.cheetah_9gb - (9 * 1024 * 1024 * 1024)) < Geometry.capacity_bytes Geometry.cheetah_9gb / 4);
  check Alcotest.int "2GB capacity" (2 * 1024 * 1024 * 1024)
    (Geometry.capacity_bytes Geometry.cheetah_2gb);
  check (Alcotest.float 1e-9) "10k rpm rotation = 6ms" 6.0 (Geometry.rotation_ms Geometry.cheetah_9gb)

let test_seek_model () =
  let g = small_geom in
  check (Alcotest.float 1e-9) "zero distance" 0.0 (Geometry.seek_ms g ~distance_sectors:0);
  let short = Geometry.seek_ms g ~distance_sectors:1 in
  let long = Geometry.seek_ms g ~distance_sectors:g.Geometry.sectors in
  check Alcotest.bool "short > 0" true (short > 0.0);
  check Alcotest.bool "monotone" true (long > short);
  check (Alcotest.float 1e-6) "full stroke = max" g.Geometry.max_seek_ms long

let test_transfer_time () =
  (* 21 MB/s -> 1 MB takes ~47.6 ms *)
  let ms = Geometry.transfer_ms small_geom ~bytes:1_000_000 in
  check Alcotest.bool "1MB transfer ~47.6ms" true (abs_float (ms -. 47.6) < 0.2)

(* --- Sim_disk timing ----------------------------------------------- *)

let test_sequential_cheaper_than_random () =
  let clock, disk = mk () in
  (* Sequential: 100 x 8-sector reads continuing head position. *)
  for i = 0 to 99 do
    Sim_disk.read disk ~lba:(i * 8) ~sectors:8
  done;
  let sequential = Simclock.now clock in
  let clock2 = Simclock.create () in
  let disk2 = Sim_disk.create ~geometry:small_geom clock2 in
  for i = 0 to 99 do
    Sim_disk.read disk2 ~lba:(i * 1000) ~sectors:8
  done;
  let random = Simclock.now clock2 in
  check Alcotest.bool "sequential at least 10x cheaper" true
    (Int64.to_float random > 10.0 *. Int64.to_float sequential)

let test_first_access_pays_positioning () =
  let clock, disk = mk () in
  Sim_disk.read disk ~lba:0 ~sectors:8;
  (* Head starts at 0 so lba 0 is "sequential": transfer only. *)
  let t1 = Simclock.now clock in
  Sim_disk.read disk ~lba:5000 ~sectors:8;
  let t2 = Int64.sub (Simclock.now clock) t1 in
  check Alcotest.bool "random access slower than sequential start" true (Int64.compare t2 t1 > 0)

let test_stats_accounting () =
  let _, disk = mk () in
  Sim_disk.read disk ~lba:0 ~sectors:8;
  Sim_disk.write disk ~lba:8 ~sectors:16 ();
  let s = Sim_disk.stats disk in
  check Alcotest.int "reads" 1 s.Sim_disk.reads;
  check Alcotest.int "writes" 1 s.Sim_disk.writes;
  check Alcotest.int "sectors read" 8 s.Sim_disk.sectors_read;
  check Alcotest.int "sectors written" 16 s.Sim_disk.sectors_written;
  check Alcotest.int "both sequential" 2 s.Sim_disk.sequential;
  Sim_disk.reset_stats disk;
  check Alcotest.int "reset" 0 (Sim_disk.stats disk).Sim_disk.reads

let test_busy_time_advances_clock () =
  let clock, disk = mk () in
  Sim_disk.read disk ~lba:50_000 ~sectors:8;
  check Alcotest.bool "clock advanced" true (Int64.compare (Simclock.now clock) 0L > 0);
  check Alcotest.int64 "busy = clock (only user)" (Simclock.now clock)
    (Sim_disk.stats disk).Sim_disk.busy_ns

let test_out_of_range_rejected () =
  let _, disk = mk () in
  let cap = Sim_disk.capacity_sectors disk in
  check Alcotest.bool "read past end raises" true
    (try
       Sim_disk.read disk ~lba:(cap - 4) ~sectors:8;
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "negative lba raises" true
    (try
       Sim_disk.read disk ~lba:(-1) ~sectors:1;
       false
     with Invalid_argument _ -> true)

(* --- Sim_disk contents --------------------------------------------- *)

let test_contents_roundtrip () =
  let _, disk = mk () in
  let data = Bytes.init (512 * 4) (fun i -> Char.chr (i mod 256)) in
  Sim_disk.write disk ~data ~lba:100 ~sectors:4 ();
  let back = Sim_disk.read_bytes disk ~lba:100 ~sectors:4 in
  check Alcotest.bytes "roundtrip" data back

let test_unwritten_reads_zero () =
  let _, disk = mk () in
  let b = Sim_disk.read_bytes disk ~lba:10 ~sectors:2 in
  check Alcotest.bytes "zeros" (Bytes.make 1024 '\000') b

let test_dataless_write_clears () =
  let _, disk = mk () in
  let data = Bytes.make 512 'x' in
  Sim_disk.write disk ~data ~lba:5 ~sectors:1 ();
  Sim_disk.write disk ~lba:5 ~sectors:1 ();
  check Alcotest.bytes "cleared" (Bytes.make 512 '\000') (Sim_disk.peek disk ~lba:5 ~sectors:1)

let test_peek_untimed () =
  let clock, disk = mk () in
  let data = Bytes.make 512 'y' in
  Sim_disk.write disk ~data ~lba:7 ~sectors:1 ();
  let t = Simclock.now clock in
  let b = Sim_disk.peek disk ~lba:7 ~sectors:1 in
  check Alcotest.bytes "contents" data b;
  check Alcotest.int64 "no time passed" t (Simclock.now clock)

let test_poke_untimed_write () =
  let clock, disk = mk () in
  let t = Simclock.now clock in
  Sim_disk.poke disk ~lba:9 ~data:(Bytes.make 512 'z');
  check Alcotest.int64 "no time passed" t (Simclock.now clock);
  check Alcotest.bytes "stored" (Bytes.make 512 'z') (Sim_disk.peek disk ~lba:9 ~sectors:1)

let test_write_data_length_mismatch () =
  let _, disk = mk () in
  check Alcotest.bool "mismatch raises" true
    (try
       Sim_disk.write disk ~data:(Bytes.create 100) ~lba:0 ~sectors:1 ();
       false
     with Invalid_argument _ -> true)

let test_partial_overwrite () =
  let _, disk = mk () in
  Sim_disk.write disk ~data:(Bytes.make 1024 'a') ~lba:0 ~sectors:2 ();
  Sim_disk.write disk ~data:(Bytes.make 512 'b') ~lba:1 ~sectors:1 ();
  let b = Sim_disk.peek disk ~lba:0 ~sectors:2 in
  check Alcotest.bytes "first sector a, second b"
    (Bytes.cat (Bytes.make 512 'a') (Bytes.make 512 'b'))
    b

(* --- Sim_disk memory backing against a per-sector model -------------- *)

(* The backing the paged one replaced: one 512-byte copy per written
   sector in a table, removed by a write without data. *)
module Ref_sectors = struct
  let ss = 512
  let create () : (int, Bytes.t) Hashtbl.t = Hashtbl.create 64

  let store t ~lba ~sectors = function
    | None ->
      for i = lba to lba + sectors - 1 do
        Hashtbl.remove t i
      done
    | Some b ->
      for i = 0 to sectors - 1 do
        Hashtbl.replace t (lba + i) (Bytes.sub b (i * ss) ss)
      done

  let peek t ~lba ~sectors =
    let out = Bytes.make (sectors * ss) '\000' in
    for i = 0 to sectors - 1 do
      match Hashtbl.find_opt t (lba + i) with
      | Some sector -> Bytes.blit sector 0 out (i * ss) ss
      | None -> ()
    done;
    out
end

type disk_op =
  | Write of int * int * int  (* lba, sectors, fill seed *)
  | Erase of int * int  (* data-less write *)
  | Poke of int * int * int
  | Torn of int * int * int  (* write that persists a random prefix *)
  | Peek of int * int

(* A 4 MB disk: four 1 MB page directories of 256 4 KB pages (8
   sectors each). Ranges start anywhere, near a page boundary or near a
   directory boundary, and run up to 48 pages. *)
let model_geom = { small_geom with Geometry.sectors = 8192 }

let gen_disk_op =
  QCheck.Gen.(
    let near unit count = map2 (fun i d -> max 0 ((i * unit) + d - 4)) (int_bound count) (int_bound 8) in
    let* lba = oneof [ int_bound 8000; near 8 1000; near 2048 3 ] in
    let* sectors = frequency [ (3, 1 -- 16); (1, 1 -- 384) ] in
    let sectors = min sectors (8192 - lba) in
    let* seed = int_bound 255 in
    frequency
      [
        (4, return (Write (lba, sectors, seed)));
        (2, return (Erase (lba, sectors)));
        (1, return (Poke (lba, sectors, seed)));
        (1, return (Torn (lba, sectors, seed)));
        (3, return (Peek (lba, sectors)));
      ])

let print_disk_op = function
  | Write (l, n, s) -> Printf.sprintf "Write(%d,%d,%d)" l n s
  | Erase (l, n) -> Printf.sprintf "Erase(%d,%d)" l n
  | Poke (l, n, s) -> Printf.sprintf "Poke(%d,%d,%d)" l n s
  | Torn (l, n, s) -> Printf.sprintf "Torn(%d,%d,%d)" l n s
  | Peek (l, n) -> Printf.sprintf "Peek(%d,%d)" l n

let fill ~sectors seed = Bytes.init (sectors * 512) (fun i -> Char.chr ((seed + (i * 7) + (i / 512)) land 0xFF))

let prop_paged_matches_sector_model =
  QCheck.Test.make ~name:"paged memory backing = per-sector model" ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_disk_op ops))
       QCheck.Gen.(list_size (1 -- 40) gen_disk_op))
    (fun ops ->
      let disk = Sim_disk.create ~geometry:model_geom (Simclock.create ()) in
      let model = Ref_sectors.create () in
      (* Torn writes: the disk's policy and a twin with the same seed
         see the same request stream, so the twin tells the model how
         many sectors the disk kept. *)
      let torn_config = { Fault.quiet with Fault.torn_write_rate = 1.0 } in
      let policy = Fault.create ~config:torn_config (Rng.create ~seed:7) in
      let twin = Fault.create ~config:torn_config (Rng.create ~seed:7) in
      let agree ~lba ~sectors = Sim_disk.peek disk ~lba ~sectors = Ref_sectors.peek model ~lba ~sectors in
      List.for_all
        (fun op ->
          (match op with
           | Write (lba, sectors, seed) ->
             let data = fill ~sectors seed in
             Sim_disk.write disk ~data ~lba ~sectors ();
             Ref_sectors.store model ~lba ~sectors (Some data)
           | Erase (lba, sectors) ->
             Sim_disk.write disk ~lba ~sectors ();
             Ref_sectors.store model ~lba ~sectors None
           | Poke (lba, sectors, seed) ->
             let data = fill ~sectors seed in
             Sim_disk.poke disk ~lba ~data;
             Ref_sectors.store model ~lba ~sectors (Some data)
           | Torn (lba, sectors, seed) ->
             let data = fill ~sectors seed in
             Sim_disk.set_fault disk (Some policy);
             Sim_disk.write disk ~data ~lba ~sectors ();
             Sim_disk.set_fault disk None;
             (match Fault.on_write twin ~sectors with
              | Fault.W_torn k -> Ref_sectors.store model ~lba ~sectors:k (Some (Bytes.sub data 0 (k * 512)))
              | Fault.W_ok -> Ref_sectors.store model ~lba ~sectors (Some data)
              | _ -> ())
           | Peek _ -> ());
          match op with
          | Peek (lba, sectors) -> agree ~lba ~sectors
          | Write (lba, sectors, _) | Erase (lba, sectors) | Poke (lba, sectors, _) | Torn (lba, sectors, _) ->
            (* The range and 64 KB either side of it. *)
            let lo = max 0 (lba - 128) and hi = min 8192 (lba + sectors + 128) in
            agree ~lba:lo ~sectors:(hi - lo))
        ops
      && agree ~lba:0 ~sectors:8192)

(* Writes without data on a 9 GB disk allocate no page: timing-only
   experiments stay sparse. Each write spans 128 pages, so allocating
   them would cost 512 KB a write. *)
let test_dataless_writes_stay_sparse () =
  let disk = Sim_disk.create (Simclock.create ()) in
  let before = Gc.allocated_bytes () in
  for i = 0 to 99 do
    Sim_disk.write disk ~lba:(i * 170_000) ~sectors:1024 ()
  done;
  let allocated = Gc.allocated_bytes () -. before in
  check Alcotest.bool (Printf.sprintf "%.0f bytes allocated, under one page a write" allocated) true
    (allocated < 100.0 *. 4096.0);
  check Alcotest.bytes "reads zeros" (Bytes.make 512 '\000') (Sim_disk.peek disk ~lba:170_000 ~sectors:1)

(* --- Net ----------------------------------------------------------- *)

let test_net_rpc_cost () =
  let clock = Simclock.create () in
  let net = Net.create ~latency_us:100.0 ~bandwidth_mb_s:12.5 clock in
  Net.rpc net ~req_bytes:0 ~resp_bytes:0;
  (* 2 x 100us latency *)
  check Alcotest.int64 "latency only" 200_000L (Simclock.now clock)

let test_net_bandwidth () =
  let clock = Simclock.create () in
  let net = Net.create ~latency_us:0.0 ~bandwidth_mb_s:12.5 clock in
  Net.rpc net ~req_bytes:12_500_000 ~resp_bytes:0;
  (* 12.5 MB at 12.5 MB/s = 1 s *)
  check Alcotest.int64 "1 second" 1_000_000_000L (Simclock.now clock)

let test_net_stats () =
  let clock = Simclock.create () in
  let net = Net.create clock in
  Net.rpc net ~req_bytes:100 ~resp_bytes:200;
  Net.oneway net ~bytes:50;
  let s = Net.stats net in
  check Alcotest.int "rpcs" 1 s.Net.rpcs;
  check Alcotest.int "sent" 150 s.Net.bytes_sent;
  check Alcotest.int "received" 200 s.Net.bytes_received;
  Net.reset_stats net;
  check Alcotest.int "reset" 0 (Net.stats net).Net.rpcs

let () =
  Alcotest.run "s4_disk"
    [
      ( "geometry",
        [
          Alcotest.test_case "presets" `Quick test_geometry_presets;
          Alcotest.test_case "seek model" `Quick test_seek_model;
          Alcotest.test_case "transfer time" `Quick test_transfer_time;
        ] );
      ( "timing",
        [
          Alcotest.test_case "sequential vs random" `Quick test_sequential_cheaper_than_random;
          Alcotest.test_case "positioning cost" `Quick test_first_access_pays_positioning;
          Alcotest.test_case "stats" `Quick test_stats_accounting;
          Alcotest.test_case "busy time" `Quick test_busy_time_advances_clock;
          Alcotest.test_case "range checks" `Quick test_out_of_range_rejected;
        ] );
      ( "contents",
        [
          Alcotest.test_case "roundtrip" `Quick test_contents_roundtrip;
          Alcotest.test_case "unwritten zeros" `Quick test_unwritten_reads_zero;
          Alcotest.test_case "dataless write clears" `Quick test_dataless_write_clears;
          Alcotest.test_case "peek untimed" `Quick test_peek_untimed;
          Alcotest.test_case "poke untimed" `Quick test_poke_untimed_write;
          Alcotest.test_case "length mismatch" `Quick test_write_data_length_mismatch;
          Alcotest.test_case "partial overwrite" `Quick test_partial_overwrite;
          Alcotest.test_case "dataless writes stay sparse" `Quick test_dataless_writes_stay_sparse;
          Qseed.qtest prop_paged_matches_sector_model;
        ] );
      ( "net",
        [
          Alcotest.test_case "rpc latency" `Quick test_net_rpc_cost;
          Alcotest.test_case "bandwidth" `Quick test_net_bandwidth;
          Alcotest.test_case "stats" `Quick test_net_stats;
        ] );
    ]
