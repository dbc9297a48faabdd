(* history-churn: one in-process NFS client overwrites a few hundred
   files round after round on a small disk, with a little create/delete
   churn, while the cleaner runs between rounds and the detection
   window spans about half the rounds. Then the administrator path:
   time-based reads of random in-window versions and one whole-tree
   rollback with Recovery.restore_tree — S4's reason to exist. The
   retained history outgrows the (scaled-down) block cache. *)

module N = S4_nfs.Nfs_types
module Nfs = S4_nfs.Server
module Translator = S4_nfs.Translator
module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Log = S4_seglog.Log
module Store = S4_store.Obj_store
module Drive = S4.Drive
module Rpc = S4.Rpc
module Recovery = S4_tools.Recovery
module Systems = S4_workload.Systems

type scale = {
  files : int;
  rounds : int;
  window_rounds : int;  (** detection window, in rounds *)
  reads : int;  (** time-based history reads *)
}

let full = { files = 200; rounds = 16; window_rounds = 8; reads = 1_000 }
let smoke = { files = 20; rounds = 6; window_rounds = 3; reads = 50 }
let subdirectories = 5
let churn = 3  (* files deleted, and as many created, per round *)
let gap_s = 3600.0  (* simulated idle time between rounds *)
let disk_mb = 128

(* The block cache is scaled down with the history so that the retained
   history still outgrows it, as the prototype's did its 128 MiB. *)
let cache_mb = 16
let min_size = 2_048
let max_size = 8_192

type file = {
  name : string;  (** path from the root *)
  dir : N.fh;
  fh : N.fh;
  size : int;
  born : int64;
  mutable died : int64;  (** [Int64.max_int] while live *)
  mutable versions : (int64 * int) list;  (** (written at, stream base), newest first *)
}

let live_at f t = Int64.compare f.born t <= 0 && Int64.compare t f.died < 0

(* The version a time-based read at [t] must return. *)
let version_at f t = snd (List.find (fun (w, _) -> Int64.compare w t <= 0) f.versions)

let run ~scale ~seed ~traced =
  let rng = Random.State.make [| seed; 0x4843 |] in
  let pat = Content.create rng in
  Pass.with_tracing traced @@ fun () ->
  let t_setup = Wallspan.now () in
  let clock = Simclock.create () in
  let config =
    {
      Systems.content_drive_config with
      Drive.window = Simclock.of_seconds (float_of_int scale.window_rounds *. gap_s);
      store =
        {
          Systems.content_drive_config.Drive.store with
          Store.block_cache_bytes = cache_mb lsl 20;
        };
    }
  in
  let geometry = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(disk_mb lsl 20) in
  let drive = Drive.format ~config (Sim_disk.create ~geometry clock) in
  let be = Wallspan.timed_backend "core" (Drive.backend drive) in
  let tr = Translator.mount (Translator.Backend be) in
  let nfs = Nfs.of_translator ~name:"S4-direct" tr in
  let m = Pass.create clock in
  let call req = Wallspan.time "nfs" (fun () -> nfs.Nfs.handle req) in
  let op req = Pass.measure m Pass.Op (fun () -> call req) in
  let dirs =
    Array.init subdirectories (fun i ->
        let name = Printf.sprintf "d%d" i in
        match call (N.Mkdir { dir = nfs.Nfs.root; name; mode = 0o755 }) with
        | N.R_fh (fh, _) -> (name, fh)
        | _ -> failwith "history-churn: mkdir")
  in
  let files = ref [] and serial = ref 0 and user_bytes = ref 0 in
  let write send f =
    let base = Content.base rng in
    let data = Content.bytes pat ~base ~off:0 ~len:f.size in
    match send (N.Write { fh = f.fh; off = 0; data }) with
    | N.R_attr a ->
      Pass.check m (a.N.size = f.size) (f.name ^ ": size after overwrite");
      f.versions <- (Simclock.now clock, base) :: f.versions;
      user_bytes := !user_bytes + f.size
    | _ -> Pass.check m false (f.name ^ ": overwrite refused")
  in
  let create send =
    incr serial;
    let dir_name, dir = dirs.(!serial mod subdirectories) in
    let base_name = Printf.sprintf "f%05d" !serial in
    let size = min_size + Random.State.int rng (max_size - min_size + 1) in
    match send (N.Create { dir; name = base_name; mode = 0o644 }) with
    | N.R_fh (fh, _) ->
      let f =
        {
          name = dir_name ^ "/" ^ base_name;
          dir;
          fh;
          size;
          born = Simclock.now clock;
          died = Int64.max_int;
          versions = [];
        }
      in
      files := f :: !files;
      write send f
    | _ -> Pass.check m false (base_name ^ ": create refused")
  in
  for _ = 1 to scale.files do
    create call
  done;
  let round_end = Array.make (scale.rounds + 1) (Simclock.now clock) in
  (* The audit-chain head as sealed at each round's end: the trust
     anchor an administrator pins off-drive. *)
  let heads = Array.make (scale.rounds + 1) (S4.Audit.sealed_head (Drive.audit drive)) in
  let setup_s = Wallspan.seconds_since t_setup in
  let live () = List.filter (fun f -> f.died = Int64.max_int) (List.rev !files) in
  let seals = ref 0 in
  let snapshot () =
    Pass.drive_counters [ drive ]
    @ Pass.nfs_counters tr
    @ [ ("audit.seals", float_of_int !seals); ("user_bytes", float_of_int !user_bytes) ]
  in
  let before = snapshot () in
  let barriers = ref 0 in
  for r = 1 to scale.rounds do
    Simclock.advance clock (Simclock.of_seconds gap_s);
    let seals0 = Pass.seals [ drive ] in
    let ops0 = List.length m.Pass.brackets in
    List.iter (write op) (live ());
    let victims = Array.of_list (live ()) in
    for _ = 1 to churn do
      let f = victims.(Random.State.int rng (Array.length victims)) in
      if f.died = Int64.max_int then begin
        let base_name = Filename.basename f.name in
        Pass.check m
          (op (N.Remove { dir = f.dir; name = base_name }) = N.R_unit)
          (f.name ^ ": remove");
        f.died <- Simclock.now clock
      end
    done;
    for _ = 1 to churn do
      create op
    done;
    (* Every NFS mutation ends with a drive sync: one barrier per op. *)
    barriers := !barriers + List.length m.Pass.brackets - ops0;
    seals := !seals + Pass.seals [ drive ] - seals0;
    round_end.(r) <- Simclock.now clock;
    heads.(r) <- S4.Audit.sealed_head (Drive.audit drive);
    ignore
      (Pass.measure m Pass.Cleaner (fun () ->
           Wallspan.time "cleaner" (fun () -> Drive.run_cleaner drive)))
  done;
  let counters = Pass.delta before (snapshot ()) in
  let ops =
    List.length (List.filter (fun b -> b.Pass.kind = Pass.Op) m.Pass.brackets)
  in
  (* Space: what the log holds against what the window obliges it to
     keep — every live file's current version plus each version that
     was still current at some instant inside the window. *)
  let cutoff = Drive.detection_cutoff drive in
  let must_keep =
    List.fold_left
      (fun acc f ->
        let _, kept =
          List.fold_left
            (fun (superseded, kept) (written, _) ->
              (written, if Int64.compare superseded cutoff >= 0 then kept + f.size else kept))
            (f.died, 0) f.versions
        in
        acc + kept)
      0 !files
  in
  let space_amp = float_of_int (Pass.occupied_bytes [ drive ]) /. float_of_int must_keep in
  let in_window =
    Array.of_list
      (List.filter
         (fun r -> Int64.compare round_end.(r) cutoff >= 0)
         (List.init scale.rounds Fun.id))
  in
  if Array.length in_window < 2 then failwith "history-churn: fewer than two rounds in the window";
  (* Time-based reads of random in-window versions, as the admin. *)
  let read0 = (Log.stats (Drive.log drive)).Log.blocks_read in
  for _ = 1 to scale.reads do
    let t = round_end.(in_window.(Random.State.int rng (Array.length in_window))) in
    let candidates = Array.of_list (List.filter (fun f -> live_at f t) !files) in
    let f = candidates.(Random.State.int rng (Array.length candidates)) in
    let base = version_at f t in
    match
      Pass.measure m Pass.History_read (fun () ->
          S4.Backend.handle be Rpc.admin_cred
            (Rpc.Read { oid = f.fh; off = 0; len = f.size; at = Some t }))
    with
    | Rpc.R_data b ->
      Pass.check m
        (Bytes.length b = f.size && Content.matches pat ~base ~off:0 b)
        (f.name ^ ": in-window version differs")
    | _ -> Pass.check m false (f.name ^ ": in-window version refused")
  done;
  let hist_blocks = (Log.stats (Drive.log drive)).Log.blocks_read - read0 in
  (* Roll the whole tree back to the end of an in-window round. *)
  let target = in_window.(Random.State.int rng (Array.length in_window)) in
  let at = round_end.(target) in
  let rpcs0 = Drive.ops_handled drive in
  let restored =
    Pass.measure m Pass.Restore (fun () ->
        Wallspan.time "tools" (fun () ->
            Recovery.restore_tree (Recovery.create drive) ~at ~path:""))
  in
  let recovery_rpcs = Drive.ops_handled drive - rpcs0 in
  let bytes_restored =
    match restored with
    | Ok rep -> rep.Recovery.bytes_restored
    | Error e ->
      Pass.violation m ("restore_tree: " ^ e);
      0
  in
  Translator.invalidate_caches tr;
  List.iter
    (fun f ->
      match Translator.lookup_path tr f.name with
      | Ok (fh, _) when live_at f at ->
        (match call (N.Read { fh; off = 0; len = f.size + 1 }) with
         | N.R_data b ->
           Pass.check m
             (Bytes.length b = f.size && Content.matches pat ~base:(version_at f at) ~off:0 b)
             (f.name ^ ": restored contents differ")
         | _ -> Pass.check m false (f.name ^ ": restored file unreadable"))
      | Error N.Enoent when not (live_at f at) -> Pass.check m true f.name
      | _ -> Pass.check m false (f.name ^ ": restored namespace differs"))
    !files;
  (* Audit history older than the window is reclaimed, so what must
     verify is the chain from the head pinned at the oldest in-window
     round on. Audit blocks that survive expiry out of order make the
     verifier report gaps in the reclaimed region before that head;
     those are counted and reported, anything else is a violation. *)
  let anchor = heads.(in_window.(0)) in
  let verdict = S4.Audit.verify ~from:anchor (Drive.audit drive) in
  let expired_gap e =
    match Scanf.sscanf e "chain: records [%d, %d) missing from the log%!" (fun _ b -> b) with
    | b -> b <= anchor.S4_integrity.Chain.records
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> false
  in
  let expired, other = List.partition expired_gap verdict.S4_integrity.Chain.v_errors in
  List.iter (fun e -> Pass.violation m ("drive 0: audit chain: " ^ e)) other;
  List.iter (fun issue -> Pass.violation m ("drive 0: fsck: " ^ issue)) (Drive.fsck drive);
  if traced then Pass.check_trace m ~audit:(Pass.audit_view drive) ();
  {
    Pass.setup_s;
    ops;
    meter = m;
    counters =
      counters
      @ [
          ("barriers", float_of_int !barriers);
          ( "seglog.blocks_read_per_history_read",
            float_of_int hist_blocks /. float_of_int scale.reads );
          ("recovery.rpcs", float_of_int recovery_rpcs);
          ("recovery.bytes_restored", float_of_int bytes_restored);
          ("audit.expired_region_gaps", float_of_int (List.length expired));
        ];
    sim = [ ("space_amp", space_amp) ];
    n_disks = 1;
  }
