(* sync-array: vectored [submit ~sync:true] batches of 4 KB writes over
   a few hundred objects, in process, to a 4-shard mirrored router on
   per-shard worker domains — the durability path: group commit, one
   epoch seal per barrier, mirror double-writes. *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Drive = S4.Drive
module Rpc = S4.Rpc
module Router = S4_shard.Router
module Mirror = S4_multi.Mirror

type scale = {
  objects : int;
  batches : int;
  domains : int;  (** router worker domains; 1 = the serial path *)
}

let full = { objects = 256; batches = 1_000; domains = 2 }
let smoke = { full with objects = 16; batches = 40 }
let shards = 4
let block = 4096
let blocks = 4  (* per object *)
let batch = 4  (* writes per synchronous submission *)
let disk_mb = 256  (* per member drive *)

let run ~scale ~seed ~traced =
  let rng = Random.State.make [| seed; 0x5341 |] in
  let pat = Content.create rng in
  Pass.with_tracing traced @@ fun () ->
  let t_setup = Wallspan.now () in
  let clock = Simclock.create () in
  let geometry = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(disk_mb lsl 20) in
  let mk_drive () =
    Drive.format ~config:S4_workload.Systems.content_drive_config (Sim_disk.create ~geometry clock)
  in
  let router =
    Router.create
      (List.init shards (fun i ->
           (i, Router.Mirrored (Mirror.create (mk_drive ()) (mk_drive ())))))
  in
  Router.set_domains router scale.domains;
  Fun.protect ~finally:(fun () -> Router.close_domains router) @@ fun () ->
  let be = Wallspan.timed_backend "shard" (Router.backend router) in
  let drives = List.map (fun (_, _, d) -> d) (Router.members router) in
  let cred = Rpc.user_cred ~user:1 ~client:1 in
  let submit reqs = be.S4.Backend.submit cred ~sync:true reqs in
  let m = Pass.create clock in
  let oids =
    Array.map
      (function
        | Rpc.R_oid oid -> oid
        | r -> Format.kasprintf failwith "sync-array: create: %a" Rpc.pp_resp r)
      (submit (Array.make scale.objects (Rpc.Create { acl = S4.Acl.default ~owner:1 })))
  in
  (* bases.(o).(b): the stream block [b] of object [o] was last written from. *)
  let bases =
    Array.init scale.objects (fun _ -> Array.init blocks (fun _ -> Content.base rng))
  in
  let len = blocks * block in
  let block_bytes base b = Content.bytes pat ~base ~off:(b * block) ~len:block in
  let init =
    Array.mapi
      (fun o oid ->
        let blocks = Array.mapi (fun b base -> block_bytes base b) bases.(o) in
        let data = Bytes.concat Bytes.empty (Array.to_list blocks) in
        Rpc.Write { oid; off = 0; len; data = Some data })
      oids
  in
  Array.iter (fun r -> Pass.check m (r = Rpc.R_unit) "initial write") (submit init);
  let setup_s = Wallspan.seconds_since t_setup in
  let member_ops () = List.map (fun d -> float_of_int (Drive.ops_handled d)) drives in
  let snapshot () =
    Pass.drive_counters drives
    @ [ ("audit.seals", float_of_int (Pass.seals drives)) ]
  in
  let before = snapshot () and ops0 = member_ops () in
  let acked = ref 0 in
  for _ = 1 to scale.batches do
    let writes =
      Array.init batch (fun _ ->
          let o = Random.State.int rng scale.objects and b = Random.State.int rng blocks in
          (o, b, Content.base rng))
    in
    let reqs =
      Array.map
        (fun (o, b, base) ->
          Rpc.Write
            { oid = oids.(o); off = b * block; len = block;
              data = Some (block_bytes base b) })
        writes
    in
    let resps = Pass.measure m Pass.Op (fun () -> submit reqs) in
    Array.iteri
      (fun i r ->
        let o, b, base = writes.(i) in
        Pass.check m (r = Rpc.R_unit)
          (Printf.sprintf "object %d block %d: write not acknowledged" o b);
        if r = Rpc.R_unit then begin
          bases.(o).(b) <- base;
          incr acked
        end)
      resps
  done;
  let counters = Pass.delta before (snapshot ()) in
  let per_member = List.map2 ( -. ) (member_ops ()) ops0 in
  let mean = List.fold_left ( +. ) 0.0 per_member /. float_of_int (List.length per_member) in
  let imbalance = List.fold_left max 0.0 per_member /. mean in
  let user_bytes = (scale.objects * len) + (!acked * block) in
  let space_amp = float_of_int (Pass.occupied_bytes drives) /. float_of_int user_bytes in
  (* Read every object back and compare with the last acknowledged write. *)
  let reads = Array.map (fun oid -> Rpc.Read { oid; off = 0; len; at = None }) oids in
  Array.iteri
    (fun o r ->
      match r with
      | Rpc.R_data d when Bytes.length d = len ->
        Array.iteri
          (fun b base ->
            Pass.check m
              (Content.matches pat ~base ~off:(b * block) (Bytes.sub d (b * block) block))
              (Printf.sprintf "object %d block %d: read-back differs" o b))
          bases.(o)
      | _ -> Pass.check m false (Printf.sprintf "object %d: read-back refused" o))
    (be.S4.Backend.submit cred reads);
  Pass.check_drives m drives;
  List.iter (fun i -> Pass.violation m ("router fsck: " ^ i)) (Router.fsck router);
  if traced then Pass.check_trace m ();
  {
    Pass.setup_s;
    ops = !acked;
    meter = m;
    counters =
      counters
      @ [
          ("barriers", float_of_int scale.batches);
          ("user_bytes", float_of_int (!acked * block));
          ("shard.member_ops_max_over_mean", imbalance);
        ];
    sim = [ ("space_amp", space_amp) ];
    n_disks = List.length drives;
  }
