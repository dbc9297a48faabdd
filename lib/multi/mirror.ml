module Rpc = S4.Rpc
module Audit = S4.Audit
module Drive = S4.Drive
module Backend = S4.Backend
module Store = S4_store.Obj_store
module Sim_disk = S4_disk.Sim_disk
module Log = S4_seglog.Log

type replica = Primary | Secondary
type read_policy = Primary_only | Balanced

type t = {
  primary : Drive.t;
  secondary : Drive.t;
  (* The replicas' request surfaces. Each request reaches a replica
     unsynced; durability is the mirror's own end-of-batch barrier. *)
  primary_b : Backend.t;
  secondary_b : Backend.t;
  mutable primary_failed : bool;
  mutable secondary_failed : bool;
  (* Newest first. The [int64 option] is the oid the live replica
     resolved for a [Create]: replay must target that oid, not mint a
     fresh one from whatever allocator the target runs. *)
  mutable missed : (Rpc.credential * Rpc.req * int64 option) list;
  mutable lagging : replica option;  (* who the missed mutations are for *)
  mutable read_policy : read_policy;
  mutable rr_next : replica;  (* next balanced read goes here *)
  (* Freshness index over [missed], kept in sync with it: a balanced
     read may only touch the lagging replica when nothing journalled
     could have changed what that read observes. *)
  missed_oids : (int64, unit) Hashtbl.t;
  mutable missed_namespace : bool;  (* a P_create/P_delete is journalled *)
  mutable missed_global : bool;  (* a Sync/Flush/Set_window is journalled *)
  mutable primary_reads : int;
  mutable secondary_reads : int;
}

let create primary secondary =
  (* Mirrored writes happen in parallel: only the primary's disk time
     is charged to the shared clock. *)
  Sim_disk.set_phantom (Log.disk (Drive.log secondary)) true;
  {
    primary;
    secondary;
    primary_b = Drive.backend primary;
    secondary_b = Drive.backend secondary;
    primary_failed = false;
    secondary_failed = false;
    missed = [];
    lagging = None;
    read_policy = Primary_only;
    rr_next = Primary;
    missed_oids = Hashtbl.create 64;
    missed_namespace = false;
    missed_global = false;
    primary_reads = 0;
    secondary_reads = 0;
  }

let drive t = function Primary -> t.primary | Secondary -> t.secondary
let backend t = function Primary -> t.primary_b | Secondary -> t.secondary_b
let is_failed t = function Primary -> t.primary_failed | Secondary -> t.secondary_failed
let lagging t = t.lagging

let set_failed t r v =
  match r with
  | Primary -> t.primary_failed <- v
  | Secondary -> t.secondary_failed <- v

let lag t = List.length t.missed

let set_read_policy t p = t.read_policy <- p
let read_policy t = t.read_policy
let read_counts t = (t.primary_reads, t.secondary_reads)

let other = function Primary -> Secondary | Secondary -> Primary

(* While one replica lags, the other is the authoritative copy; in sync
   the primary is, by convention (it keeps balanced and primary-only
   runs answering audit-class reads identically). *)
let authoritative t =
  match t.lagging with Some r -> other r | None -> Primary

let index_missed_req t req resolved =
  match req with
  | Rpc.Create _ -> (
    match resolved with
    | Some g -> Hashtbl.replace t.missed_oids g ()
    | None -> t.missed_global <- true)
  | Rpc.Delete { oid }
  | Rpc.Write { oid; _ }
  | Rpc.Append { oid; _ }
  | Rpc.Truncate { oid; _ }
  | Rpc.Set_attr { oid; _ }
  | Rpc.Set_acl { oid; _ }
  | Rpc.Flush_object { oid; _ } -> Hashtbl.replace t.missed_oids oid ()
  | Rpc.P_create _ | Rpc.P_delete _ -> t.missed_namespace <- true
  | Rpc.Sync | Rpc.Flush _ | Rpc.Set_window _ -> t.missed_global <- true
  | _ -> ()

let refresh_missed_index t =
  Hashtbl.reset t.missed_oids;
  t.missed_namespace <- false;
  t.missed_global <- false;
  List.iter (fun (_, req, resolved) -> index_missed_req t req resolved) t.missed

(* Reads eligible for replica balancing. Audit-trail reads are not:
   each replica audits only the reads it served, so [Read_audit] and
   [Verify_log] must always see the authoritative replica's log. *)
let balanceable = function
  | Rpc.Read _ | Rpc.Get_attr _ | Rpc.Get_acl_by_user _ | Rpc.Get_acl_by_index _
  | Rpc.P_list _ | Rpc.P_mount _ -> true
  | _ -> false

(* The freshness rule: a read may be served by the lagging replica only
   when no journalled mutation could change what it observes. *)
let read_is_stale t req =
  t.missed_global
  ||
  match req with
  | Rpc.Read { oid; _ }
  | Rpc.Get_attr { oid; _ }
  | Rpc.Get_acl_by_user { oid; _ }
  | Rpc.Get_acl_by_index { oid; _ } -> Hashtbl.mem t.missed_oids oid
  | Rpc.P_list _ | Rpc.P_mount _ -> t.missed_namespace
  | _ -> true

(* A replica answering [Io_error] has hit a permanent media fault the
   drive's own retry could not absorb: treat it as failed. *)
let is_io_error = function Rpc.R_error (Rpc.Io_error _) -> true | _ -> false

(* Responses must agree in kind and payload (oids in particular). *)
let agree (a : Rpc.resp) (b : Rpc.resp) =
  match (a, b) with
  | Rpc.R_audit _, Rpc.R_audit _ -> true  (* timestamps differ benignly *)
  | _ -> a = b

(* Audit records of these ops live only on the replica that served
   them — exactly the balanceable read class. Mutations and admin
   commands are audited on every live replica and must not be
   double-counted when merging. *)
let served_read_ops =
  [ "read"; "getattr"; "getacl_user"; "getacl_index"; "plist"; "pmount" ]

(* Forensic completeness under balancing: a [Read_audit] answered by
   the authoritative replica alone would miss the reads the peer
   served, so merge the peer's read-class records into the answer
   (both logs are chronological; so is the merge). The peer is
   consulted directly — a forensic sweep of its log is not a balanced
   data read and does not move the read counters. *)
let merge_read_audit t cred req ~target resp =
  match (req, resp) with
  | Rpc.Read_audit _, Rpc.R_audit auth_recs when not (is_failed t (other target)) -> (
    match Backend.handle (backend t (other target)) cred req with
    | Rpc.R_audit peer_recs ->
      let extra =
        List.filter (fun r -> List.mem r.Audit.op served_read_ops) peer_recs
      in
      Rpc.R_audit
        (List.merge (fun a b -> compare a.Audit.at b.Audit.at) auth_recs extra)
    | _ -> resp)
  | _ -> resp

(* Journal a mutation the [lagger] missed, keyed to the oid the live
   replica resolved (so a missed [Create] replays onto the same id). *)
let journal t lagger cred req resp =
  let oid = match resp with Rpc.R_oid g -> Some g | _ -> None in
  t.lagging <- Some lagger;
  t.missed <- (cred, req, oid) :: t.missed;
  index_missed_req t req oid

(* The per-request step: replicate a mutation to every live replica
   (failing a replica over on a media fault or divergence), serve a
   read per the read policy. *)
let step t cred req =
  if Rpc.is_mutation req then begin
    match (t.primary_failed, t.secondary_failed) with
    | true, true -> Rpc.R_error (Rpc.Bad_request "mirror: no live replica")
    | false, false ->
      let r1 = Backend.handle t.primary_b cred req in
      let r2 = Backend.handle t.secondary_b cred req in
      if agree r1 r2 then r1
      else if is_io_error r1 && not (is_io_error r2) then begin
        (* Primary media fault: fail it over and keep serving from the
           secondary, journalling the op the primary just missed. *)
        t.primary_failed <- true;
        journal t Primary cred req r2;
        r2
      end
      else if is_io_error r2 && not (is_io_error r1) then begin
        t.secondary_failed <- true;
        journal t Secondary cred req r1;
        r1
      end
      else begin
        (* Split brain: drop the secondary and flag the request. The
           primary applied the op, so its response keys the journal. *)
        t.secondary_failed <- true;
        journal t Secondary cred req r1;
        Rpc.R_error (Rpc.Bad_request "mirror: replica divergence detected")
      end
    | false, true ->
      let r = Backend.handle t.primary_b cred req in
      journal t Secondary cred req r;
      r
    | true, false ->
      let r = Backend.handle t.secondary_b cred req in
      journal t Primary cred req r;
      r
  end
  else begin
    let serve r =
      (match r with
       | Primary -> t.primary_reads <- t.primary_reads + 1
       | Secondary -> t.secondary_reads <- t.secondary_reads + 1);
      Backend.handle (backend t r) cred req
    in
    (* A lone live replica that happens to be the lagging one (repair
       without resync, then the peer died) must not silently answer a
       read the journal could change. *)
    let serve_sole r =
      if t.lagging = Some r && t.missed <> [] && read_is_stale t req then
        Rpc.R_error
          (Rpc.Io_error "mirror: only live replica lags on this read (resync required)")
      else serve r
    in
    match (t.primary_failed, t.secondary_failed) with
    | false, false ->
      let target =
        match t.read_policy with
        | Primary_only -> Primary
        | Balanced ->
          if not (balanceable req) then authoritative t
          else if t.missed <> [] && read_is_stale t req then authoritative t
          else begin
            let r = t.rr_next in
            t.rr_next <- other r;
            r
          end
      in
      let resp = serve target in
      if is_io_error resp then begin
        (* Read fault on the serving replica: fail it over. The
           failover must re-check the freshness rule — when the read
           was routed here precisely because the survivor's missed-op
           journal touches what it observes, answering from the
           survivor would silently serve stale data; surface the fault
           instead and let the operator resync. *)
        set_failed t target true;
        if t.lagging = None then t.lagging <- Some target;
        let survivor = other target in
        if t.lagging = Some survivor && t.missed <> [] && read_is_stale t req then resp
        else serve survivor
      end
      else merge_read_audit t cred req ~target resp
    | false, true -> serve_sole Primary
    | true, false -> serve_sole Secondary
    | true, true -> Rpc.R_error (Rpc.Bad_request "mirror: no live replica")
  end

let barrier t =
  (* End-of-batch durability barrier on every live replica. A replica
     whose barrier fails is failed over exactly like one answering
     [Io_error]: the batch is durable as long as one replica persisted
     it (its in-memory state is intact, so there is nothing to
     journal — later mutations will be). *)
  match (t.primary_failed, t.secondary_failed) with
  | true, true -> Some (Rpc.Bad_request "mirror: no live replica")
  | false, true -> Drive.barrier t.primary
  | true, false -> Drive.barrier t.secondary
  | false, false -> (
    let e1 = Drive.barrier t.primary in
    let e2 = Drive.barrier t.secondary in
    match (e1, e2) with
    | None, None -> None
    | Some _, None ->
      t.primary_failed <- true;
      if t.lagging = None then t.lagging <- Some Primary;
      None
    | None, Some _ ->
      t.secondary_failed <- true;
      if t.lagging = None then t.lagging <- Some Secondary;
      None
    | Some e, Some _ -> Some e)

let submit t cred ?(sync = false) reqs =
  Backend.group_commit ~sync ~barrier:(fun () -> barrier t)
    (Array.map (fun req -> step t cred req) reqs)

let resync t =
  if t.primary_failed && t.secondary_failed then Error "mirror: no live replica to resync from"
  else
    match t.lagging with
    | None -> Ok 0
    | Some r when is_failed t r ->
      Error "mirror resync: repair the failed replica first (set_failed _ false)"
    | Some r ->
      let target = drive t r and target_b = backend t r in
      let replay = List.rev t.missed in
      let rec go n = function
        | [] ->
          t.missed <- [];
          t.lagging <- None;
          refresh_missed_index t;
          Ok n
        | (cred, req, oid) :: rest as remaining ->
          let run () = Backend.handle target_b cred req in
          let resp =
            match (req, oid) with
            | Rpc.Create _, Some g ->
              (* Replay the create idempotently onto the oid the live
                 replica resolved at execution time: the target's own
                 allocator (drive-local counter or a shard router's
                 array-wide one) must not mint a fresh id. *)
              let st = Drive.store target in
              let saved = Store.oid_allocator st in
              Store.set_oid_allocator st (Some (fun () -> g));
              Fun.protect ~finally:(fun () -> Store.set_oid_allocator st saved) run
            | _ -> run ()
          in
          (match resp with
           | Rpc.R_error e ->
             (* Keep only what was NOT replayed (including the failed
                request): the applied prefix must not be replayed again
                on the next resync — ops like Append are not
                idempotent, so double-applying them diverges the
                replicas the resync is meant to converge. *)
             t.missed <- List.rev remaining;
             refresh_missed_index t;
             Error (Format.asprintf "mirror resync: %s failed: %a" (Rpc.op_name req) Rpc.pp_error e)
           | _ -> go (n + 1) rest)
      in
      go 0 replay

let divergence t =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let s1 = Drive.store t.primary and s2 = Drive.store t.secondary in
  let o1 = Store.list_all s1 and o2 = Store.list_all s2 in
  if o1 <> o2 then err "object sets differ: %d vs %d" (List.length o1) (List.length o2)
  else
    List.iter
      (fun oid ->
        let e1 = Store.exists s1 oid and e2 = Store.exists s2 oid in
        if e1 <> e2 then err "oid %Ld existence differs" oid
        else if e1 then begin
          let z1 = Store.size s1 oid and z2 = Store.size s2 oid in
          if z1 <> z2 then err "oid %Ld size %d vs %d" oid z1 z2
          else begin
            let d1 = Digest.bytes (Store.read s1 oid ~off:0 ~len:z1) in
            let d2 = Digest.bytes (Store.read s2 oid ~off:0 ~len:z2) in
            if d1 <> d2 then err "oid %Ld contents differ" oid
          end;
          if not (Bytes.equal (Store.get_attr s1 oid) (Store.get_attr s2 oid)) then
            err "oid %Ld attrs differ" oid
        end)
      o1;
  List.rev !errs
