module Bcodec = S4_util.Bcodec
module Simclock = S4_util.Simclock
module Sim_disk = S4_disk.Sim_disk
module Fault = S4_disk.Fault
module Log = S4_seglog.Log
module Store = S4_store.Obj_store
module Cleaner = S4_store.Cleaner
module Trace = S4_obs.Trace

type config = {
  store : Store.config;
  window : int64;
  audit_enabled : bool;
  integrity : bool;
  throttle : Throttle.config option;
  history_reserve : float;
  cleaner_live_threshold : float;
  cleaner_max_segments : int;
  cpu_us_per_rpc : float;
  io_retry_limit : int;
  io_retry_backoff_ms : float;
}

let day_ns = Int64.mul 86_400L 1_000_000_000L

let default_config =
  {
    store = Store.default_config;
    window = Int64.mul 7L day_ns;
    audit_enabled = true;
    integrity = true;
    throttle = Some Throttle.default_config;
    history_reserve = 0.5;
    cleaner_live_threshold = 0.75;
    cleaner_max_segments = 8;
    cpu_us_per_rpc = 550.0;
    io_retry_limit = 3;
    io_retry_backoff_ms = 1.0;
  }

type t = {
  cfg : config;
  log : Log.t;
  store : Store.t;
  audit : Audit.t;
  cleaner : Cleaner.t;
  throttle : Throttle.t option;
  mutable ptable_oid : int64;
  mutable ops : int;
  mutable last_clean_at : int64;
  mutable last_clean_busy : int64;
  mutable io_errors : int;  (* RPCs failed on a permanent media fault *)
  mutable audit_drops : int;  (* audit appends lost to media faults or a full log *)
}

let clock t = Store.clock t.store
let store t = t.store
let ptable_oid t = t.ptable_oid
let log t = t.log
let audit t = t.audit
let cleaner t = t.cleaner
let throttle t = t.throttle
let window t = Cleaner.window t.cleaner
let ops_handled t = t.ops
let now t = Simclock.now (clock t)
let io_errors t = t.io_errors
let audit_drops t = t.audit_drops

let degraded t = t.io_errors > 0 || t.audit_drops > 0

let detection_cutoff t =
  let c = Int64.sub (now t) (window t) in
  if Int64.compare c 0L < 0 then 0L else c

(* ------------------------------------------------------------------ *)
(* Superblock                                                          *)

let superblock_magic = 0x5342_3453 (* "S4SB" *)
let superblock_version = 1

let write_superblock t =
  let w = Bcodec.writer () in
  Bcodec.w_u32 w superblock_magic;
  Bcodec.w_u8 w superblock_version;
  Bcodec.w_i64 w t.ptable_oid;
  Bcodec.w_i64 w (window t);
  Log.write_superblock t.log (Bcodec.contents w)

let read_superblock log =
  let b = Log.read_superblock log in
  let r = Bcodec.reader b in
  if Bcodec.r_u32 r <> superblock_magic || Bcodec.r_u8 r <> superblock_version then None
  else begin
    let ptable_oid = Bcodec.r_i64 r in
    let window = Bcodec.r_i64 r in
    Some (ptable_oid, window)
  end

(* ------------------------------------------------------------------ *)
(* Partition (named object) table — itself a versioned object.        *)

let encode_ptable entries =
  let w = Bcodec.writer () in
  Bcodec.w_int w (List.length entries);
  List.iter
    (fun (name, oid) ->
      Bcodec.w_string w name;
      Bcodec.w_i64 w oid)
    entries;
  Bcodec.contents w

let decode_ptable b =
  if Bytes.length b = 0 then []
  else begin
    let r = Bcodec.reader b in
    let n = Bcodec.r_int r in
    List.init n (fun _ ->
        let name = Bcodec.r_string r in
        let oid = Bcodec.r_i64 r in
        (name, oid))
  end

let read_ptable t ?at () =
  let size = Store.size t.store ?at t.ptable_oid in
  if size = 0 then []
  else decode_ptable (Store.read t.store ?at t.ptable_oid ~off:0 ~len:size)

let write_ptable t entries =
  let data = encode_ptable entries in
  let len = Bytes.length data in
  Store.write t.store t.ptable_oid ~off:0 ~data ~len ();
  if Store.size t.store t.ptable_oid > len then Store.truncate t.store t.ptable_oid ~size:len

(* Silent name-table access for array-internal objects (the shard
   router's integrity catalog): no audit record, no RPC cpu charge. *)
let named_oid t name = List.assoc_opt name (read_ptable t ())

let register_name t name oid =
  let entries = read_ptable t () in
  if List.mem_assoc name entries then
    invalid_arg (Printf.sprintf "Drive.register_name: %s exists" name);
  write_ptable t ((name, oid) :: entries)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let build cfg log store ~ptable_oid =
  let cleaner =
    Cleaner.create ~window:cfg.window ~live_threshold:cfg.cleaner_live_threshold
      ~max_segments_per_run:cfg.cleaner_max_segments store
  in
  let audit = Audit.create ~enabled:cfg.audit_enabled log in
  Cleaner.set_on_audit_move cleaner (fun old_addr new_addr -> Audit.on_move audit ~old_addr ~new_addr);
  let throttle = Option.map (fun tc -> Throttle.create ~config:tc (Log.clock log)) cfg.throttle in
  Log.set_io_retry log ~limit:cfg.io_retry_limit ~backoff_ms:cfg.io_retry_backoff_ms;
  (* Every device-level sync snapshots the sealed chain head into the
     disk's own header — a second, device-held trust anchor an attacker
     rewriting the log cannot update without also forging SHA-256. *)
  Sim_disk.set_head_provider (Log.disk log) (fun () ->
      if cfg.integrity && Audit.enabled audit then Some (Audit.sealed_head audit) else None);
  {
    cfg;
    log;
    store;
    audit;
    cleaner;
    throttle;
    ptable_oid;
    ops = 0;
    last_clean_at = 0L;
    last_clean_busy = 0L;
    io_errors = 0;
    audit_drops = 0;
  }

let format ?(config = default_config) disk =
  let log = Log.create disk in
  let store = Store.create ~config:config.store log in
  let ptable_oid = Store.create_object store in
  Store.set_acl_raw store ptable_oid (Acl.encode (Acl.default ~owner:0));
  let t = build config log store ~ptable_oid in
  write_superblock t;
  Store.sync store;
  t

let attach ?(config = default_config) disk =
  let log = Log.reattach disk in
  let store = Store.recover ~config:config.store log in
  let ptable_oid, window =
    match read_superblock log with
    | Some (oid, w) -> (oid, w)
    | None -> invalid_arg "Drive.attach: no valid superblock"
  in
  let t = build { config with window } log store ~ptable_oid in
  Audit.recover t.audit ~cutoff:(detection_cutoff t);
  (* Cross-check the device-held anchor: the head recorded in the disk
     header at the last successful sync must still lie on the recovered
     chain. A recovered chain *newer* than the anchor is ordinary crash
     state; an anchor the chain cannot reproduce means the log was
     rewound or rewritten behind the device's back. *)
  (if config.integrity then
     match Sim_disk.saved_head (Log.disk log) with
     | None -> ()
     | Some h ->
       let r = Audit.verify ~from:h ~lenient_tail:true t.audit in
       if not (S4_integrity.Chain.clean r) then
         Logs.warn (fun m ->
             m "attach: audit chain disagrees with device anchor: %a"
               S4_integrity.Chain.pp_result r));
  t

(* ------------------------------------------------------------------ *)
(* Pool pressure / throttling                                          *)

let history_budget_blocks t =
  int_of_float (t.cfg.history_reserve *. float_of_int (Log.usable_blocks t.log))

let pool_pressure t =
  let budget = max 1 (history_budget_blocks t) in
  let history = Store.history_block_count t.store in
  min 1.0 (float_of_int history /. float_of_int budget)

let refresh_pressure t =
  match t.throttle with
  | Some th -> Throttle.set_pool_pressure th (pool_pressure t)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Request processing                                                  *)

let oid_of_req : Rpc.req -> int64 = function
  | Rpc.Delete { oid }
  | Rpc.Read { oid; _ }
  | Rpc.Write { oid; _ }
  | Rpc.Append { oid; _ }
  | Rpc.Truncate { oid; _ }
  | Rpc.Get_attr { oid; _ }
  | Rpc.Set_attr { oid; _ }
  | Rpc.Get_acl_by_user { oid; _ }
  | Rpc.Get_acl_by_index { oid; _ }
  | Rpc.Set_acl { oid; _ }
  | Rpc.Flush_object { oid; _ } ->
    oid
  | Rpc.P_create { oid; _ } -> oid
  | Rpc.Create _ | Rpc.P_delete _ | Rpc.P_list _ | Rpc.P_mount _ | Rpc.Sync | Rpc.Flush _
  | Rpc.Set_window _ | Rpc.Read_audit _ | Rpc.Verify_log _ ->
    0L

exception Denied

let current_acl t oid = Acl.decode (Store.current_acl_raw t.store oid)

let require t (cred : Rpc.credential) oid perm =
  if not cred.Rpc.admin then begin
    let acl = current_acl t oid in
    if not (Acl.allows acl ~user:cred.Rpc.user ~client:cred.Rpc.client perm) then raise Denied
  end

(* Reading a version from the history pool once it has been superseded
   or deleted additionally requires the Recovery flag (or admin). *)
let require_history t (cred : Rpc.credential) oid =
  if not cred.Rpc.admin then begin
    let acl = current_acl t oid in
    if not (Acl.allows_recovery acl ~user:cred.Rpc.user ~client:cred.Rpc.client) then raise Denied
  end

let note_growth t (cred : Rpc.credential) bytes =
  match t.throttle with
  | Some th -> Throttle.note_write th ~client:cred.Rpc.client ~bytes
  | None -> ()

let exec t (cred : Rpc.credential) (req : Rpc.req) : Rpc.resp =
  let st = t.store in
  match req with
  | Rpc.Create { acl } ->
    let oid = Store.create_object st in
    let acl = if acl = [] then Acl.default ~owner:cred.Rpc.user else acl in
    Store.set_acl_raw st oid (Acl.encode acl);
    note_growth t cred 256;
    Rpc.R_oid oid
  | Rpc.Delete { oid } ->
    require t cred oid Acl.Delete;
    Store.delete_object st oid;
    note_growth t cred 256;
    Rpc.R_unit
  | Rpc.Read { oid; off; len; at } ->
    require t cred oid Acl.Read;
    (match at with None -> () | Some _ -> require_history t cred oid);
    Rpc.R_data (Store.read st ?at oid ~off ~len)
  | Rpc.Write { oid; off; len; data } ->
    require t cred oid Acl.Write;
    Store.write st oid ~off ?data ~len ();
    note_growth t cred len;
    Rpc.R_unit
  | Rpc.Append { oid; len; data } ->
    require t cred oid Acl.Write;
    Store.append st oid ?data ~len ();
    note_growth t cred len;
    Rpc.R_unit
  | Rpc.Truncate { oid; size } ->
    require t cred oid Acl.Write;
    Store.truncate st oid ~size;
    note_growth t cred 256;
    Rpc.R_unit
  | Rpc.Get_attr { oid; at } ->
    require t cred oid Acl.Read;
    (match at with None -> () | Some _ -> require_history t cred oid);
    Rpc.R_attr (Store.get_attr st ?at oid)
  | Rpc.Set_attr { oid; attr } ->
    require t cred oid Acl.Set_attr;
    Store.set_attr st oid attr;
    note_growth t cred (Bytes.length attr);
    Rpc.R_unit
  | Rpc.Get_acl_by_user { oid; acl_user; at } ->
    require t cred oid Acl.Read;
    (match at with None -> () | Some _ -> require_history t cred oid);
    let acl = Acl.decode (Store.get_acl_raw st ?at oid) in
    (match Acl.find_by_user acl ~user:acl_user with
     | Some e -> Rpc.R_acl e
     | None -> Rpc.R_error Rpc.Not_found)
  | Rpc.Get_acl_by_index { oid; index; at } ->
    require t cred oid Acl.Read;
    (match at with None -> () | Some _ -> require_history t cred oid);
    let acl = Acl.decode (Store.get_acl_raw st ?at oid) in
    (match Acl.nth acl index with
     | Some e -> Rpc.R_acl e
     | None -> Rpc.R_error Rpc.Not_found)
  | Rpc.Set_acl { oid; index; entry } ->
    require t cred oid Acl.Set_acl;
    let acl = current_acl t oid in
    Store.set_acl_raw st oid (Acl.encode (Acl.set_nth acl index entry));
    note_growth t cred 64;
    Rpc.R_unit
  | Rpc.P_create { name; oid } ->
    let entries = read_ptable t () in
    if List.mem_assoc name entries then Rpc.R_error (Rpc.Bad_request "partition exists")
    else begin
      write_ptable t ((name, oid) :: entries);
      note_growth t cred (String.length name + 16);
      Rpc.R_unit
    end
  | Rpc.P_delete { name } ->
    let entries = read_ptable t () in
    if not (List.mem_assoc name entries) then Rpc.R_error Rpc.Not_found
    else begin
      write_ptable t (List.remove_assoc name entries);
      Rpc.R_unit
    end
  | Rpc.P_list { at } ->
    (match at with None -> () | Some _ -> if not cred.Rpc.admin then raise Denied);
    Rpc.R_names (List.map fst (read_ptable t ?at ()))
  | Rpc.P_mount { name; at } ->
    (match at with None -> () | Some _ -> if not cred.Rpc.admin then raise Denied);
    (match List.assoc_opt name (read_ptable t ?at ()) with
     | Some oid -> Rpc.R_oid oid
     | None -> Rpc.R_error Rpc.Not_found)
  | Rpc.Sync ->
    (* The audit trail shares the durability barrier: records buffered
       up to this point must survive a crash once the sync returns. The
       seal travels in the same flush as the records it covers, so a
       torn flush loses the seal before it can orphan any record. *)
    Audit.flush t.audit;
    if t.cfg.integrity then Audit.seal t.audit;
    Store.sync st;
    Rpc.R_unit
  | Rpc.Flush { until } ->
    if not cred.Rpc.admin then raise Denied;
    let until = min until (now t) in
    Store.expire st ~cutoff:until;
    ignore (Audit.expire t.audit ~cutoff:until);
    ignore (Log.reclaim_dead_segments t.log);
    Rpc.R_unit
  | Rpc.Flush_object { oid; until } ->
    if not cred.Rpc.admin then raise Denied;
    let until = min until (now t) in
    Store.expire_one st oid ~cutoff:until;
    ignore (Log.reclaim_dead_segments t.log);
    Rpc.R_unit
  | Rpc.Set_window { window } ->
    if not cred.Rpc.admin then raise Denied;
    Cleaner.set_window t.cleaner window;
    write_superblock t;
    Rpc.R_unit
  | Rpc.Read_audit { since; until } ->
    if not cred.Rpc.admin then raise Denied;
    Rpc.R_audit (Audit.records t.audit ~since ~until ())
  | Rpc.Verify_log { from } ->
    if not cred.Rpc.admin then raise Denied;
    Rpc.R_verify (Audit.verify ?from t.audit)

let handle_inner t (cred : Rpc.credential) req =
  t.ops <- t.ops + 1;
  Simclock.advance (clock t) (Simclock.of_us t.cfg.cpu_us_per_rpc);
  (* DoS defence: penalise clients abusing the history pool. *)
  (match t.throttle with
   | Some th ->
     let p = Throttle.penalty th ~client:cred.Rpc.client in
     if Int64.compare p 0L > 0 then Simclock.advance (clock t) p
   | None -> ());
  (* Transient faults are retried inside the log (Log.set_io_retry);
     what reaches this perimeter is permanent (or out of retries) and
     is surfaced as a clean R_error. Fault.Crashed is deliberately NOT
     caught: a crashed device has no valid in-memory state left, so
     the owner must discard this drive and reattach. *)
  let io_failed lba transient kind =
    t.io_errors <- t.io_errors + 1;
    Rpc.R_error
      (Rpc.Io_error
         (Printf.sprintf "%s fault at lba %d%s" kind lba
            (if transient then " (retries exhausted)" else "")))
  in
  let resp =
    try exec t cred req with
    | Denied -> Rpc.R_error Rpc.Permission_denied
    | Store.No_such_object _ -> Rpc.R_error Rpc.Not_found
    | Store.Is_deleted _ -> Rpc.R_error Rpc.Object_deleted
    | Log.Log_full -> Rpc.R_error Rpc.No_space
    | Invalid_argument m -> Rpc.R_error (Rpc.Bad_request m)
    | Fault.Read_fault { lba; transient } -> io_failed lba transient "read"
    | Fault.Write_fault { lba; transient } -> io_failed lba transient "write"
  in
  let ok = match resp with Rpc.R_error _ -> false | _ -> true in
  (* A media fault or a full log while persisting the audit trail must
     not take the whole drive down; count the loss and keep serving
     (degraded). *)
  (try
     Audit.append t.audit
       {
         Audit.at = now t;
         user = cred.Rpc.user;
         client = cred.Rpc.client;
         op = Rpc.op_name req;
         oid = oid_of_req req;
         info = Rpc.op_info req;
         ok;
       }
   with Fault.Read_fault _ | Fault.Write_fault _ | Log.Log_full ->
     t.audit_drops <- t.audit_drops + 1);
  if t.ops land 1023 = 0 then refresh_pressure t;
  resp

let barrier t =
  (* The durability barrier that ends a synced batch (group commit):
     audit records buffered so far must survive a crash once the
     barrier returns (the audit-at-Sync invariant), then the
     store itself is made stable. A media fault or a full log here
     means the caller must not be told its mutations are durable. *)
  let io_failed lba transient kind =
    t.io_errors <- t.io_errors + 1;
    Some
      (Rpc.Io_error
         (Printf.sprintf "%s fault at lba %d%s" kind lba
            (if transient then " (retries exhausted)" else "")))
  in
  try
    Audit.flush t.audit;
    if t.cfg.integrity then Audit.seal t.audit;
    Store.sync t.store;
    None
  with
  | Fault.Read_fault { lba; transient } -> io_failed lba transient "sync read"
  | Fault.Write_fault { lba; transient } -> io_failed lba transient "sync write"
  | Log.Log_full -> Some Rpc.No_space

let handle_one t (cred : Rpc.credential) req =
  if not (Trace.on ()) then handle_inner t cred req
  else begin
    let disk = Log.disk t.log in
    let dev0 =
      Int64.add (Sim_disk.stats disk).Sim_disk.busy_ns (Sim_disk.phantom_ns disk)
    in
    let f0 = t.io_errors and r0 = (Log.stats t.log).Log.io_retries in
    let tok = Trace.enter Trace.Drive ~kind:(Rpc.op_name req) ~now:(now t) in
    Trace.set_oid tok (oid_of_req req);
    (match req with
     | Rpc.Read { at = Some at; _ } | Rpc.Get_attr { at = Some at; _ }
     | Rpc.Get_acl_by_user { at = Some at; _ } | Rpc.Get_acl_by_index { at = Some at; _ } ->
       Trace.set_at tok at
     | _ -> ());
    Trace.set_cutoff tok (detection_cutoff t);
    let fin () =
      Trace.add_faults tok (t.io_errors - f0);
      Trace.add_retries tok ((Log.stats t.log).Log.io_retries - r0);
      let dev1 =
        Int64.add (Sim_disk.stats disk).Sim_disk.busy_ns (Sim_disk.phantom_ns disk)
      in
      Trace.set_disk_ns tok (Int64.sub dev1 dev0)
    in
    match handle_inner t cred req with
    | resp ->
      (match resp with
       | Rpc.R_oid oid -> Trace.set_oid tok oid  (* Create learns its oid here *)
       | Rpc.R_data b -> Trace.set_bytes tok (Bytes.length b)
       | Rpc.R_error e -> Trace.fail tok (Rpc.err_tag e)
       | _ -> ());
      (match req with
       | Rpc.Write { len; _ } | Rpc.Append { len; _ } -> Trace.set_bytes tok len
       | _ -> ());
      fin ();
      Trace.finish tok ~now:(now t);
      resp
    | exception e ->
      (* Fault.Crashed and friends: the span is aborted, not lost. *)
      fin ();
      Trace.abort tok ~now:(now t);
      raise e
  end

let submit t (cred : Rpc.credential) ?(sync = false) reqs =
  (* Every request runs with full per-request semantics (throttle,
     ACL, audit record, trace span), in array order; the durability
     barrier is paid once, after the last request (group commit). *)
  Backend.group_commit ~sync ~barrier:(fun () -> barrier t)
    (Array.map (fun req -> handle_one t cred req) reqs)

let capacity t =
  let log = t.log in
  let block = Log.block_size log in
  (Log.usable_blocks log * block, (Log.usable_blocks log - Log.live_blocks log) * block)

let backend t =
  Backend.make ~clock:(clock t)
    ~keep_data:t.cfg.store.Store.keep_data
    ~capacity:(fun () -> capacity t)
    (submit t)

let run_cleaner t =
  (* Idle disk time accumulated since the last cleaner run: available
     to an overlapped (background) cleaner for free. *)
  let disk = Log.disk t.log in
  let busy = (Sim_disk.stats disk).Sim_disk.busy_ns in
  let elapsed = Int64.sub (now t) t.last_clean_at in
  let busy_delta = Int64.sub busy t.last_clean_busy in
  let idle_ns =
    let i = Int64.sub elapsed busy_delta in
    if Int64.compare i 0L > 0 then i else 0L
  in
  let report = Cleaner.run ~idle_ns t.cleaner in
  t.last_clean_at <- now t;
  t.last_clean_busy <- (Sim_disk.stats disk).Sim_disk.busy_ns;
  ignore (Audit.expire t.audit ~cutoff:(Cleaner.cutoff t.cleaner));
  ignore (Log.reclaim_dead_segments t.log);
  refresh_pressure t;
  report

let integrity_enabled t = t.cfg.integrity

let fsck t =
  Store.check ~extra_live:(Audit.live_addrs t.audit) t.store

let pp_stats ppf t =
  Format.fprintf ppf
    "drive: %d ops, window %.1f days, pressure %.2f, audit %d records%s@.%a@.%a"
    t.ops
    (Int64.to_float (window t) /. Int64.to_float day_ns)
    (pool_pressure t) (Audit.record_count t.audit)
    (if degraded t then
       Printf.sprintf " [DEGRADED: %d io errors, %d audit drops]" t.io_errors t.audit_drops
     else "")
    Store.pp_stats t.store Log.pp_stats t.log
