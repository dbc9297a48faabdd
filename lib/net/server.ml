module Rpc = S4.Rpc
module Drive = S4.Drive
module Backend = S4.Backend
module Simclock = S4_util.Simclock
module Metrics = S4_obs.Metrics
module Trace = S4_obs.Trace

type audit_garbage = client:int -> info:string -> unit

(* The garbage-audit hook for a drive-backed server: malformed input
   is recorded inside the perimeter like any other request, charged to
   the connection-derived identity. *)
let drive_audit_garbage drive ~client ~info =
  let audit = Drive.audit drive in
  let at = Simclock.now (Drive.clock drive) in
  try
    S4.Audit.append audit
      { S4.Audit.at; user = -1; client; op = "net_reject"; oid = 0L; info; ok = false }
  with _ -> ()

type config = {
  max_frame : int;
  max_inflight : int;
  max_io : int;
  allow_admin : bool;
  max_batch : int;  (** largest accepted [Batch]; advertised in [Stat_ack] *)
  lease_ns : int64;
      (** client-cache lease term granted on read replies; 0 grants
          no leases *)
  qos : bool;
      (** arbitrate pending work across every session with weighted
          fair queueing instead of per-session FIFO *)
}

let default_config =
  {
    max_frame = Wire.max_frame_default;
    max_inflight = 64;
    max_io = 16 * 1024 * 1024;
    allow_admin = true;
    max_batch = 256;
    lease_ns = 0L;
    qos = false;
  }

type t = {
  backend : Backend.t;
  audit_garbage : audit_garbage option;
  cfg : config;
  lock : Mutex.t;
      (** serializes backend calls when the backend is [Serial] (the
          drive stack is single-owner), and guards [sched]/[leases]
          whenever those features are on; bypassed entirely for a
          [Domain_safe] backend with neither — see [direct] *)
  sched : (unit -> unit) S4_qos.Wfq.t option;
      (** [qos] mode: one WFQ over every session's pending work; items
          are execute-and-reply thunks, guarded by [lock] *)
  leases : (int64, (int * bool, int64) Hashtbl.t) Hashtbl.t;
      (** live client-cache leases, by oid: (holder connection
          identity, current-version?) -> absolute expiry. Guarded by
          [lock]. *)
}

let create ?(config = default_config) ?audit_garbage ?weight_of backend =
  Wire.ensure_metrics ();
  {
    backend;
    audit_garbage;
    cfg = config;
    lock = Mutex.create ();
    sched = (if config.qos then Some (S4_qos.Wfq.create ?weight_of ()) else None);
    leases = Hashtbl.create 64;
  }

(* A drive-backed server schedules clients by the drive's own DoS
   detector: an active history-pool penalty shrinks the client's WFQ
   weight, so the noisy client is served less often while honest
   clients keep their share. *)
let of_drive ?config ?weight_of drive =
  let weight_of =
    match weight_of with
    | Some _ -> weight_of
    | None -> (
      match Drive.throttle drive with
      | Some th -> Some (fun client -> S4.Throttle.weight th ~client)
      | None -> None)
  in
  create ?config ?weight_of
    ~audit_garbage:(drive_audit_garbage drive)
    (Drive.backend drive)

let config t = t.cfg
let scheduler t = t.sched

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* When the backend declares itself [Domain_safe] and neither the
   shared WFQ scheduler nor the lease registry is in play, sessions
   skip the server lock entirely: every connection calls straight into
   the backend, which serializes (or parallelizes) internally.
   Per-session ordering is untouched — a session still drains its own
   FIFO on its own thread — but independent sessions no longer
   serialize on this mutex. With [qos] the lock is what makes the
   shared queue's arbitration atomic, and with leases it guards the
   registry and the fence's clock wait, so either feature keeps the
   lock. *)
let direct t =
  t.backend.Backend.concurrency = Backend.Domain_safe
  && Option.is_none t.sched
  && Int64.compare t.cfg.lease_ns 0L <= 0

let with_backend t f = if direct t then f () else with_lock t f

(* ------------------------------------------------------------------ *)
(* Client-cache lease registry                                         *)

(* Leases follow the classic write-through discipline: a mutation that
   could change what an outstanding lease's holder observes may not
   apply until that lease has expired. The protocol has no callback
   channel to recall a lease, so the "recall" is a wait — the server
   advances the clock to the conflicting expiry before executing the
   mutation (bounded by [lease_ns], which is why the term should stay
   small). A client's own mutations never wait for its own leases: the
   client invalidates its cache the moment it sends one. This is what
   makes cached reads linearizable across clients — a cached serve
   orders before any conflicting write, because that write only
   committed after the lease died. *)

let record_lease t ~oid ~holder ~current ~expiry ~now =
  let tbl =
    match Hashtbl.find_opt t.leases oid with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 4 in
      Hashtbl.add t.leases oid tbl;
      tbl
  in
  (* Drop this oid's dead grants while we are here, keeping the
     registry bounded by live leases. *)
  let dead =
    Hashtbl.fold (fun k e acc -> if e <= now then k :: acc else acc) tbl []
  in
  List.iter (Hashtbl.remove tbl) dead;
  match Hashtbl.find_opt tbl (holder, current) with
  | Some e when e >= expiry -> ()
  | _ -> Hashtbl.replace tbl (holder, current) expiry

(* Latest expiry among leases [req] from [holder] conflicts with (0 =
   none). Current-version leases conflict with any mutation of their
   object; explicit-version leases name immutable history and conflict
   only with pruning ([Flush]/[Flush_object]/[Set_window]), which can
   retire the very version they cache. *)
let conflicting_lease_expiry t ~holder ~now req =
  let scan ~all oid acc =
    match Hashtbl.find_opt t.leases oid with
    | None -> acc
    | Some tbl ->
      Hashtbl.fold
        (fun (h, current) e acc ->
          if e <= now || h = holder || not (all || current) then acc else max acc e)
        tbl acc
  in
  match req with
  | Rpc.Delete { oid }
  | Rpc.Write { oid; _ }
  | Rpc.Append { oid; _ }
  | Rpc.Truncate { oid; _ }
  | Rpc.Set_attr { oid; _ }
  | Rpc.Set_acl { oid; _ } -> scan ~all:false oid 0L
  | Rpc.Flush_object { oid; _ } -> scan ~all:true oid 0L
  | Rpc.Flush _ | Rpc.Set_window _ ->
    Hashtbl.fold (fun oid _ acc -> scan ~all:true oid acc) t.leases 0L
  | _ -> 0L

(* ------------------------------------------------------------------ *)
(* Sans-IO protocol session                                            *)

module Session = struct
  (* One queued [Batch] frame. *)
  type work = { xid : int64; cred : Rpc.credential; sync : bool; reqs : Rpc.req array }

  type s = {
    srv : t;
    s_identity : int;
    s_trace : bool;
    mutable inbuf : Bytes.t;
    mutable in_start : int;
    mutable in_len : int;
    pending : work Queue.t;
    mutable s_inflight : int;  (* requests queued, batches flattened *)
    out : Buffer.t;
    out_lock : Mutex.t;
        (* In [qos] mode any session's thread may execute this
           session's work and emit its reply; the buffer gets its own
           lock (always innermost, after the server lock). *)
    mutable s_closing : bool;
  }

  let create ?(identity = 1) ?(trace = false) srv =
    {
      srv;
      s_identity = identity;
      s_trace = trace;
      inbuf = Bytes.create 4096;
      in_start = 0;
      in_len = 0;
      pending = Queue.create ();
      s_inflight = 0;
      out = Buffer.create 256;
      out_lock = Mutex.create ();
      s_closing = false;
    }

  let identity s = s.s_identity
  let closing s = s.s_closing

  let finished s =
    s.s_closing && s.s_inflight = 0 && Queue.is_empty s.pending && Buffer.length s.out = 0

  let emit s frame =
    let b = Wire.encode frame in
    Metrics.incr "net/frames_out";
    Metrics.incr ~by:(Bytes.length b) "net/bytes_out";
    Mutex.lock s.out_lock;
    Buffer.add_bytes s.out b;
    Mutex.unlock s.out_lock

  let output s =
    Mutex.lock s.out_lock;
    let b = Buffer.to_bytes s.out in
    Buffer.clear s.out;
    Mutex.unlock s.out_lock;
    b

  (* Reject the stream: protocol error out, audit the garbage, stop
     reading. Queued valid requests still execute before the close. *)
  let reject s msg =
    Metrics.incr "net/decode_reject";
    (match s.srv.audit_garbage with
    | Some f -> f ~client:s.s_identity ~info:msg
    | None -> ());
    emit s (Wire.Proto_error { xid = 0L; message = msg });
    s.s_closing <- true;
    s.in_len <- 0;
    s.in_start <- 0

  let now s = Simclock.now s.srv.backend.Backend.clock

  let oversized_io cfg (req : Rpc.req) =
    match req with
    | Rpc.Read { len; _ } | Rpc.Write { len; _ } | Rpc.Append { len; _ } ->
      len > cfg.max_io || len < 0
    | Rpc.Truncate { size; _ } -> size > cfg.max_io || size < 0
    | _ -> false

  let bad_data (req : Rpc.req) =
    match req with
    | Rpc.Write { len; data = Some d; _ } | Rpc.Append { len; data = Some d; _ } ->
      Bytes.length d <> len
    | _ -> false

  (* Execute a batch; the caller must hold the server lock. Per-request policy violations (oversized IO,
     inconsistent data length) answer positionally without reaching
     the backend; the surviving requests go down as ONE vectored
     submission, so a [sync] batch pays a single group-commit
     barrier. *)
  let execute_batch_locked s cred sync reqs =
    let cfg = s.srv.cfg in
    (* The connection, not the request, names the client. *)
    let cred = { cred with Rpc.client = s.s_identity } in
    let n = Array.length reqs in
    if cred.Rpc.admin && not cfg.allow_admin then
      Array.make n (Rpc.R_error Rpc.Permission_denied)
    else begin
      let resps = Array.make n Rpc.R_unit in
      let valid = ref [] in
      Array.iteri
        (fun i req ->
          if oversized_io cfg req then
            resps.(i) <- Rpc.R_error (Rpc.Bad_request "io size exceeds server limit")
          else if bad_data req then
            resps.(i) <- Rpc.R_error (Rpc.Bad_request "data length mismatch")
          else valid := (i, req) :: !valid)
        reqs;
      let valid = Array.of_list (List.rev !valid) in
      let kind =
        if n = 1 then Rpc.op_name reqs.(0) else Printf.sprintf "batch/%d" n
      in
      let tok =
        if s.s_trace && Trace.on () then Trace.enter Trace.Net ~kind ~now:(now s)
        else Trace.null
      in
      let sub = Array.map snd valid in
      (* Lease fence: wait out every other client's lease this batch's
         mutations conflict with before any of it executes. *)
      let fence =
        Array.fold_left
          (fun acc req ->
            if Rpc.is_mutation req then
              max acc
                (conflicting_lease_expiry s.srv ~holder:s.s_identity ~now:(now s) req)
            else acc)
          0L sub
      in
      if fence > now s then begin
        Metrics.incr "net/lease_wait";
        Simclock.set s.srv.backend.Backend.clock fence
      end;
      let out =
        try s.srv.backend.Backend.submit cred ~sync sub
        with exn ->
          Array.make (Array.length sub) (Rpc.R_error (Rpc.Io_error (Printexc.to_string exn)))
      in
      if Array.length out = Array.length sub then
        Array.iteri (fun j (i, _) -> resps.(i) <- out.(j)) valid
      else
        (* A backend answering off-count is broken: fail the batch. *)
        Array.iteri
          (fun j (i, _) ->
            resps.(i) <-
              (if j < Array.length out then out.(j)
               else Rpc.R_error (Rpc.Io_error "backend response count mismatch")))
          valid;
      (match resps with
      | [| Rpc.R_error e |] -> Trace.fail tok (Rpc.err_tag e)
      | _ -> ());
      Trace.finish tok ~now:(now s);
      resps
    end

  (* The lease piggybacked on a read reply: how long the client may
     serve this answer from its cache, as an absolute expiry on the
     server's clock. Only granted for plain object reads — never for errors, and never for audit-trail reads
     (whose answers must always come from the drive). Every grant is
     recorded in the server's registry so conflicting mutations from
     other clients wait it out (the lease fence above). *)
  let lease_for s (req : Rpc.req) (resp : Rpc.resp) =
    let term = s.srv.cfg.lease_ns in
    if Int64.compare term 0L <= 0 then 0L
    else
      match (req, resp) with
      | (Rpc.Read { oid; at; _ } | Rpc.Get_attr { oid; at }), (Rpc.R_data _ | Rpc.R_attr _)
        ->
        let n = now s in
        let expiry = Int64.add n term in
        record_lease s.srv ~oid ~holder:s.s_identity ~current:(at = None) ~expiry
          ~now:n;
        expiry
      | _ -> 0L

  (* Execute one unit of queued work and emit its reply; the caller
     must hold the server lock in [qos] mode. *)
  let finish_work s { xid; cred; sync; reqs } =
    s.s_inflight <- s.s_inflight - Array.length reqs;
    let resps = execute_batch_locked s cred sync reqs in
    let leases = Array.mapi (fun i resp -> lease_for s reqs.(i) resp) resps in
    emit s (Wire.Batch_reply { xid; resps; now = now s; leases })

  let enqueue s w =
    let n = Array.length w.reqs in
    if s.s_inflight + n > s.srv.cfg.max_inflight then
      reject s (Printf.sprintf "more than %d requests in flight" s.srv.cfg.max_inflight)
    else
      match s.srv.sched with
      | None ->
        s.s_inflight <- s.s_inflight + n;
        Queue.add w s.pending
      | Some sched ->
        (* Shared weighted-fair queue: the item's cost is its request
           count and its weight is sampled from the server's weight
           source (the drive throttle, under [of_drive]), so a noisy
           client's flood interleaves behind honest clients' work
           instead of ahead of it. *)
        with_lock s.srv (fun () ->
            s.s_inflight <- s.s_inflight + n;
            S4_qos.Wfq.enqueue sched ~client:s.s_identity ~cost:(float_of_int n)
              (fun () -> finish_work s w))

  let on_frame s (frame : Wire.frame) =
    match frame with
    | Wire.Hello { claim = _ } ->
      (* A peer speaking any other version never gets here: its frames
         fail [Wire.decode] and the stream is rejected. *)
      emit s (Wire.Hello_ack { identity = s.s_identity; now = now s })
    | Wire.Batch { xid; cred; sync; reqs } ->
      if Array.length reqs > s.srv.cfg.max_batch then
        reject s
          (Printf.sprintf "batch of %d exceeds limit %d" (Array.length reqs)
             s.srv.cfg.max_batch)
      else enqueue s { xid; cred; sync; reqs }
    | Wire.Stat { xid } ->
      let total, free = with_backend s.srv (fun () -> s.srv.backend.Backend.capacity ()) in
      emit s
        (Wire.Stat_ack { xid; total; free; now = now s; batch = s.srv.cfg.max_batch })
    | Wire.Goodbye -> s.s_closing <- true
    | Wire.Hello_ack _ | Wire.Proto_error _ | Wire.Stat_ack _ | Wire.Batch_reply _ ->
      reject s (Printf.sprintf "unexpected %s frame from client" (Wire.frame_name frame))

  let compact s =
    if s.in_start > 0 then begin
      Bytes.blit s.inbuf s.in_start s.inbuf 0 s.in_len;
      s.in_start <- 0
    end

  let parse s =
    let continue = ref true in
    while !continue do
      match
        Wire.decode ~max_frame:s.srv.cfg.max_frame s.inbuf ~pos:s.in_start ~avail:s.in_len
      with
      | Wire.Frame (f, used) ->
        s.in_start <- s.in_start + used;
        s.in_len <- s.in_len - used;
        Metrics.incr "net/frames_in";
        on_frame s f;
        if s.s_closing then continue := false
      | Wire.Need_more _ -> continue := false
      | Wire.Corrupt msg ->
        reject s msg;
        continue := false
    done;
    if s.in_len = 0 then s.in_start <- 0

  let feed s buf off len =
    if len < 0 || off < 0 || off + len > Bytes.length buf then
      invalid_arg "Session.feed: bad range";
    if (not s.s_closing) && len > 0 then begin
      Metrics.incr ~by:len "net/bytes_in";
      compact s;
      if s.in_len + len > Bytes.length s.inbuf then begin
        let ncap = max (s.in_len + len) (2 * Bytes.length s.inbuf) in
        let nb = Bytes.create ncap in
        Bytes.blit s.inbuf 0 nb 0 s.in_len;
        s.inbuf <- nb
      end;
      Bytes.blit buf off s.inbuf s.in_len len;
      s.in_len <- s.in_len + len;
      parse s
    end

  (* One scheduling step. FIFO mode serves this session's own queue;
     [qos] mode serves whichever session's work the weighted-fair
     queue puts first — any session's [run] drains everyone's
     highest-priority work, which is what makes the arbitration
     global. *)
  let step s =
    match s.srv.sched with
    | None -> (
      match Queue.take_opt s.pending with
      | None -> false
      | Some w ->
        with_backend s.srv (fun () -> finish_work s w);
        true)
    | Some sched ->
      with_lock s.srv (fun () ->
          match S4_qos.Wfq.pop sched with
          | None -> false
          | Some thunk ->
            thunk ();
            true)

  let rec run s = if step s then run s
end

(* ------------------------------------------------------------------ *)
(* TCP daemon                                                          *)

type listener = {
  l_sock : Unix.file_descr;
  l_port : int;
  mutable l_stopping : bool;
  l_threads : (Mutex.t * Thread.t list ref);
  mutable l_accepted : int;
  mutable l_accept_thread : Thread.t option;
}

let ignore_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd b !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Distinct peer IPs get distinct, stable identities. *)
let id_lock = Mutex.create ()
let id_table : (string, int) Hashtbl.t = Hashtbl.create 7
let id_next = ref 1

let identity_of_addr = function
  | Unix.ADDR_INET (ip, _) ->
    let key = Unix.string_of_inet_addr ip in
    Mutex.lock id_lock;
    let id =
      match Hashtbl.find_opt id_table key with
      | Some id -> id
      | None ->
        let id = !id_next in
        incr id_next;
        Hashtbl.add id_table key id;
        id
    in
    Mutex.unlock id_lock;
    id
  | Unix.ADDR_UNIX _ -> 0

let serve_connection srv l fd peer =
  let sess = Session.create ~identity:(identity_of_addr peer) srv in
  let buf = Bytes.create 65536 in
  (* A short receive timeout keeps the loop responsive to shutdown. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25 with Unix.Unix_error _ -> ());
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let alive = ref true in
  (try
     while !alive do
       if l.l_stopping then sess.Session.s_closing <- true;
       if not (Session.closing sess) then begin
         match Unix.read fd buf 0 (Bytes.length buf) with
         | 0 -> sess.Session.s_closing <- true
         | n -> Session.feed sess buf 0 n
         | exception
             Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT | Unix.EINTR), _, _)
           ->
           ()
         | exception Unix.Unix_error (_, _, _) -> sess.Session.s_closing <- true
       end;
       Session.run sess;
       let out = Session.output sess in
       if Bytes.length out > 0 then write_all fd out;
       if Session.finished sess then alive := false
     done
   with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let rec accept_loop srv l =
  if not l.l_stopping then begin
    match Unix.select [ l.l_sock ] [] [] 0.25 with
    | [], _, _ -> accept_loop srv l
    | _ :: _, _, _ ->
      (match Unix.accept l.l_sock with
      | fd, peer ->
        l.l_accepted <- l.l_accepted + 1;
        let th = Thread.create (fun () -> serve_connection srv l fd peer) () in
        let m, lst = l.l_threads in
        Mutex.lock m;
        lst := th :: !lst;
        Mutex.unlock m
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> l.l_stopping <- true);
      accept_loop srv l
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop srv l
    | exception Unix.Unix_error (_, _, _) -> l.l_stopping <- true
  end

let serve_tcp ?(host = "127.0.0.1") ?(port = 0) srv =
  Lazy.force ignore_sigpipe;
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (addr, port));
  Unix.listen sock 64;
  let actual_port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let l =
    {
      l_sock = sock;
      l_port = actual_port;
      l_stopping = false;
      l_threads = (Mutex.create (), ref []);
      l_accepted = 0;
      l_accept_thread = None;
    }
  in
  l.l_accept_thread <- Some (Thread.create (fun () -> accept_loop srv l) ());
  l

let port l = l.l_port
let connections l = l.l_accepted

let shutdown l =
  l.l_stopping <- true;
  (match l.l_accept_thread with Some th -> Thread.join th | None -> ());
  (try Unix.close l.l_sock with Unix.Unix_error _ -> ());
  let m, lst = l.l_threads in
  Mutex.lock m;
  let threads = !lst in
  lst := [];
  Mutex.unlock m;
  List.iter Thread.join threads
