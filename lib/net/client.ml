module Rpc = S4.Rpc
module Rng = S4_util.Rng
module Metrics = S4_obs.Metrics

type config = {
  req_timeout_s : float;
  max_retries : int;
  backoff_ms : float;
  jitter : float;
  seed : int;
  claim_client : int;
  max_batch : int;  (* largest Batch frame this client will send *)
  cache_budget : int;  (* lease-cache LRU budget in bytes; 0 disables the cache *)
  cache_journal : bool;  (* record the cache event journal for Cache.check *)
}

let default_config =
  {
    req_timeout_s = 5.0;
    max_retries = 3;
    backoff_ms = 5.0;
    jitter = 0.25;
    seed = 42;
    claim_client = 1;
    max_batch = 256;
    cache_budget = 0;
    cache_journal = false;
  }

type t = {
  transport : Transport.t;
  cfg : config;
  rng : Rng.t;
  mutable ep : Transport.endpoint option;
  mutable c_identity : int;
  mutable c_server_now : int64;
  mutable c_batch_limit : int;  (* server's advertised max batch; 0 unknown *)
  mutable next_xid : int64;
  mutable inbuf : Bytes.t;
  mutable in_len : int;
  mutable connected_once : bool;
  mutable n_retries : int;
  mutable n_reconnects : int;
  c_cache : Cache.t option;
}

exception Permanent of string

let connect ?(config = default_config) transport =
  Wire.ensure_metrics ();
  {
    transport;
    cfg = config;
    rng = Rng.create ~seed:config.seed;
    ep = None;
    c_identity = 0;
    c_server_now = 0L;
    c_batch_limit = 0;
    next_xid = 1L;
    inbuf = Bytes.create 4096;
    in_len = 0;
    connected_once = false;
    n_retries = 0;
    n_reconnects = 0;
    c_cache =
      (if config.cache_budget > 0 then
         Some (Cache.create ~journal:config.cache_journal ~budget:config.cache_budget ())
       else None);
  }

let identity t = t.c_identity
let server_now t = t.c_server_now
let cache t = t.c_cache

(* Every reply carries the server clock; the cache judges lease expiry
   against the freshest value seen. *)
let observe_now t now =
  if now > t.c_server_now then t.c_server_now <- now;
  match t.c_cache with Some c -> Cache.observe_now c now | None -> ()

let server_batch_limit t = t.c_batch_limit
let retries t = t.n_retries
let reconnects t = t.n_reconnects

let drop_ep t =
  (match t.ep with Some e -> (try e.Transport.ep_close () with _ -> ()) | None -> ());
  t.ep <- None;
  t.in_len <- 0

let fresh_xid t =
  let x = t.next_xid in
  t.next_xid <- Int64.add x 1L;
  x

let send e frame =
  let b = Wire.encode frame in
  Metrics.incr "net/frames_out";
  Metrics.incr ~by:(Bytes.length b) "net/bytes_out";
  e.Transport.ep_send b

(* Read one frame from the endpoint, buffering partial input. Raises
   Transport.Closed / Transport.Timeout on connection trouble and
   Permanent on an unrecoverable protocol answer. *)
let recv_frame t e : Wire.frame =
  let rec loop () =
    match Wire.decode t.inbuf ~pos:0 ~avail:t.in_len with
    | Wire.Frame (f, used) ->
      let rest = t.in_len - used in
      if rest > 0 then Bytes.blit t.inbuf used t.inbuf 0 rest;
      t.in_len <- rest;
      Metrics.incr "net/frames_in";
      f
    | Wire.Corrupt msg ->
      drop_ep t;
      raise (Permanent ("server sent corrupt frame: " ^ msg))
    | Wire.Need_more _ ->
      if t.in_len = Bytes.length t.inbuf then begin
        let nb = Bytes.create (2 * Bytes.length t.inbuf) in
        Bytes.blit t.inbuf 0 nb 0 t.in_len;
        t.inbuf <- nb
      end;
      let n = e.Transport.ep_recv t.inbuf t.in_len (Bytes.length t.inbuf - t.in_len) in
      if n = 0 then raise Transport.Closed;
      Metrics.incr ~by:n "net/bytes_in";
      t.in_len <- t.in_len + n;
      loop ()
  in
  loop ()

let ensure_ep t =
  match t.ep with
  | Some e -> e
  | None ->
    let e = t.transport.Transport.connect () in
    let ok = ref false in
    Fun.protect
      ~finally:(fun () -> if not !ok then try e.Transport.ep_close () with _ -> ())
      (fun () ->
        e.Transport.ep_set_timeout (Some t.cfg.req_timeout_s);
        t.ep <- Some e;
        t.in_len <- 0;
        send e (Wire.Hello { claim = t.cfg.claim_client });
        let rec await () =
          match recv_frame t e with
          | Wire.Hello_ack { identity; now } ->
            t.c_identity <- identity;
            observe_now t now
          | Wire.Proto_error { message; _ } ->
            raise (Permanent ("handshake refused: " ^ message))
          | _ -> await ()
        in
        await ();
        if t.connected_once then begin
          t.n_reconnects <- t.n_reconnects + 1;
          Metrics.incr "net/reconnect"
        end;
        t.connected_once <- true;
        ok := true);
    if not !ok then t.ep <- None;
    e

let backoff t attempt =
  let base = t.cfg.backoff_ms *. (2.0 ** float_of_int attempt) in
  let jit = 1.0 +. (t.cfg.jitter *. Rng.float t.rng 1.0) in
  Unix.sleepf (base *. jit /. 1000.0)

let transient_failure = function
  | Transport.Closed | Transport.Timeout -> true
  | Unix.Unix_error _ -> true
  | _ -> false

let failure_message = function
  | Transport.Timeout -> "request timed out"
  | Transport.Closed -> "connection lost"
  | Unix.Unix_error (e, _, _) -> Unix.error_message e
  | exn -> Printexc.to_string exn

(* One [Batch] frame on the live endpoint: one group-commit barrier
   server-side, positional responses and leases back. *)
let batch_once t cred sync (reqs : Rpc.req array) : Rpc.resp array * int64 array =
  let e = ensure_ep t in
  let xid = fresh_xid t in
  send e (Wire.Batch { xid; cred; sync; reqs });
  let rec await () =
    match recv_frame t e with
    | Wire.Batch_reply { xid = x; resps; now; leases } when Int64.equal x xid ->
      observe_now t now;
      if Array.length resps = Array.length reqs then (resps, leases)
      else begin
        drop_ep t;
        raise (Permanent "batch response count mismatch")
      end
    | Wire.Batch_reply _ -> await () (* stale answer from a timed-out request *)
    | Wire.Proto_error { message; _ } ->
      drop_ep t;
      raise (Permanent ("server rejected request: " ^ message))
    | Wire.Hello_ack { identity; now } ->
      t.c_identity <- identity;
      observe_now t now;
      await ()
    | Wire.Stat_ack _ -> await ()
    | Wire.Hello _ | Wire.Stat _ | Wire.Goodbye | Wire.Batch _ ->
      drop_ep t;
      raise Transport.Closed
  in
  await ()

let submit_wire t cred ~sync (reqs : Rpc.req array) : Rpc.resp array * int64 array =
  let n = Array.length reqs in
  let limit =
    let l = if t.c_batch_limit > 0 then min t.c_batch_limit t.cfg.max_batch else t.cfg.max_batch in
    max 1 l
  in
  let idempotent = not (Array.exists Rpc.is_mutation reqs) in
  let out = Array.make n (Rpc.R_error (Rpc.Io_error "not executed")) in
  let out_leases = Array.make n 0L in
  let fill_from pos msg =
    for i = pos to n - 1 do
      out.(i) <- Rpc.R_error (Rpc.Io_error msg)
    done
  in
  (* An oversize submission is sliced to the batch limit; the barrier
     rides only on the last slice, so the whole submission still pays
     one group commit. *)
  let rec run pos =
    if pos >= n && not (n = 0 && sync) then ()
    else begin
      let len = min limit (n - pos) in
      let chunk = if n = 0 then [||] else Array.sub reqs pos len in
      let last = pos + len >= n in
      let rec attempt k =
        match batch_once t cred (sync && last) chunk with
        | resps, leases ->
          Array.blit resps 0 out pos len;
          Array.blit leases 0 out_leases pos len;
          if last then () else run (pos + len)
        | exception Permanent msg -> fill_from pos msg
        | exception exn when transient_failure exn ->
          drop_ep t;
          if idempotent && k < t.cfg.max_retries then begin
            t.n_retries <- t.n_retries + 1;
            Metrics.incr "net/retry";
            backoff t k;
            attempt (k + 1)
          end
          else fill_from pos (failure_message exn)
      in
      attempt 0
    end
  in
  run 0;
  (out, out_leases)

let submit t cred ?(sync = false) (reqs : Rpc.req array) : Rpc.resp array =
  match t.c_cache with
  | None -> fst (submit_wire t cred ~sync reqs)
  | Some cache ->
    let n = Array.length reqs in
    let out : Rpc.resp option array = Array.make n None in
    (* Serve what the cache can locally; those requests never cross the
       wire at all. A cached read is only consulted when no {e earlier}
       request in this submission mutates its oid — the server would
       have executed them in order. *)
    let dirty = ref false in
    Array.iteri
      (fun i req ->
        if Rpc.is_mutation req then dirty := true
        else if not !dirty then
          match Cache.find cache cred req with
          | Some resp ->
            Metrics.incr "net/cache_served";
            out.(i) <- Some resp
          | None -> ())
      reqs;
    let miss_idx = ref [] in
    Array.iteri (fun i _ -> if out.(i) = None then miss_idx := i :: !miss_idx) reqs;
    let miss_idx = Array.of_list (List.rev !miss_idx) in
    let sub = Array.map (fun i -> reqs.(i)) miss_idx in
    (* All hits: an unsynced submission is fully answered locally; a
       synced one still owes the server its group-commit barrier. *)
    if Array.length sub > 0 || sync then begin
      let resps, leases = submit_wire t cred ~sync sub in
      Array.iteri
        (fun j i ->
          let req = reqs.(i) and resp = resps.(j) in
          out.(i) <- Some resp;
          if Rpc.is_mutation req then Cache.invalidate_req cache req
          else Cache.store cache cred req resp ~lease:leases.(j))
        miss_idx
    end;
    Array.map (function Some r -> r | None -> Rpc.R_error (Rpc.Io_error "not executed")) out

let handle t cred ?(sync = false) req = (submit t cred ~sync [| req |]).(0)

let capacity t =
  let once () =
    let e = ensure_ep t in
    let xid = fresh_xid t in
    send e (Wire.Stat { xid });
    let rec await () =
      match recv_frame t e with
      | Wire.Stat_ack { xid = x; total; free; now; batch } when Int64.equal x xid ->
        observe_now t now;
        if batch > 0 then t.c_batch_limit <- batch;
        (total, free)
      | Wire.Proto_error { message; _ } ->
        drop_ep t;
        raise (Permanent message)
      | _ -> await ()
    in
    await ()
  in
  let rec go attempt =
    match once () with
    | (r : int * int) -> r
    | exception Permanent _ -> (0, 0)
    | exception exn when transient_failure exn ->
      drop_ep t;
      if attempt < t.cfg.max_retries then begin
        t.n_retries <- t.n_retries + 1;
        Metrics.incr "net/retry";
        backoff t attempt;
        go (attempt + 1)
      end
      else (0, 0)
  in
  go 0

let close t =
  (match t.ep with
  | Some e -> ( try send e Wire.Goodbye with _ -> ())
  | None -> ());
  drop_ep t

let backend ~clock ~keep_data t =
  S4.Backend.make ~clock ~keep_data
    ~capacity:(fun () -> capacity t)
    ~close:(fun () -> close t)
    (submit t)
