type span = { layer : string; start : int64; stop : int64 }

let now () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9
let lock = Mutex.create ()
let dummy = { layer = ""; start = 0L; stop = 0L }
let buf = ref (Array.make 4096 dummy)
let len = ref 0

let record layer start stop =
  Mutex.lock lock;
  if !len = Array.length !buf then begin
    let bigger = Array.make (2 * !len) dummy in
    Array.blit !buf 0 bigger 0 !len;
    buf := bigger
  end;
  !buf.(!len) <- { layer; start; stop };
  incr len;
  Mutex.unlock lock

let time layer f =
  let t0 = now () in
  match f () with
  | v ->
    record layer t0 (now ());
    v
  | exception e ->
    record layer t0 (now ());
    raise e

let count () =
  Mutex.lock lock;
  let n = !len in
  Mutex.unlock lock;
  n

let get i =
  Mutex.lock lock;
  let s = !buf.(i) in
  Mutex.unlock lock;
  s

let clear () =
  Mutex.lock lock;
  len := 0;
  buf := Array.make 4096 dummy;
  Mutex.unlock lock

let timed_backend layer (b : S4.Backend.t) =
  {
    b with
    S4.Backend.submit =
      (fun cred ?sync reqs -> time layer (fun () -> b.S4.Backend.submit cred ?sync reqs));
  }
