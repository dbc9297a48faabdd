type concurrency = Serial | Domain_safe

type t = {
  clock : S4_util.Simclock.t;
  keep_data : bool;
  capacity : unit -> int * int;
  concurrency : concurrency;
  submit : Rpc.credential -> ?sync:bool -> Rpc.req array -> Rpc.resp array;
  close : unit -> unit;
}

let handle t cred ?(sync = false) req = (t.submit cred ~sync [| req |]).(0)

let make ~clock ~keep_data ~capacity ?(concurrency = Serial)
    ?(close = fun () -> ()) submit =
  { clock; keep_data; capacity; concurrency; submit; close }
