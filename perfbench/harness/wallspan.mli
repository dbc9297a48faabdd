(** Host-time spans recorded at the benchmark's own call boundaries.

    Each span names the layer whose public entry point was called
    (["nfs"], ["net"], ["core"], ["shard"], ["cleaner"], ["tools"]) and
    its start and stop on the monotonic clock. Spans are kept in memory
    until {!clear}; nesting is recovered afterwards from time
    containment ({!Selftime.parents_by_containment}), which also covers
    a callee that ran on another thread (the TCP server) while its
    caller was blocked. Recording is thread-safe. *)

type span = { layer : string; start : int64; stop : int64 }

val now : unit -> int64
(** Monotonic host time, ns. *)

val seconds_since : int64 -> float
(** Host seconds elapsed since a {!now} reading. *)

val time : string -> (unit -> 'a) -> 'a
(** Run the thunk and record a span for it (also when it raises). *)

val count : unit -> int
(** Spans recorded so far. *)

val get : int -> span

val clear : unit -> unit

val timed_backend : string -> S4.Backend.t -> S4.Backend.t
(** The same backend with every [submit] recorded as a span of the
    given layer. *)
