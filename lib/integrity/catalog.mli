(** Cross-shard integrity catalog: the meta shard's replicated copy of
    every member drive's sealed chain head, refreshed at each
    array-wide barrier. Entries are a floor — the member's chain must
    contain the catalog head as an ancestor.

    Each entry carries [at], the array time it was last refreshed. A
    floor retained for a member that has left the array ages out once
    it falls behind the detection window: like every other piece of
    history the drive keeps, its evidentiary value ends where the
    window does. *)

type entry = { shard : int; replica : int; head : Chain.head; at : int64 }

val encode : entry list -> Bytes.t

val decode : Bytes.t -> entry list option
(** Accepts only the layout {!encode} writes; any other version byte,
    or a truncated or malformed payload, decodes to [None]. *)

val find : entry list -> shard:int -> replica:int -> Chain.head option
val find_entry : entry list -> shard:int -> replica:int -> entry option
val set : entry list -> shard:int -> replica:int -> at:int64 -> Chain.head -> entry list

val prune : entry list -> now:int64 -> window:int64 -> live:(shard:int -> replica:int -> bool) -> entry list
(** Drop entries for members that are not [live] whose [at] stamp has
    fallen out of the detection window ([at < now - window]). Live
    members' floors are never pruned, however old: they are refreshed
    in place and remain cross-checkable. *)

type status =
  | Consistent
  | Stale_catalog
  | Rolled_back
  | Forked

val check : catalog:Chain.head -> member:Chain.head -> status
