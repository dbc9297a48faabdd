(** Exclusive ("self") time of nested spans.

    A span's self time is its duration minus the part of its interval
    covered by the union of its children, each child clipped to the
    parent. Overlapping children (parallel work) are counted once
    against their parent; where no siblings overlap, the self times of
    a tree sum to its root's duration. *)

type span = { parent : int; start : int64; stop : int64 }
(** [parent] indexes the same array; -1 for a root. *)

val self_times : span array -> int64 array

val parents_by_containment : (int64 * int64) array -> int array
(** Parent of each interval: the innermost other interval that
    contains it (earlier index wins among equal intervals), or -1.
    For spans timed at call boundaries, where nesting is implied by
    time rather than recorded. *)
