(** Order statistics over raw samples.

    Percentiles are nearest-rank over the sorted samples — never
    histogram bucket bounds — and a percentile is only trusted when at
    least {!min_beyond} samples lie beyond it. *)

val min_beyond : int
(** 10: the fewest samples that must sit above a reported percentile. *)

val rank : n:int -> float -> int
(** [rank ~n p] is the 0-based index of the nearest-rank [p]-th
    percentile of [n] sorted samples ([p] in 0..100). *)

val beyond : n:int -> float -> int
(** Samples strictly after {!rank} in sorted order. *)

val supported : n:int -> float -> bool
(** [beyond ~n p >= min_beyond]. *)

val sorted : float array -> float array
(** A sorted copy. *)

val percentile : float array -> float -> float
(** [percentile sorted p] on an already sorted, non-empty array. *)

val median : float array -> float
(** Median of unsorted samples (mean of the middle two for even
    counts); [nan] when empty. *)

val mean : float array -> float
(** [nan] when empty. *)
