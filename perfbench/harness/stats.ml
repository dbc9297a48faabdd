let min_beyond = 10

let rank ~n p =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  (* p *. n first: exact for the integral percentiles we ask for, so
     99 of 1000 lands on index 989 rather than drifting to 990. *)
  let r = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9)) - 1 in
  max 0 (min (n - 1) r)

let beyond ~n p = n - 1 - rank ~n p
let supported ~n p = n > 0 && beyond ~n p >= min_beyond

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let percentile s p = s.(rank ~n:(Array.length s) p)

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n
