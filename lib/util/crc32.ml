type t = int

(* Slicing-by-8 (Intel, "A Systematic Approach to Building High
   Performance Software-based CRC Generators"): eight 256-entry tables
   flattened into one array, built once at module initialisation.
   Table k maps a byte to its CRC contribution when followed by k zero
   bytes, so one step folds eight input bytes with eight lookups.
   Values are native ints in [0, 2^32). *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
  done;
  t

let[@inline] tab k i = Array.unsafe_get table ((k lsl 8) lor (i land 0xff))

let init = 0xFFFFFFFF

let update acc b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.update";
  let c = ref acc and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = Int32.to_int (Bytes.get_int32_le b !i) lxor !c in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) in
    c :=
      tab 7 lo
      lxor tab 6 (lo lsr 8)
      lxor tab 5 (lo lsr 16)
      lxor tab 4 (lo lsr 24)
      lxor tab 3 hi
      lxor tab 2 (hi lsr 8)
      lxor tab 1 (hi lsr 16)
      lxor tab 0 (hi lsr 24);
    i := !i + 8
  done;
  let stop = pos + len in
  while !i < stop do
    c := tab 0 (!c lxor Char.code (Bytes.unsafe_get b !i)) lxor (!c lsr 8);
    incr i
  done;
  !c

let finish acc = acc lxor 0xFFFFFFFF

(* Extending the register over n zero bytes multiplies it by x^(8n)
   mod P (zlib's crc32_combine): [multmodp] multiplies in reflected bit
   order and [x2n.(k)] = x^(2^k) mod P, which repeats with period 32
   since the order of x divides 2^32 - 1. *)
let multmodp a b =
  let p = ref 0 and b = ref b in
  for i = 31 downto 0 do
    if (a lsr i) land 1 <> 0 then p := !p lxor !b;
    b := if !b land 1 <> 0 then (!b lsr 1) lxor 0xEDB88320 else !b lsr 1
  done;
  !p

let x2n =
  let t = Array.make 32 (1 lsl 30) in
  for k = 1 to 31 do
    t.(k) <- multmodp t.(k - 1) t.(k - 1)
  done;
  t

let zeros acc n =
  if n < 0 then invalid_arg "Crc32.zeros";
  let rec pow p n k =
    if n = 0 then p else pow (if n land 1 = 0 then p else multmodp x2n.(k land 31) p) (n lsr 1) (k + 1)
  in
  multmodp (pow (1 lsl 31) n 3) acc

let sub b ~pos ~len = finish (update init b ~pos ~len)
let bytes b = sub b ~pos:0 ~len:(Bytes.length b)
let string s = bytes (Bytes.unsafe_of_string s)
