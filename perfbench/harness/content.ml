type t = Bytes.t

let length = 1 lsl 20
let create rng = Bytes.init length (fun _ -> Char.chr (Random.State.int rng 256))
let base rng = Random.State.int rng length

let bytes t ~base ~off ~len =
  let out = Bytes.create len in
  let rec fill dst =
    if dst < len then begin
      let src = (base + off + dst) mod length in
      let n = min (len - dst) (length - src) in
      Bytes.blit t src out dst n;
      fill (dst + n)
    end
  in
  fill 0;
  out

let matches t ~base ~off b = Bytes.equal b (bytes t ~base ~off ~len:(Bytes.length b))
