(* Tests for the tamper-evident audit subsystem: chain/seal codecs,
   the pure verification state machine over synthetic chains, the
   cross-shard catalog, and the crashtest tamper-injection scenarios
   (a real drive, a real persisted log, an attacker with the platter). *)

module Rng = S4_util.Rng
module Bcodec = S4_util.Bcodec
module Chain = S4_integrity.Chain
module Catalog = S4_integrity.Catalog
module Crashtest = S4_tools.Crashtest

let check = Alcotest.check
let qtest = Qseed.qtest

(* --- generators ----------------------------------------------------- *)

let gen_hash = QCheck.Gen.(string_size ~gen:char (return Chain.hash_len))

let gen_head =
  QCheck.Gen.(
    map3
      (fun epoch records hash -> { Chain.epoch; records; hash })
      (0 -- 10_000) (0 -- 1_000_000) gen_hash)

let arb_head = QCheck.make ~print:(Format.asprintf "%a" Chain.pp_head) gen_head

(* A well-formed synthetic chain: [nblocks] blocks of [1..per_block]
   random records each, priors computed honestly, a seal after every
   [seal_every]th block. Returns the items plus the sealed heads in
   epoch order. *)
let build_chain ~seed ~nblocks ~per_block ~seal_every =
  let rng = Rng.create ~seed in
  let canon () =
    let n = 4 + Rng.int rng 28 in
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.set b i (Char.chr (Rng.int rng 256))
    done;
    b
  in
  let items = ref [] in
  let seals = ref [] in
  let idx = ref 0 in
  let hash = ref Chain.genesis_hash in
  let epoch = ref 0 in
  for k = 0 to nblocks - 1 do
    let canons = List.init (1 + Rng.int rng per_block) (fun _ -> canon ()) in
    items := Chain.Block { b_start = !idx; b_prior = !hash; b_canons = canons } :: !items;
    idx := !idx + List.length canons;
    hash := Chain.extend_all !hash canons;
    if (k + 1) mod seal_every = 0 then begin
      incr epoch;
      let h = { Chain.epoch = !epoch; records = !idx; hash = !hash } in
      seals := h :: !seals;
      items := Chain.Seal { s_head = h; s_at = Int64.of_int (1000 * !epoch) } :: !items
    end
  done;
  (List.rev !items, List.rev !seals, !idx)

let flip_bit b i bit = Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)))

(* --- codecs ---------------------------------------------------------- *)

let prop_head_roundtrip =
  QCheck.Test.make ~name:"head codec round-trips" ~count:300 arb_head (fun h ->
      let w = Bcodec.writer () in
      Chain.write_head w h;
      Chain.equal_head h (Chain.read_head (Bcodec.reader (Bcodec.contents w))))

let gen_result =
  QCheck.Gen.(
    map
      (fun ((records, sealed, epochs), (head, tail), (pruned, first_bad, errors)) ->
        {
          Chain.v_records = records;
          v_sealed = sealed;
          v_epochs = epochs;
          v_head = head;
          v_tail = tail;
          v_pruned = pruned;
          v_first_bad = first_bad;
          v_errors = errors;
        })
      (triple
         (triple (0 -- 100_000) (0 -- 100_000) (0 -- 1000))
         (pair (opt gen_head) (0 -- 1000))
         (triple (0 -- 1000) (-1 -- 50) (list_size (0 -- 8) (string_size (0 -- 60))))))

let prop_result_roundtrip =
  QCheck.Test.make ~name:"verify_result codec round-trips" ~count:300 (QCheck.make gen_result)
    (fun r ->
      let w = Bcodec.writer () in
      Chain.write_result w r;
      let r' = Chain.read_result (Bcodec.reader (Bcodec.contents w)) in
      r = r')

let test_result_codec_bounds () =
  (* A forged error count past the payload must be rejected, not
     allocate or walk off the buffer. *)
  let r =
    {
      Chain.v_records = 1;
      v_sealed = 1;
      v_epochs = 1;
      v_head = None;
      v_tail = 0;
      v_pruned = 0;
      v_first_bad = -1;
      v_errors = [ "x" ];
    }
  in
  let w = Bcodec.writer () in
  Chain.write_result w r;
  match Chain.read_result ~max_errors:0 (Bcodec.reader (Bcodec.contents w)) with
  | _ -> Alcotest.fail "oversized error list accepted"
  | exception Bcodec.Decode_error _ -> ()

(* --- verification over synthetic chains ------------------------------ *)

let prop_clean_chain_verifies =
  QCheck.Test.make ~name:"honest chain verifies clean (and from any sealed head)" ~count:60
    QCheck.(triple small_nat small_nat small_nat)
    (fun (s, nb, se) ->
      let seed = 9000 + s and nblocks = 2 + (nb mod 8) in
      let seal_every = 1 + (se mod 3) in
      let items, seals, total = build_chain ~seed ~nblocks ~per_block:5 ~seal_every in
      let r = Chain.verify items in
      Chain.clean r && r.Chain.v_records = total
      && r.Chain.v_epochs = List.length seals
      && List.for_all (fun h -> Chain.clean (Chain.verify ~from:h items)) seals)

let prop_flip_pinpoints_record =
  (* One bit anywhere in a sealed record: verification must fail and
     v_first_bad must land inside the damaged block's window — after
     the seal preceding the flipped record, no later than the end of
     the block holding it. (The error surfaces either at the covering
     seal's hash check or at the next block's broken prior linkage,
     whichever localizes it.) *)
  QCheck.Test.make ~name:"bit flip in sealed region pinpoints the record" ~count:120
    QCheck.(triple small_nat small_nat small_nat)
    (fun (s, pick, bit) ->
      let seed = 4000 + s in
      let items, seals, _total = build_chain ~seed ~nblocks:6 ~per_block:4 ~seal_every:2 in
      let sealed_limit = (List.nth seals (List.length seals - 1)).Chain.records in
      (* Sealed records as (victim canon, global index, end of its block). *)
      let sealed_canons =
        List.concat_map
          (function
            | Chain.Block b ->
              let bend = b.Chain.b_start + List.length b.Chain.b_canons in
              List.filteri (fun i _ -> b.Chain.b_start + i < sealed_limit) b.Chain.b_canons
              |> List.mapi (fun i c -> (c, b.Chain.b_start + i, bend))
            | _ -> [])
          items
      in
      let victim, victim_idx, block_end =
        List.nth sealed_canons (pick mod List.length sealed_canons)
      in
      let prev_seal =
        List.fold_left
          (fun acc h -> if h.Chain.records <= victim_idx then h.Chain.records else acc)
          0 seals
      in
      flip_bit victim (Rng.int (Rng.create ~seed:(seed + pick)) (Bytes.length victim)) (bit mod 8);
      let r = Chain.verify items in
      (not (Chain.clean r))
      && r.Chain.v_first_bad >= prev_seal
      && r.Chain.v_first_bad <= block_end)

let test_truncation_after_seal_is_tail_loss () =
  (* Drop every block past the newest seal: still clean, tail zero. *)
  let items, seals, _ = build_chain ~seed:77 ~nblocks:7 ~per_block:4 ~seal_every:2 in
  let last = List.nth seals (List.length seals - 1) in
  let truncated =
    List.filter
      (function
        | Chain.Block b -> b.Chain.b_start < last.Chain.records
        | _ -> true)
      items
  in
  let r = Chain.verify truncated in
  check Alcotest.bool "clean" true (Chain.clean r);
  check Alcotest.int "no tail left" 0 r.Chain.v_tail;
  check Alcotest.int "all sealed" last.Chain.records r.Chain.v_sealed;
  let r' = Chain.verify ~from:last truncated in
  check Alcotest.bool "anchor still on chain" true (Chain.clean r')

let test_torn_block_lenient_vs_strict () =
  let items, _, _ = build_chain ~seed:78 ~nblocks:4 ~per_block:4 ~seal_every:4 in
  let with_bad = items @ [ Chain.Bad "audit block at 42 failed to decode" ] in
  let strict = Chain.verify with_bad in
  check Alcotest.bool "strict flags the torn block" false (Chain.clean strict);
  let lenient = Chain.verify ~lenient_tail:true with_bad in
  check Alcotest.bool "lenient reads it as crash tail loss" true (Chain.clean lenient)

let test_sealed_truncation_is_error_even_lenient () =
  (* A seal claiming more records than survive is tampering even under
     a lenient tail: within a barrier the seal is written after its
     records, so a torn flush loses the seal first. *)
  let items, seals, _ = build_chain ~seed:79 ~nblocks:6 ~per_block:4 ~seal_every:3 in
  let last = List.nth seals (List.length seals - 1) in
  let dropped =
    List.filter
      (function
        | Chain.Block b -> b.Chain.b_start + List.length b.Chain.b_canons < last.Chain.records
        | _ -> true)
      items
  in
  let r = Chain.verify ~lenient_tail:true dropped in
  check Alcotest.bool "sealed truncation detected" false (Chain.clean r)

let test_rollback_detected () =
  let items, seals, _ = build_chain ~seed:80 ~nblocks:4 ~per_block:4 ~seal_every:2 in
  let future =
    { Chain.epoch = 99; records = 10_000; hash = Chain.extend Chain.genesis_hash (Bytes.create 1) }
  in
  let r = Chain.verify ~from:future items in
  check Alcotest.bool "rollback detected" false (Chain.clean r);
  ignore seals

(* --- catalog --------------------------------------------------------- *)

let gen_entry =
  QCheck.Gen.(
    map2
      (fun (shard, replica, head) at -> { Catalog.shard; replica; head; at })
      (map3 (fun s r h -> (s, r, h)) (0 -- 64) (0 -- 3) gen_head)
      (map Int64.of_int (0 -- 1_000_000)))

let prop_catalog_roundtrip =
  QCheck.Test.make ~name:"catalog codec round-trips" ~count:200
    (QCheck.make QCheck.Gen.(list_size (0 -- 12) gen_entry))
    (fun entries -> Catalog.decode (Catalog.encode entries) = Some entries)

let test_catalog_reject_garbage () =
  check Alcotest.bool "empty" true (Catalog.decode Bytes.empty = None);
  check Alcotest.bool "noise" true (Catalog.decode (Bytes.make 64 '\xAB') = None);
  let good = Catalog.encode [ { Catalog.shard = 1; replica = 0; head = Chain.genesis; at = 7L } ] in
  let torn = Bytes.sub good 0 (Bytes.length good - 3) in
  check Alcotest.bool "torn" true (Catalog.decode torn = None)

let test_catalog_check_statuses () =
  let h epoch records tag =
    { Chain.epoch; records; hash = S4_util.Sha256.digest_string tag }
  in
  let cat = h 5 100 "a" in
  check Alcotest.bool "consistent" true (Catalog.check ~catalog:cat ~member:cat = Catalog.Consistent);
  check Alcotest.bool "stale catalog" true
    (Catalog.check ~catalog:cat ~member:(h 7 140 "b") = Catalog.Stale_catalog);
  check Alcotest.bool "rolled back" true
    (Catalog.check ~catalog:cat ~member:(h 3 60 "c") = Catalog.Rolled_back);
  check Alcotest.bool "forked" true
    (Catalog.check ~catalog:cat ~member:(h 5 100 "d") = Catalog.Forked)

let test_catalog_find_set () =
  let e = Catalog.set [] ~shard:2 ~replica:1 ~at:10L Chain.genesis in
  let h2 = { Chain.epoch = 3; records = 9; hash = Chain.genesis_hash } in
  let e = Catalog.set e ~shard:2 ~replica:1 ~at:20L h2 in
  check Alcotest.int "replace not append" 1 (List.length e);
  check Alcotest.bool "find updated" true (Catalog.find e ~shard:2 ~replica:1 = Some h2);
  check Alcotest.bool "stamp updated" true
    ((Catalog.find_entry e ~shard:2 ~replica:1 |> Option.get).Catalog.at = 20L);
  check Alcotest.bool "miss" true (Catalog.find e ~shard:0 ~replica:0 = None)

let test_catalog_v1_refused () =
  (* A pre-[at] catalog (codec v1) is refused: decode reads only the
     layout [encode] writes. *)
  let w = S4_util.Bcodec.writer () in
  S4_util.Bcodec.w_u16 w 0x5343;
  S4_util.Bcodec.w_u8 w 1;
  S4_util.Bcodec.w_int w 1;
  S4_util.Bcodec.w_int w 3;
  S4_util.Bcodec.w_int w 0;
  Chain.write_head w Chain.genesis;
  check Alcotest.bool "v1 catalog refused" true
    (Catalog.decode (S4_util.Bcodec.contents w) = None)

let test_catalog_prune_ages_floors () =
  (* Floors for departed members age out of the detection window;
     live members' floors survive any age. *)
  let h tag = { Chain.epoch = 1; records = 4; hash = S4_util.Sha256.digest_string tag } in
  let e =
    Catalog.set
      (Catalog.set (Catalog.set [] ~shard:0 ~replica:0 ~at:100L (h "live-old")) ~shard:1 ~replica:0
         ~at:100L (h "gone-old"))
      ~shard:2 ~replica:0 ~at:900L (h "gone-new")
  in
  let live ~shard ~replica = shard = 0 && replica = 0 in
  let pruned = Catalog.prune e ~now:1000L ~window:500L ~live in
  check Alcotest.bool "old live floor kept" true
    (Catalog.find pruned ~shard:0 ~replica:0 <> None);
  check Alcotest.bool "old departed floor pruned" true
    (Catalog.find pruned ~shard:1 ~replica:0 = None);
  check Alcotest.bool "in-window departed floor kept" true
    (Catalog.find pruned ~shard:2 ~replica:0 <> None)

(* --- tamper injection on a real drive -------------------------------- *)

let tamper_case t () =
  let detected, errors = Crashtest.tamper_run ~seed:31 t in
  if not detected then
    Alcotest.failf "%s not detected (errors: %s)" (Crashtest.tamper_name t)
      (String.concat "; " errors)

let test_tamper_control () =
  let detected, errors = Crashtest.tamper_clean ~seed:31 in
  if detected then Alcotest.failf "clean run flagged: %s" (String.concat "; " errors)

let () =
  Alcotest.run "s4_integrity"
    [
      ( "codec",
        [
          qtest prop_head_roundtrip;
          qtest prop_result_roundtrip;
          Alcotest.test_case "error-count bound enforced" `Quick test_result_codec_bounds;
        ] );
      ( "verify",
        [
          qtest prop_clean_chain_verifies;
          qtest prop_flip_pinpoints_record;
          Alcotest.test_case "truncation after last seal = tail loss" `Quick
            test_truncation_after_seal_is_tail_loss;
          Alcotest.test_case "torn block: strict fails, lenient passes" `Quick
            test_torn_block_lenient_vs_strict;
          Alcotest.test_case "sealed truncation fails even lenient" `Quick
            test_sealed_truncation_is_error_even_lenient;
          Alcotest.test_case "anchor beyond log = rollback" `Quick test_rollback_detected;
        ] );
      ( "catalog",
        [
          qtest prop_catalog_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_catalog_reject_garbage;
          Alcotest.test_case "check statuses" `Quick test_catalog_check_statuses;
          Alcotest.test_case "find/set" `Quick test_catalog_find_set;
          Alcotest.test_case "v1 layout refused" `Quick test_catalog_v1_refused;
          Alcotest.test_case "pruning ages departed floors" `Quick test_catalog_prune_ages_floors;
        ] );
      ( "tamper",
        [
          Alcotest.test_case "rewrite detected" `Quick (tamper_case Crashtest.Rewrite);
          Alcotest.test_case "drop detected" `Quick (tamper_case Crashtest.Drop);
          Alcotest.test_case "reorder detected" `Quick (tamper_case Crashtest.Reorder);
          Alcotest.test_case "fork detected" `Quick (tamper_case Crashtest.Fork);
          Alcotest.test_case "clean control" `Quick test_tamper_control;
        ] );
    ]
