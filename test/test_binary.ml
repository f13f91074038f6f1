(* Property and unit tests for the binary wire codec.

   The generator is split per constructor so every Messages.t variant
   gets its own named roundtrip property (the proto-schema lint rule
   checks that each constructor is mentioned here or in test_proto.ml),
   plus whole-space properties over the mixture. *)

module Prng = Manet_crypto.Prng
module Address = Manet_ipv6.Address
module Messages = Manet_proto.Messages
module Binary = Manet_proto.Binary

let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- per-variant random generators ------------------------------------- *)

let addr g = Address.of_bytes (Prng.bytes g 16)
let route g = List.init (Prng.int g 5) (fun _ -> addr g)
let str g = Prng.bytes g (Prng.int g 40)

let srr g =
  List.init (Prng.int g 4) (fun _ ->
      { Messages.ip = addr g; sig_ = str g; pk = str g; rn = Prng.bits64 g })

let opt g f = if Test_crypto.coin g then Some (f g) else None
let i32 g = Prng.int g 1000000
let fl g = Prng.float g 1000.0

(* AODV hop counts and bounds travel in one byte. *)
let u8 g = Prng.int g 256

(* One named generator per constructor; the list is the authoritative
   per-variant coverage table. *)
let variant_gens : (string * (Prng.t -> Messages.t)) list =
  [
    ( "Areq",
      fun g ->
        Messages.Areq
          { sip = addr g; seq = i32 g; dn = opt g str; ch = Prng.bits64 g;
            rr = route g } );
    ( "Arep",
      fun g ->
        Messages.Arep
          { sip = addr g; rr = route g; remaining = route g; sig_ = str g;
            pk = str g; rn = Prng.bits64 g } );
    ( "Drep",
      fun g ->
        Messages.Drep
          { sip = addr g; dn = str g; rr = route g; remaining = route g;
            sig_ = str g } );
    ( "Rreq",
      fun g ->
        Messages.Rreq
          { sip = addr g; dip = addr g; seq = i32 g; srr = srr g; sig_ = str g;
            spk = str g; srn = Prng.bits64 g } );
    ( "Rrep",
      fun g ->
        Messages.Rrep
          { sip = addr g; dip = addr g; rr = route g; remaining = route g;
            sig_ = str g; dpk = str g; drn = Prng.bits64 g } );
    ( "Crep",
      fun g ->
        Messages.Crep
          { requester = addr g; cacher = addr g; dip = addr g;
            requester_seq = i32 g; cacher_seq = i32 g; rr_to_cacher = route g;
            rr_to_dest = route g; remaining = route g; sig_cacher = str g;
            cacher_pk = str g; cacher_rn = Prng.bits64 g; sig_dest = str g;
            dest_pk = str g; dest_rn = Prng.bits64 g } );
    ( "Rerr",
      fun g ->
        Messages.Rerr
          { reporter = addr g; broken_next = addr g; dst = addr g;
            remaining = route g; sig_ = str g; pk = str g; rn = Prng.bits64 g }
    );
    ( "Data",
      fun g ->
        Messages.Data
          { src = addr g; dst = addr g; seq = i32 g; route = route g;
            remaining = route g; payload_size = i32 g; sent_at = fl g } );
    ( "Ack",
      fun g ->
        Messages.Ack
          { src = addr g; dst = addr g; data_seq = i32 g; route = route g;
            remaining = route g; sent_at = fl g } );
    ( "Probe",
      fun g ->
        Messages.Probe
          { origin = addr g; target = addr g; seq = i32 g; route = route g;
            remaining = route g } );
    ( "Probe_reply",
      fun g ->
        Messages.Probe_reply
          { responder = addr g; origin = addr g; seq = i32 g;
            remaining = route g; sig_ = str g; pk = str g; rn = Prng.bits64 g }
    );
    ( "Name_query",
      fun g ->
        Messages.Name_query
          { requester = addr g; name = str g; ch = Prng.bits64 g;
            route = route g; remaining = route g } );
    ( "Name_reply",
      fun g ->
        Messages.Name_reply
          { requester = addr g; name = str g; result = opt g addr;
            ch = Prng.bits64 g; remaining = route g; sig_ = str g } );
    ( "Ip_change_request",
      fun g ->
        Messages.Ip_change_request
          { old_ip = addr g; new_ip = addr g; route = route g;
            remaining = route g } );
    ( "Ip_change_challenge",
      fun g ->
        Messages.Ip_change_challenge
          { old_ip = addr g; new_ip = addr g; ch = Prng.bits64 g;
            remaining = route g } );
    ( "Ip_change_proof",
      fun g ->
        Messages.Ip_change_proof
          { old_ip = addr g; new_ip = addr g; old_rn = Prng.bits64 g;
            new_rn = Prng.bits64 g; pk = str g; sig_ = str g; route = route g;
            remaining = route g } );
    ( "Ip_change_ack",
      fun g ->
        Messages.Ip_change_ack
          { old_ip = addr g; new_ip = addr g; accepted = Test_crypto.coin g;
            remaining = route g } );
    ( "Aodv_rreq",
      fun g ->
        Messages.Aodv
          (Aodv_rreq
             { origin = addr g; origin_seq = i32 g; bcast_id = i32 g; dst = addr g;
               dst_seq_known = i32 g; hop_count = u8 g; sig_ = str g; spk = str g;
               srn = Prng.bits64 g; hash = str g; top_hash = str g; max_hops = u8 g })
    );
    ( "Aodv_rrep",
      fun g ->
        Messages.Aodv
          (Aodv_rrep
             { requester = addr g; dst = addr g; dst_seq = i32 g; hop_count = u8 g;
               sig_ = str g; dpk = str g; drn = Prng.bits64 g; hash = str g;
               top_hash = str g; max_hops = u8 g }) );
    ( "Aodv_rerr",
      fun g ->
        Messages.Aodv
          (Aodv_rerr { unreachable = List.map (fun a -> (a, i32 g)) (route g) }) );
    ( "Aodv_data",
      fun g ->
        Messages.Aodv
          (Aodv_data
             { src = addr g; dst = addr g; seq = i32 g; payload_size = i32 g;
               sent_at = fl g }) );
    ( "Aodv_ack",
      fun g ->
        Messages.Aodv
          (Aodv_ack { src = addr g; dst = addr g; data_seq = i32 g; sent_at = fl g })
    );
  ]

let gen_of mk =
  QCheck.Gen.(
    let* seed = int in
    return (mk (Prng.create ~seed)))

let arb_of mk =
  QCheck.make ~print:Test_proto.msg_text (gen_of mk)

(* Mixture over all variants, for the whole-space properties below. *)
let gen_message =
  QCheck.Gen.(
    let* seed = int in
    let g = Prng.create ~seed in
    let _, mk = List.nth variant_gens (Prng.int g (List.length variant_gens)) in
    return (mk g))

let arb_message =
  QCheck.make ~print:Test_proto.msg_text gen_message

(* --- per-variant roundtrips -------------------------------------------- *)

let roundtrips m =
  match Binary.Oracle.decode (Binary.Oracle.encode m) with
  | Ok m' -> Binary.Oracle.equal_message m m'
  | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e

let per_variant_roundtrips =
  List.map
    (fun (name, mk) ->
      qtest ~count:200
        (Printf.sprintf "binary: %s roundtrips" name)
        (arb_of mk) roundtrips)
    variant_gens

let test_wire_tags_distinct () =
  (* Every constructor must claim its own wire tag: generate one value
     per variant and check the leading tag bytes are pairwise distinct. *)
  let g = Prng.create ~seed:1312 in
  let tags =
    List.map (fun (name, mk) -> (name, Char.code (Binary.Oracle.encode (mk g)).[0]))
      variant_gens
  in
  let distinct =
    List.sort_uniq Int.compare (List.map snd tags) |> List.length
  in
  Alcotest.(check int) "distinct wire tags" (List.length variant_gens) distinct;
  List.iter
    (fun (name, tag) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s tag %d in range" name tag)
        true (tag >= 1 && tag <= 255))
    tags

(* --- whole-space properties -------------------------------------------- *)

let prop_roundtrip =
  qtest "binary: decode (encode m) = m" arb_message roundtrips

let prop_encoded_size =
  qtest "binary: encoded_size m = length (encode m)" arb_message (fun m ->
      Binary.encoded_size m = String.length (Binary.Oracle.encode m))

let test_encoded_size_overflow () =
  (* A field past its u16 length prefix makes both functions raise the
     same exception: a string, a route and a secure route record. *)
  let a = Address.of_string_exn "fec0::1" in
  let long_string =
    Messages.Drep { sip = a; dn = String.make 0x10000 'd'; rr = []; remaining = []; sig_ = "" }
  in
  let long_route =
    Messages.Probe
      { origin = a; target = a; seq = 1; route = List.init 0x10000 (fun _ -> a); remaining = [] }
  in
  let long_srr =
    Messages.Rreq
      { sip = a; dip = a; seq = 1;
        srr = List.init 0x10000 (fun _ -> { Messages.ip = a; sig_ = ""; pk = ""; rn = 0L });
        sig_ = ""; spk = ""; srn = 0L }
  in
  let overflow = Invalid_argument "Binary: u16 out of range" in
  List.iter
    (fun (name, m) ->
      Alcotest.check_raises (name ^ ": encode") overflow (fun () ->
          ignore (Binary.Oracle.encode m));
      Alcotest.check_raises (name ^ ": encoded_size") overflow (fun () ->
          ignore (Binary.encoded_size m)))
    [ ("string", long_string); ("route", long_route); ("srr", long_srr) ];
  (* At the limit itself both still succeed and agree. *)
  let at_limit =
    Messages.Drep { sip = a; dn = String.make 0xFFFF 'd'; rr = []; remaining = []; sig_ = "" }
  in
  Alcotest.(check int) "0xFFFF-byte field fits"
    (String.length (Binary.Oracle.encode at_limit))
    (Binary.encoded_size at_limit)

let test_fixed_width_overflow () =
  (* A u8 or u32 field out of its range makes encode raise, as a u16
     prefix does, rather than wrap to a message that decodes unequal.
     [encoded_size] reads no fixed-width value, so it does not check. *)
  let a = Address.of_string_exn "fec0::1" in
  let data seq =
    Messages.Data
      { src = a; dst = a; seq; route = []; remaining = []; payload_size = 0; sent_at = 0.0 }
  in
  let rreq =
    Messages.Aodv
      (Aodv_rreq
         { origin = a; origin_seq = 1; bcast_id = 1; dst = a; dst_seq_known = 0;
           hop_count = 256; sig_ = ""; spk = ""; srn = 0L; hash = ""; top_hash = "";
           max_hops = 16 })
  in
  List.iter
    (fun (name, m, what) ->
      Alcotest.check_raises (name ^ ": encode")
        (Invalid_argument ("Binary: " ^ what ^ " out of range"))
        (fun () -> ignore (Binary.Oracle.encode m)))
    [ ("seq 2^32", data (1 lsl 32), "u32"); ("seq -1", data (-1), "u32");
      ("hop count 256", rreq, "u8") ];
  (* The largest values still roundtrip. *)
  let top = data 0xFFFF_FFFF in
  Alcotest.(check bool) "u32 max roundtrips" true
    (match Binary.Oracle.decode (Binary.Oracle.encode top) with
    | Ok m -> Binary.Oracle.equal_message top m
    | Error _ -> false)

let test_long_route_roundtrips () =
  (* Encode, size and decode share one list bound (the u16 count): a
     4,097-hop route, past the decoder's old 4,096 cap, roundtrips. *)
  let a = Address.of_string_exn "fec0::1" in
  let m =
    Messages.Probe
      { origin = a; target = a; seq = 1; route = List.init 4097 (fun _ -> a); remaining = [] }
  in
  let enc = Binary.Oracle.encode m in
  Alcotest.(check int) "encoded_size" (String.length enc) (Binary.encoded_size m);
  match Binary.Oracle.decode enc with
  | Ok m' -> Alcotest.(check bool) "equal" true (Binary.Oracle.equal_message m m')
  | Error e -> Alcotest.fail e

let prop_truncation_rejected =
  qtest ~count:200 "binary: every strict prefix is rejected"
    QCheck.(pair arb_message (float_bound_exclusive 1.0))
    (fun (m, frac) ->
      let enc = Binary.Oracle.encode m in
      let n = int_of_float (frac *. float_of_int (String.length enc)) in
      QCheck.assume (n < String.length enc);
      match Binary.Oracle.decode (String.sub enc 0 n) with
      | Error _ -> true
      | Ok m' ->
          (* A prefix that still parses must not silently equal the
             original (it can only happen if we truncated zero bytes). *)
          not (Binary.Oracle.equal_message m m'))

let prop_trailing_garbage_rejected =
  qtest ~count:200 "binary: trailing bytes are rejected" arb_message (fun m ->
      match Binary.Oracle.decode (Binary.Oracle.encode m ^ "\x00") with
      | Error _ -> true
      | Ok _ -> false)

let prop_random_bytes_never_crash =
  (* The decoder must be total: arbitrary byte strings either decode to
     some message or return Error, never raise. *)
  qtest ~count:2000 "binary: decoding random bytes never raises"
    QCheck.(string_of_size QCheck.Gen.(int_bound 200))
    (fun s ->
      match Binary.Oracle.decode s with Ok _ | Error _ -> true)

let prop_bitflip_detected_or_valid =
  (* Flipping one byte of a valid encoding must yield Error or a
     *different* well-formed message (never a silent identical parse). *)
  qtest ~count:300 "binary: single byte flips never alias the original"
    QCheck.(pair arb_message (pair small_nat small_nat))
    (fun (m, (pos0, delta0)) ->
      let enc = Bytes.of_string (Binary.Oracle.encode m) in
      let pos = pos0 mod Bytes.length enc in
      let delta = 1 + (delta0 mod 255) in
      Bytes.set enc pos
        (Char.chr ((Char.code (Bytes.get enc pos) + delta) land 0xFF));
      match Binary.Oracle.decode (Bytes.unsafe_to_string enc) with
      | Error _ -> true
      | Ok m' -> not (Binary.Oracle.equal_message m m'))

let test_unknown_tag_rejected () =
  (match Binary.Oracle.decode "\xff" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tag 255 accepted");
  match Binary.Oracle.decode "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty input accepted"

let test_oversized_route_rejected () =
  (* tag 10 (Probe) with a route count beyond the cap *)
  let buf = Buffer.create 64 in
  Buffer.add_char buf '\x0a';
  Buffer.add_string buf (String.make 32 '\x00');
  (* seq *)
  Buffer.add_string buf "\x00\x00\x00\x01";
  (* route count = 65535 *)
  Buffer.add_string buf "\xff\xff";
  match Binary.Oracle.decode (Buffer.contents buf) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized route accepted"

let test_known_encoding_stable () =
  (* Pin one concrete encoding so accidental format changes are caught. *)
  let a = Address.of_string_exn "fec0::1" in
  let b = Address.of_string_exn "fec0::2" in
  let m =
    Messages.Ip_change_challenge { old_ip = a; new_ip = b; ch = 0x1122L; remaining = [ a ] }
  in
  let enc = Binary.Oracle.encode m in
  Alcotest.(check int) "length" (1 + 16 + 16 + 8 + 2 + 16) (String.length enc);
  Alcotest.(check char) "tag" '\x0f' enc.[0];
  Alcotest.(check string) "ch bytes" "\x00\x00\x00\x00\x00\x00\x11\x22"
    (String.sub enc 33 8)

(* A fixed-seed sample of every constructor: twenty rounds over
   [variant_gens], drawn from one generator. *)
let golden_sample =
  let g = Prng.create ~seed:36 in
  List.concat (List.init 20 (fun _ -> List.map (fun (_, mk) -> mk g) variant_gens))

(* The sample's bytes, sizes and text, recorded from the hand-written
   codec, before the field table replaced it: the SHA-256 of the concatenated
   encodings, the sum of [encoded_size], and the SHA-256 of the
   rendered summaries, one per line. *)
let encoding_golden = "174c1570fc7a72e38a8d61e6b0ea9e52698650fe4006ade088dab5f474633596"
let size_golden = 52002
let text_golden = "02a4f056095698ffb8abf1d2cf02c146587b22e438b44e39403de839988f2d6b"

let test_encoding_golden () =
  let hex s = Manet_crypto.Sha256.digest_hex s in
  Alcotest.(check int) "sample covers every constructor" (20 * List.length variant_gens)
    (List.length golden_sample);
  Alcotest.(check string) "encodings" encoding_golden
    (hex (String.concat "" (List.map Binary.Oracle.encode golden_sample)));
  Alcotest.(check int) "encoded_size sum" size_golden
    (List.fold_left (fun acc m -> acc + Binary.encoded_size m) 0 golden_sample);
  Alcotest.(check string) "rendered text" text_golden
    (hex (String.concat "\n" (List.map Test_proto.msg_text golden_sample)))

let test_encoded_size_allocation () =
  (* [encoded_size] runs on every send: it reads the message and
     allocates nothing. *)
  let sample = Array.of_list golden_sample in
  let per_call =
    Test_crypto.minor_words_per_call 1_000 (fun () ->
        Array.iter (fun m -> ignore (Sys.opaque_identity (Binary.encoded_size m))) sample)
  in
  Alcotest.(check (float 0.0)) "minor words per encoded_size" 0.0
    (per_call /. float_of_int (Array.length sample))

let test_saodv_rreq_encoding_stable () =
  (* The SAODV RREQ's layout, field by field: tag 18, origin, origin
     seq, broadcast id, destination, known destination seq, one-byte hop
     count, signature, key, modifier, hash, top hash, one-byte bound. *)
  let a = Address.of_string_exn "fec0::1" in
  let b = Address.of_string_exn "fec0::2" in
  let m =
    Messages.Aodv
      (Aodv_rreq
         { origin = a; origin_seq = 3; bcast_id = 0x0102; dst = b; dst_seq_known = 0;
           hop_count = 2; sig_ = "SIG"; spk = "PK"; srn = 0x0aL; hash = "h";
           top_hash = "top"; max_hops = 16 })
  in
  let expected =
    String.concat ""
      [ "\x12"; Address.to_bytes a; "\x00\x00\x00\x03"; "\x00\x00\x01\x02";
        Address.to_bytes b; "\x00\x00\x00\x00"; "\x02"; "\x00\x03SIG";
        "\x00\x02PK"; "\x00\x00\x00\x00\x00\x00\x00\x0a"; "\x00\x01h";
        "\x00\x03top"; "\x10" ]
  in
  Alcotest.(check string) "bytes" expected (Binary.Oracle.encode m);
  Alcotest.(check int) "encoded_size" (String.length expected) (Binary.encoded_size m)

let suites =
  [
    ( "proto.binary",
      per_variant_roundtrips
      @ [
          Alcotest.test_case "wire tags distinct" `Quick test_wire_tags_distinct;
          prop_roundtrip;
          prop_encoded_size;
          Alcotest.test_case "encoded_size overflow" `Quick test_encoded_size_overflow;
          Alcotest.test_case "fixed-width overflow" `Quick test_fixed_width_overflow;
          Alcotest.test_case "long route roundtrips" `Quick test_long_route_roundtrips;
          prop_truncation_rejected;
          prop_trailing_garbage_rejected;
          prop_random_bytes_never_crash;
          prop_bitflip_detected_or_valid;
          Alcotest.test_case "unknown tag" `Quick test_unknown_tag_rejected;
          Alcotest.test_case "oversized route" `Quick test_oversized_route_rejected;
          Alcotest.test_case "stable encoding" `Quick test_known_encoding_stable;
          Alcotest.test_case "stable SAODV RREQ encoding" `Quick
            test_saodv_rreq_encoding_stable;
          Alcotest.test_case "encoding golden" `Quick test_encoding_golden;
          Alcotest.test_case "encoded_size allocation" `Quick
            test_encoded_size_allocation;
        ] );
  ]
