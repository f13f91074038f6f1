(* Unit tests for the protocol substrate: canonical signing payloads,
   the wire-size model, the address directory, identities, and the
   source-route transmission helpers. *)

module Prng = Manet_crypto.Prng
module Suite = Manet_crypto.Suite
module Address = Manet_ipv6.Address
module Cga = Manet_ipv6.Cga
module Engine = Manet_sim.Engine
module Topology = Manet_sim.Topology
module Net = Manet_sim.Net
module Stats = Manet_sim.Stats
module Trace = Manet_sim.Trace
module Obs = Manet_obs.Obs
module Messages = Manet_proto.Messages
module Codec = Manet_proto.Codec
module Wire = Manet_proto.Wire
module Directory = Manet_proto.Directory
module Identity = Manet_proto.Identity
module Ctx = Manet_proto.Node_ctx

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let addr s = Address.of_string_exn s
let a1 = addr "fec0::1"
let a2 = addr "fec0::2"
let a3 = addr "fec0::3"

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)
(* ------------------------------------------------------------------ *)

let test_codec_primitives () =
  Alcotest.(check string) "u32" "\x00\x00\x01\x02" (Codec.u32 0x102);
  Alcotest.(check string) "u64" "\x00\x00\x00\x00\x00\x00\x01\x02" (Codec.u64 0x102L);
  (* Strings are u16-length-prefixed. *)
  Alcotest.(check string) "lstring" ("DREP|\x00\x03abc" ^ Codec.u64 7L)
    (Codec.drep_payload ~dn:"abc" ~ch:7L);
  Alcotest.(check int) "addr is 16 bytes" 16 (String.length (Codec.addr a1));
  Alcotest.(check string) "route counts" (Codec.u32 2 ^ Codec.addr a1 ^ Codec.addr a2)
    (Codec.route [ a1; a2 ])

let all_payloads () =
  [
    Codec.arep_payload ~sip:a1 ~ch:7L;
    Codec.drep_payload ~dn:"x" ~ch:7L;
    Codec.rreq_source_payload ~sip:a1 ~seq:7;
    Codec.srr_entry_payload ~iip:a1 ~seq:7;
    Codec.rrep_payload ~sip:a1 ~seq:7 ~rr:[ a2 ];
    Codec.crep_cacher_payload ~requester:a1 ~seq:7 ~rr:[ a2 ];
    Codec.rerr_payload ~reporter:a1 ~broken_next:a2;
    Codec.probe_reply_payload ~responder:a1 ~origin:a2 ~seq:7;
    Codec.name_reply_payload ~name:"x" ~result:(Some a1) ~ch:7L;
    Codec.ip_change_payload ~old_ip:a1 ~new_ip:a2 ~ch:7L;
  ]

let test_codec_domain_separation () =
  (* No two payload kinds over "the same" fields may collide: a
     signature for one context must not verify in another. *)
  let payloads = all_payloads () in
  let distinct = List.sort_uniq compare payloads in
  Alcotest.(check int) "all payloads distinct" (List.length payloads)
    (List.length distinct)

let test_codec_field_sensitivity () =
  Alcotest.(check bool) "ch matters" false
    (String.equal (Codec.arep_payload ~sip:a1 ~ch:1L) (Codec.arep_payload ~sip:a1 ~ch:2L));
  Alcotest.(check bool) "sip matters" false
    (String.equal (Codec.arep_payload ~sip:a1 ~ch:1L) (Codec.arep_payload ~sip:a2 ~ch:1L));
  Alcotest.(check bool) "rr matters" false
    (String.equal
       (Codec.rrep_payload ~sip:a1 ~seq:1 ~rr:[ a2 ])
       (Codec.rrep_payload ~sip:a1 ~seq:1 ~rr:[ a3 ]));
  Alcotest.(check bool) "seq matters" false
    (String.equal
       (Codec.rrep_payload ~sip:a1 ~seq:1 ~rr:[ a2 ])
       (Codec.rrep_payload ~sip:a1 ~seq:2 ~rr:[ a2 ]));
  (* name_reply: None vs Some must differ even with crafted names *)
  Alcotest.(check bool) "result option matters" false
    (String.equal
       (Codec.name_reply_payload ~name:"x" ~result:None ~ch:1L)
       (Codec.name_reply_payload ~name:"x" ~result:(Some a1) ~ch:1L))

let prop_route_injective =
  qtest "codec: route encoding is injective on lengths"
    QCheck.(pair (int_bound 10) (int_bound 10))
    (fun (n, m) ->
      let mk k = List.init k (fun i -> Cga.generate ~pk_bytes:(string_of_int i) ~rn:0L) in
      n = m || not (String.equal (Codec.route (mk n)) (Codec.route (mk m))))

(* ------------------------------------------------------------------ *)
(* Wire model                                                         *)
(* ------------------------------------------------------------------ *)

let test_wire_monotone_in_route_length () =
  let mk hops =
    Messages.Areq
      { sip = a1; seq = 1; dn = None; ch = 1L; rr = List.init hops (fun _ -> a2) }
  in
  let size h = Wire.size_of (mk h) in
  Alcotest.(check bool) "grows" true (size 5 > size 1);
  Alcotest.(check int) "16 bytes per extra hop" 16 (size 2 - size 1)

let test_wire_rreq_srr_cost () =
  let sig_size = 64 and pk_size = 71 in
  let entry =
    { Messages.ip = a2; sig_ = String.make sig_size 's';
      pk = String.make pk_size 'p'; rn = 1L }
  in
  let mk hops =
    Messages.Rreq
      { sip = a1; dip = a2; seq = 1; srr = List.init hops (fun _ -> entry);
        sig_ = ""; spk = ""; srn = 0L }
  in
  let s1 = Wire.size_of (mk 1) in
  let s2 = Wire.size_of (mk 2) in
  Alcotest.(check int) "per-hop SRR cost matches model"
    (16 + 2 + sig_size + 2 + pk_size + 8)
    (s2 - s1)

let test_wire_crypto_fields_scale () =
  let mk ~sig_size ~pk_size =
    Messages.Rrep
      { sip = a1; dip = a2; rr = []; remaining = [];
        sig_ = String.make sig_size 's'; dpk = String.make pk_size 'p'; drn = 0L }
  in
  let plain = Wire.size_of (mk ~sig_size:0 ~pk_size:0) in
  let fat = Wire.size_of (mk ~sig_size:64 ~pk_size:71) in
  Alcotest.(check int) "sig+pk difference" (64 + 71) (fat - plain)

let test_wire_matches_binary_codec () =
  (* The size model is by construction the codec's output plus the IPv6
     header (minus sim metadata); pin that identity for a data packet. *)
  let msg =
    Messages.Data
      { src = a1; dst = a2; seq = 5; route = [ a3 ]; remaining = [ a3; a2 ];
        payload_size = 100; sent_at = 1.25 }
  in
  Alcotest.(check int) "identity"
    (40 + String.length (Manet_proto.Binary.Oracle.encode msg) - 8)
    (Wire.size_of msg)

(* One value of every message variant. *)
let one_of_each =
  [
    Messages.Areq { sip = a1; seq = 1; dn = None; ch = 1L; rr = [] };
    Messages.Arep { sip = a1; rr = []; remaining = []; sig_ = ""; pk = ""; rn = 0L };
    Messages.Drep { sip = a1; dn = "d"; rr = []; remaining = []; sig_ = "" };
    Messages.Rreq { sip = a1; dip = a2; seq = 1; srr = []; sig_ = ""; spk = ""; srn = 0L };
    Messages.Rrep { sip = a1; dip = a2; rr = []; remaining = []; sig_ = ""; dpk = ""; drn = 0L };
    Messages.Crep
      { requester = a1; cacher = a2; dip = a3; requester_seq = 1; cacher_seq = 2;
        rr_to_cacher = []; rr_to_dest = []; remaining = []; sig_cacher = ""; cacher_pk = "";
        cacher_rn = 0L; sig_dest = ""; dest_pk = ""; dest_rn = 0L };
    Messages.Rerr { reporter = a1; broken_next = a2; dst = a3; remaining = []; sig_ = ""; pk = ""; rn = 0L };
    Messages.Data { src = a1; dst = a2; seq = 1; route = []; remaining = []; payload_size = 64; sent_at = 0.0 };
    Messages.Ack { src = a1; dst = a2; data_seq = 1; route = []; remaining = []; sent_at = 0.0 };
    Messages.Probe { origin = a1; target = a2; seq = 1; route = []; remaining = [] };
    Messages.Probe_reply { responder = a1; origin = a2; seq = 1; remaining = []; sig_ = ""; pk = ""; rn = 0L };
    Messages.Name_query { requester = a1; name = "n"; ch = 1L; route = []; remaining = [] };
    Messages.Name_reply { requester = a1; name = "n"; result = None; ch = 1L; remaining = []; sig_ = "" };
    Messages.Ip_change_request { old_ip = a1; new_ip = a2; route = []; remaining = [] };
    Messages.Ip_change_challenge { old_ip = a1; new_ip = a2; ch = 1L; remaining = [] };
    Messages.Ip_change_proof { old_ip = a1; new_ip = a2; old_rn = 0L; new_rn = 0L; pk = ""; sig_ = ""; route = []; remaining = [] };
    Messages.Ip_change_ack { old_ip = a1; new_ip = a2; accepted = true; remaining = [] };
  ]

let test_wire_all_messages_positive () =
  List.iter
    (fun msg ->
      let size = Wire.size_of msg in
      Alcotest.(check bool) (Messages.tag msg) true (size > 40))
    one_of_each

let test_messages_counter_keys () =
  List.iter
    (fun msg ->
      let tag = Messages.tag msg in
      Alcotest.(check string) ("tx key of " ^ tag) ("tx." ^ tag)
        (Stats.key_name (Messages.tx_key msg));
      Alcotest.(check string) ("txbytes key of " ^ tag) ("txbytes." ^ tag)
        (Stats.key_name (Messages.txbytes_key msg)))
    one_of_each

let test_messages_with_remaining () =
  let msg = Messages.Data { src = a1; dst = a2; seq = 1; route = [ a3 ]; remaining = [ a3; a2 ]; payload_size = 0; sent_at = 0.0 } in
  (match Messages.remaining (Messages.with_remaining msg [ a2 ]) with
  | Some [ x ] -> Alcotest.(check bool) "replaced" true (Address.equal x a2)
  | _ -> Alcotest.fail "unexpected remaining");
  (* AREQ is flooded: with_remaining is the identity *)
  let areq = Messages.Areq { sip = a1; seq = 1; dn = None; ch = 1L; rr = [] } in
  Alcotest.(check bool) "areq unchanged" true (Messages.with_remaining areq [ a1 ] == areq);
  Alcotest.(check bool) "areq has no remaining" true (Messages.remaining areq = None)

(* ------------------------------------------------------------------ *)
(* Message rendering: the Buffer renderer against the Format oracle    *)
(* ------------------------------------------------------------------ *)

(* The Format-based message and route printers the Buffer renderer
   replaced, kept verbatim: every trace and capture detail must match
   them byte for byte. *)
let pp_addr fmt a = Format.pp_print_string fmt (Address.to_string a)

(* The plain address writer: [Address.to_string]'s text. *)
let add_addr buf a = Buffer.add_string buf (Address.to_string a)

(* A message's one-line summary, with the plain address writer. *)
let msg_text m =
  let buf = Buffer.create 128 in
  Messages.add_to_buffer add_addr buf m;
  Buffer.contents buf

let ref_pp_route fmt route =
  Format.fprintf fmt "[%s]" (String.concat ";" (List.map Address.to_string route))

let ref_pp fmt msg =
  match msg with
  | Messages.Areq m ->
      Format.fprintf fmt "AREQ(sip=%a, seq=%d, dn=%s, rr=%a)" pp_addr m.sip
        m.seq
        (Option.value ~default:"-" m.dn)
        ref_pp_route m.rr
  | Arep m -> Format.fprintf fmt "AREP(sip=%a, rr=%a)" pp_addr m.sip ref_pp_route m.rr
  | Drep m -> Format.fprintf fmt "DREP(sip=%a, dn=%s)" pp_addr m.sip m.dn
  | Rreq m ->
      Format.fprintf fmt "RREQ(sip=%a, dip=%a, seq=%d, hops=%d)" pp_addr m.sip
        pp_addr m.dip m.seq (List.length m.srr)
  | Rrep m ->
      Format.fprintf fmt "RREP(sip=%a, dip=%a, rr=%a)" pp_addr m.sip pp_addr
        m.dip ref_pp_route m.rr
  | Crep m ->
      Format.fprintf fmt "CREP(req=%a, cacher=%a, dip=%a)" pp_addr m.requester
        pp_addr m.cacher pp_addr m.dip
  | Rerr m ->
      Format.fprintf fmt "RERR(reporter=%a, broken=%a, dst=%a)" pp_addr
        m.reporter pp_addr m.broken_next pp_addr m.dst
  | Data m ->
      Format.fprintf fmt "DATA(src=%a, dst=%a, seq=%d)" pp_addr m.src pp_addr
        m.dst m.seq
  | Ack m ->
      Format.fprintf fmt "ACK(src=%a, dst=%a, seq=%d)" pp_addr m.src pp_addr
        m.dst m.data_seq
  | Probe m ->
      Format.fprintf fmt "PROBE(origin=%a, target=%a, seq=%d)" pp_addr m.origin
        pp_addr m.target m.seq
  | Probe_reply m ->
      Format.fprintf fmt "PROBE_REPLY(responder=%a, seq=%d)" pp_addr m.responder
        m.seq
  | Name_query m -> Format.fprintf fmt "NAME_QUERY(name=%s)" m.name
  | Name_reply m ->
      Format.fprintf fmt "NAME_REPLY(name=%s, result=%s)" m.name
        (match m.result with Some a -> Address.to_string a | None -> "-")
  | Ip_change_request m ->
      Format.fprintf fmt "IP_CHANGE_REQUEST(old=%a, new=%a)" pp_addr m.old_ip
        pp_addr m.new_ip
  | Ip_change_challenge m ->
      Format.fprintf fmt "IP_CHANGE_CHALLENGE(old=%a)" pp_addr m.old_ip
  | Ip_change_proof m ->
      Format.fprintf fmt "IP_CHANGE_PROOF(old=%a, new=%a)" pp_addr m.old_ip
        pp_addr m.new_ip
  | Ip_change_ack m ->
      Format.fprintf fmt "IP_CHANGE_ACK(accepted=%b)" m.accepted
  | Aodv (Aodv_rreq m) ->
      Format.fprintf fmt "AODV_RREQ(origin=%a, dst=%a, id=%d, hops=%d)" pp_addr
        m.origin pp_addr m.dst m.bcast_id m.hop_count
  | Aodv (Aodv_rrep m) ->
      Format.fprintf fmt "AODV_RREP(requester=%a, dst=%a, seq=%d, hops=%d)"
        pp_addr m.requester pp_addr m.dst m.dst_seq m.hop_count
  | Aodv (Aodv_rerr m) ->
      Format.fprintf fmt "AODV_RERR(unreachable=%a)" ref_pp_route
        (List.map fst m.unreachable)
  | Aodv (Aodv_data m) ->
      Format.fprintf fmt "AODV_DATA(src=%a, dst=%a, seq=%d)" pp_addr m.src
        pp_addr m.dst m.seq
  | Aodv (Aodv_ack m) ->
      Format.fprintf fmt "AODV_ACK(src=%a, dst=%a, seq=%d)" pp_addr m.src
        pp_addr m.dst m.data_seq

(* One message of every constructor per sample.  Addresses are sparse
   (zero runs, so '::' in every position) or dense; routes are empty,
   short or long; strings are arbitrary bytes, control characters
   included; optional fields and [accepted] take both values. *)
let every_message g =
  let addr g =
    if Test_crypto.coin g then
      Test_ipv6.of_groups
        (Array.init 8 (fun _ -> if Prng.int g 3 = 0 then Prng.int g 0x10000 else 0))
    else Address.of_bytes (Prng.bytes g 16)
  in
  let route g =
    let n =
      match Prng.int g 3 with 0 -> 0 | 1 -> 1 + Prng.int g 4 | _ -> 20 + Prng.int g 20
    in
    List.init n (fun _ -> addr g)
  in
  let str g = Prng.bytes g (Prng.int g 40) in
  let int g = Prng.int g 2_000_000 - 1_000_000 in
  let opt g f = if Test_crypto.coin g then Some (f g) else None in
  let srr g =
    List.init (Prng.int g 6) (fun _ ->
        { Messages.ip = addr g; sig_ = str g; pk = str g; rn = Prng.bits64 g })
  in
  let r64 = Prng.bits64 and fl g = Prng.float g 1000.0 in
  [
    Messages.Areq { sip = addr g; seq = int g; dn = opt g str; ch = r64 g; rr = route g };
    Arep
      { sip = addr g; rr = route g; remaining = route g; sig_ = str g; pk = str g;
        rn = r64 g };
    Drep { sip = addr g; dn = str g; rr = route g; remaining = route g; sig_ = str g };
    Rreq
      { sip = addr g; dip = addr g; seq = int g; srr = srr g; sig_ = str g;
        spk = str g; srn = r64 g };
    Rrep
      { sip = addr g; dip = addr g; rr = route g; remaining = route g; sig_ = str g;
        dpk = str g; drn = r64 g };
    Crep
      { requester = addr g; cacher = addr g; dip = addr g; requester_seq = int g;
        cacher_seq = int g; rr_to_cacher = route g; rr_to_dest = route g;
        remaining = route g; sig_cacher = str g; cacher_pk = str g;
        cacher_rn = r64 g; sig_dest = str g; dest_pk = str g; dest_rn = r64 g };
    Rerr
      { reporter = addr g; broken_next = addr g; dst = addr g; remaining = route g;
        sig_ = str g; pk = str g; rn = r64 g };
    Data
      { src = addr g; dst = addr g; seq = int g; route = route g;
        remaining = route g; payload_size = int g; sent_at = fl g };
    Ack
      { src = addr g; dst = addr g; data_seq = int g; route = route g;
        remaining = route g; sent_at = fl g };
    Probe
      { origin = addr g; target = addr g; seq = int g; route = route g;
        remaining = route g };
    Probe_reply
      { responder = addr g; origin = addr g; seq = int g; remaining = route g;
        sig_ = str g; pk = str g; rn = r64 g };
    Name_query
      { requester = addr g; name = str g; ch = r64 g; route = route g;
        remaining = route g };
    Name_reply
      { requester = addr g; name = str g; result = opt g addr; ch = r64 g;
        remaining = route g; sig_ = str g };
    Ip_change_request
      { old_ip = addr g; new_ip = addr g; route = route g; remaining = route g };
    Ip_change_challenge
      { old_ip = addr g; new_ip = addr g; ch = r64 g; remaining = route g };
    Ip_change_proof
      { old_ip = addr g; new_ip = addr g; old_rn = r64 g; new_rn = r64 g;
        pk = str g; sig_ = str g; route = route g; remaining = route g };
    Ip_change_ack
      { old_ip = addr g; new_ip = addr g; accepted = Test_crypto.coin g; remaining = route g };
    Aodv
      (Aodv_rreq
         { origin = addr g; origin_seq = int g; bcast_id = int g; dst = addr g;
           dst_seq_known = int g; hop_count = int g; sig_ = str g; spk = str g;
           srn = r64 g; hash = str g; top_hash = str g; max_hops = int g });
    Aodv
      (Aodv_rrep
         { requester = addr g; dst = addr g; dst_seq = int g; hop_count = int g;
           sig_ = str g; dpk = str g; drn = r64 g; hash = str g; top_hash = str g;
           max_hops = int g });
    Aodv (Aodv_rerr { unreachable = List.map (fun a -> (a, int g)) (route g) });
    Aodv
      (Aodv_data
         { src = addr g; dst = addr g; seq = int g; payload_size = int g;
           sent_at = fl g });
    Aodv (Aodv_ack { src = addr g; dst = addr g; data_seq = int g; sent_at = fl g });
  ]

let prop_add_to_buffer_matches_oracle =
  qtest ~count:300 "add_to_buffer = Format oracle"
    QCheck.(
      make
        ~print:(fun ms -> String.concat "\n" (List.map (Format.asprintf "%a" ref_pp) ms))
        Gen.(map (fun seed -> every_message (Prng.create ~seed)) int))
    (List.for_all (fun m ->
         String.equal (msg_text m) (Format.asprintf "%a" ref_pp m)))

let test_add_to_buffer_pinned () =
  let render = msg_text in
  Alcotest.(check string) "empty route, dn = None"
    "AREQ(sip=fec0::1, seq=7, dn=-, rr=[])"
    (render (Messages.Areq { sip = a1; seq = 7; dn = None; ch = 0L; rr = [] }));
  Alcotest.(check string) "route list"
    "AREP(sip=fec0::1, rr=[fec0::2;fec0::3;fec0::1])"
    (render
       (Messages.Arep
          { sip = a1; rr = [ a2; a3; a1 ]; remaining = []; sig_ = ""; pk = ""; rn = 0L }));
  Alcotest.(check string) "result = None" "NAME_REPLY(name=n, result=-)"
    (render
       (Messages.Name_reply
          { requester = a1; name = "n"; result = None; ch = 0L; remaining = []; sig_ = "" }));
  List.iter
    (fun accepted ->
      Alcotest.(check string) "accepted"
        (Printf.sprintf "IP_CHANGE_ACK(accepted=%b)" accepted)
        (render
           (Messages.Ip_change_ack { old_ip = a1; new_ip = a2; accepted; remaining = [] })))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Directory                                                          *)
(* ------------------------------------------------------------------ *)

let test_directory_basics () =
  let d = Directory.create () in
  Alcotest.(check (option int)) "empty" None (Directory.lookup d a1);
  Directory.register d a1 5;
  Directory.register d a1 5;
  Alcotest.(check (list int)) "idempotent" [ 5 ] (Directory.lookup_all d a1);
  Directory.register d a1 3;
  Alcotest.(check (list int)) "contested, sorted" [ 3; 5 ] (Directory.lookup_all d a1);
  Alcotest.(check (option int)) "first claimant" (Some 3) (Directory.lookup d a1);
  Directory.unregister d a1 3;
  Alcotest.(check (list int)) "one left" [ 5 ] (Directory.lookup_all d a1);
  Directory.unregister d a1 5;
  Alcotest.(check (option int)) "gone" None (Directory.lookup d a1)

let test_directory_addresses_of () =
  let d = Directory.create () in
  Directory.register d a1 7;
  Directory.register d a2 7;
  Directory.register d a3 8;
  Alcotest.(check int) "two addresses" 2 (List.length (Directory.addresses_of d 7));
  Alcotest.(check int) "one address" 1 (List.length (Directory.addresses_of d 8))

(* ------------------------------------------------------------------ *)
(* Identity                                                           *)
(* ------------------------------------------------------------------ *)

let test_identity_cga_binding () =
  let suite = Suite.mock (Prng.create ~seed:3) in
  let g = Prng.create ~seed:4 in
  let id = Identity.create suite g ~node_id:1 in
  Alcotest.(check bool) "address is own CGA" true
    (Cga.verify id.Identity.address ~pk_bytes:(Identity.pk_bytes id) ~rn:id.Identity.rn);
  let before = id.Identity.address in
  Identity.refresh_address id g;
  Alcotest.(check bool) "address changed" false (Address.equal before id.Identity.address);
  Alcotest.(check bool) "still a valid CGA" true
    (Cga.verify id.Identity.address ~pk_bytes:(Identity.pk_bytes id) ~rn:id.Identity.rn)

let test_identity_sign_roundtrip () =
  let suite = Suite.mock (Prng.create ~seed:5) in
  let g = Prng.create ~seed:6 in
  let id = Identity.create suite g ~node_id:2 in
  let sig_ = Identity.sign id "payload" in
  Alcotest.(check bool) "verifies" true
    (suite.Suite.verify ~pk_bytes:(Identity.pk_bytes id) ~msg:"payload" ~signature:sig_)

(* The signature memo against a twin built from the same seeds that
   signs through [keypair.Suite.sign] directly: same signatures byte for
   byte, same op counters and [on_op] stream, and one private-key
   operation per distinct payload since the memo last emptied. *)
type sign_op = Sign of int * int | Refresh of int | Burst of int * int

(* Payloads 0-3 name the signer's current address and share its 16-byte
   prefix; 4-7 share a long constant prefix. *)
let memo_payload id p =
  if p < 4 then Codec.srr_entry_payload ~iip:id.Identity.address ~seq:p
  else Printf.sprintf "route request source payload %d" p

let check_sign_memo make_suite ops =
  let world () =
    let suite = make_suite () in
    let g = Prng.create ~seed:31 in
    let ids = Array.init 2 (fun node_id -> Identity.create suite g ~node_id) in
    let log = ref [] in
    Suite.set_on_op suite (Some (fun ~op ~bytes -> log := (op, bytes) :: !log));
    (suite, g, ids, log)
  in
  let suite, g, ids, log = world () in
  let twin, twin_g, twin_ids, twin_log = world () in
  (* Model of each memo: the payloads held, emptied when 64 are held. *)
  let held = Array.init 2 (fun _ -> Hashtbl.create 16) in
  let computed = ref 0 in
  let sign who msg =
    let model = held.(who) in
    if not (Hashtbl.mem model msg) then begin
      incr computed;
      if Hashtbl.length model >= 64 then Hashtbl.reset model;
      Hashtbl.add model msg ()
    end;
    let got = Identity.sign ids.(who) msg in
    let want = twin_ids.(who).Identity.keypair.Suite.sign msg in
    if not (String.equal got want) then
      QCheck.Test.fail_reportf "signature of %S by identity %d differs" msg who
  in
  List.iter
    (function
      | Sign (who, p) -> sign who (memo_payload ids.(who) p)
      | Refresh who ->
          Identity.refresh_address ids.(who) g;
          Identity.refresh_address twin_ids.(who) twin_g
      | Burst (who, n) -> for i = 1 to n do sign who (Printf.sprintf "burst %d" i) done)
    ops;
  suite.Suite.sign_count = twin.Suite.sign_count
  && suite.Suite.sha256_blocks = twin.Suite.sha256_blocks
  && !log = !twin_log
  && twin.Suite.signs_reused = 0
  && suite.Suite.sign_count - suite.Suite.signs_reused = !computed

let arb_sign_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (12, map2 (fun who p -> Sign (who, p)) (int_bound 1) (int_bound 7));
        (1, map (fun who -> Refresh who) (int_bound 1));
        (1, map2 (fun who n -> Burst (who, n)) (int_bound 1) (int_range 1 70));
      ]
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Sign (w, p) -> Printf.sprintf "sign %d %d" w p
             | Refresh w -> Printf.sprintf "refresh %d" w
             | Burst (w, n) -> Printf.sprintf "burst %d %d" w n)
           ops))
    (list_size (int_range 1 40) op)

let mock_suite () = Suite.mock (Prng.create ~seed:29)
let rsa_suite () = Suite.rsa ~bits:512 (Prng.create ~seed:29)

let prop_sign_memo_mock =
  qtest ~count:150 "sign memo = direct signing (mock)" arb_sign_ops
    (check_sign_memo mock_suite)

let prop_sign_memo_rsa =
  qtest ~count:4 "sign memo = direct signing (rsa-512)" arb_sign_ops
    (check_sign_memo rsa_suite)

(* More distinct payloads than the memo holds, around an address
   refresh: the memo empties itself and stays equivalent. *)
let test_sign_memo_reset () =
  let ops =
    [ Sign (0, 0); Sign (0, 4); Sign (1, 0); Burst (0, 70); Sign (0, 0); Sign (0, 4);
      Refresh 0; Sign (0, 0); Sign (1, 0); Burst (1, 65); Sign (1, 0); Sign (0, 0) ]
  in
  Alcotest.(check bool) "mock" true (check_sign_memo mock_suite ops);
  Alcotest.(check bool) "rsa-512" true (check_sign_memo rsa_suite ops)

(* ------------------------------------------------------------------ *)
(* Node_ctx source-route transmission                                 *)
(* ------------------------------------------------------------------ *)

let make_ctx_world () =
  let engine = Engine.create ~seed:7 () in
  let topo = Topology.chain ~n:3 ~spacing:100.0 in
  let net = Net.create ~config:{ Net.default_config with range = 150.0 } engine topo in
  let directory = Directory.create () in
  let suite = Suite.mock (Prng.create ~seed:8) in
  let g = Prng.create ~seed:9 in
  let ids = Array.init 3 (fun i -> Identity.create suite g ~node_id:i) in
  Array.iteri (fun i id -> Directory.register directory id.Identity.address i) ids;
  let ctxs = Array.map (fun id -> Ctx.create net directory id (Prng.create ~seed:10)) ids in
  (engine, net, ids, ctxs)

let probe_msg target route =
  Messages.Probe { origin = target; target; seq = 1; route; remaining = [] }

let test_ctx_send_along_and_deliver () =
  let engine, net, ids, ctxs = make_ctx_world () in
  let a i = ids.(i).Identity.address in
  let consumed = ref None and forwarded = ref 0 in
  let handler i ~src:_ msg =
    Ctx.deliver_up ctxs.(i) ~src:0 msg
      ~consume:(fun m -> consumed := Some (i, m))
      ~forward:(fun ~next m ->
        incr forwarded;
        Ctx.send_along ctxs.(i) ~path:next m)
      ~not_mine:(fun _ -> ())
  in
  for i = 0 to 2 do
    Net.set_handler net i (handler i)
  done;
  (* 0 -> 1 -> 2 along the chain *)
  Ctx.send_along ctxs.(0) ~path:[ a 1; a 2 ] (probe_msg (a 2) []);
  Engine.run engine;
  Alcotest.(check int) "one forward" 1 !forwarded;
  (match !consumed with
  | Some (2, _) -> ()
  | Some (i, _) -> Alcotest.failf "consumed at wrong node %d" i
  | None -> Alcotest.fail "never consumed")

let test_ctx_send_along_unresolvable () =
  let engine, _net, ids, ctxs = make_ctx_world () in
  ignore ids;
  let failed = ref false in
  let ghost = addr "fec0::dead" in
  Ctx.send_along ctxs.(0) ~path:[ ghost ] ~on_fail:(fun () -> failed := true)
    (probe_msg ghost []);
  Engine.run engine;
  Alcotest.(check bool) "on_fail fired" true !failed

let test_ctx_empty_path_rejected () =
  let _engine, _net, _ids, ctxs = make_ctx_world () in
  Alcotest.check_raises "empty path" (Invalid_argument "Node_ctx.send_along: empty path")
    (fun () -> Ctx.send_along ctxs.(0) ~path:[] (probe_msg a1 []))

let test_ctx_byte_accounting () =
  let engine, net, ids, ctxs = make_ctx_world () in
  ignore net;
  let a i = ids.(i).Identity.address in
  let msg = probe_msg (a 1) [] in
  Ctx.send_along ctxs.(0) ~path:[ a 1 ] msg;
  Engine.run engine;
  let st = Engine.stats engine in
  Alcotest.(check int) "tx.probe counted" 1 (Manet_sim.Stats.get st "tx.probe");
  Alcotest.(check int) "bytes counted"
    (Ctx.size_of ctxs.(0) (Messages.with_remaining msg [ a 1 ]))
    (Manet_sim.Stats.get st "txbytes.probe")

(* ------------------------------------------------------------------ *)
(* Send-path telemetry: details only for a listening sink             *)
(* ------------------------------------------------------------------ *)

(* Node 0 sends one broadcast and one source-routed unicast; [fec0::2]
   resolves to node 1.  Returns the engine and the shared telemetry
   handle after [setup] has switched the event log on or left it off. *)
let sink_run setup =
  let engine = Engine.create ~seed:7 () in
  let topo = Topology.chain ~n:2 ~spacing:100.0 in
  let net = Net.create ~config:{ Net.default_config with range = 150.0 } engine topo in
  let directory = Directory.create () in
  Directory.register directory a2 1;
  let suite = Suite.mock (Prng.create ~seed:8) in
  let id = Identity.create suite (Prng.create ~seed:9) ~node_id:0 in
  let obs = Obs.create engine in
  let ctx = Ctx.create ~obs net directory id (Prng.create ~seed:10) in
  setup engine obs;
  Ctx.broadcast ctx
    (Messages.Areq { sip = a1; seq = 3; dn = Some "node1"; ch = 9L; rr = [ a3 ] });
  Ctx.send_along ctx ~path:[ a2 ]
    (Messages.Data
       { src = a1; dst = a2; seq = 4; route = [ a3 ]; remaining = []; payload_size = 64;
         sent_at = 0.5 });
  (engine, obs)

(* The details as rendered before formatting became gated on the log's
   switch. *)
let golden_details =
  [
    ("tx.areq", "broadcast AREQ(sip=fec0::1, seq=3, dn=node1, rr=[fec0::3])");
    ("tx.data", "to fec0::2: DATA(src=fec0::1, dst=fec0::2, seq=4)");
  ]

let details = Alcotest.(list (pair string string))

let test_send_details_trace_ring () =
  let engine, obs =
    sink_run (fun engine _ -> Trace.enable (Engine.trace engine))
  in
  Alcotest.check details "ring details" golden_details
    (List.map
       (fun e -> (e.Trace.event, e.Trace.detail))
       (Trace.entries (Engine.trace engine)));
  (* The trace's switch is the capture's: both read one log. *)
  Alcotest.check details "captured details" golden_details
    (List.map (fun e -> (e.Obs.name, e.Obs.detail)) (Obs.events obs))

let test_send_details_capture () =
  let engine, obs = sink_run (fun _ obs -> Obs.set_capture obs true) in
  Alcotest.check details "captured details" golden_details
    (List.map
       (fun e -> (e.Obs.name, e.Obs.detail))
       (Obs.events obs));
  Alcotest.check details "ring details" golden_details
    (List.map
       (fun e -> (e.Trace.event, e.Trace.detail))
       (Trace.entries (Engine.trace engine)))

let test_send_details_sinks_off () =
  let engine, obs = sink_run (fun _ _ -> ()) in
  Alcotest.(check bool) "capture off wants no events" false (Obs.wants_events obs);
  Alcotest.(check int) "ring empty" 0 (Test_sim.trace_length (Engine.trace engine));
  Alcotest.(check int) "no captured events" 0 (List.length (Obs.events obs));
  (* The counters do not depend on the sinks. *)
  let st = Engine.stats engine in
  Alcotest.(check int) "tx.areq counted" 1 (Stats.get st "tx.areq");
  Alcotest.(check int) "tx.data counted" 1 (Stats.get st "tx.data")

(* ------------------------------------------------------------------ *)
(* Counter keys                                                       *)
(* ------------------------------------------------------------------ *)

(* Four nodes sharing one telemetry handle, as in a scenario. *)
let shared_obs_world () =
  let engine = Engine.create ~seed:7 () in
  let topo = Topology.chain ~n:4 ~spacing:100.0 in
  let net = Net.create ~config:{ Net.default_config with range = 150.0 } engine topo in
  let directory = Directory.create () in
  let suite = Suite.mock (Prng.create ~seed:8) in
  let g = Prng.create ~seed:9 in
  let ids = Array.init 4 (fun i -> Identity.create suite g ~node_id:i) in
  Array.iteri (fun i id -> Directory.register directory id.Identity.address i) ids;
  let obs = Obs.create engine in
  let ctxs =
    Array.map (fun id -> Ctx.create ~obs net directory id (Prng.create ~seed:10)) ids
  in
  (engine, obs, g, ids, ctxs)

(* Names with characters both exports quote or escape. *)
let key_names = [| "tx.data"; "rx.\"q\""; "lat\\ms"; "a\nb"; "z" |]

(* Two keys per name, made separately from two distinct strings, so a
   name's second key joins the cell its first one made. *)
let keys_of_names () =
  Array.map
    (fun n -> [| Stats.key n; Stats.key (String.init (String.length n) (String.get n)) |])
    key_names

type key_op = Stat | Stat_by of int | Observe of float

(* Calls at random times (metric windows are 1 s long), nodes and keys,
   each made with the windowed metrics switched on or off. *)
let gen_key_script =
  QCheck.Gen.(
    list_size (int_bound 80)
      (map
         (fun ((t, node, name, variant), (op, on)) -> (t, node, name, variant, op, on))
         (pair
            (quad (float_bound_exclusive 20.0) (int_bound 3)
               (int_bound (Array.length key_names - 1))
               (int_bound 1))
            (pair
               (frequency
                  [
                    (2, return Stat);
                    (2, map (fun by -> Stat_by by) (int_range 1 3));
                    (1, map (fun x -> Observe x) (float_range (-5.0) 5.0));
                  ])
               bool))))

let print_key_script script =
  String.concat "\n"
       (List.map
          (fun (t, node, name, variant, op, on) ->
            Printf.sprintf "%g node %d %S/%d %s metrics %b" t node key_names.(name) variant
              (match op with
              | Stat -> "stat"
              | Stat_by by -> Printf.sprintf "stat_by %d" by
              | Observe x -> Printf.sprintf "observe %g" x)
              on)
          script)

(* Node_ctx's keyed counters against a string-keyed model: run totals by
   name, windowed cells (only while metrics are on) and both exports. *)
let prop_counter_keys_match_model =
  qtest ~count:200 "counter keys: stat/stat_by/observe = string-keyed model"
    (QCheck.make ~print:print_key_script gen_key_script)
    (fun script ->
      let engine, obs, _, _, ctxs = shared_obs_world () in
      let m = Obs.metrics obs in
      let keys = keys_of_names () in
      List.iter
        (fun (t, node, name, variant, op, on) ->
          let k = keys.(name).(variant) in
          Engine.schedule engine ~delay:t (fun () ->
              Manet_obs.Metrics.set_enabled m on;
              match op with
              | Stat -> Ctx.stat ctxs.(node) k
              | Stat_by by ->
                  for _ = 1 to by do
                    Ctx.stat ctxs.(node) k
                  done
              | Observe x -> Ctx.observe ctxs.(node) k x))
        script;
      Engine.run engine;
      let stats = Engine.stats engine in
      (* The model sees each call at the time the engine ran it. *)
      let script =
        List.stable_sort (fun (a, _, _, _, _, _) (b, _, _, _, _, _) -> Float.compare a b) script
      in
      let totals = Hashtbl.create 8 and samples = Hashtbl.create 8 in
      let bump tbl name by =
        Hashtbl.replace tbl name (by + Option.value ~default:0 (Hashtbl.find_opt tbl name))
      in
      List.iter
        (fun (_, _, name, _, op, _) ->
          let name = key_names.(name) in
          match op with
          | Stat -> bump totals name 1
          | Stat_by by -> bump totals name by
          | Observe _ -> bump samples name 1)
        script;
      let sorted tbl =
        List.sort (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
      in
      let windowed =
        List.filter_map
          (fun (t, node, name, _, op, on) ->
            if not on then None
            else
              Some
                ( t,
                  node,
                  key_names.(name),
                  match op with
                  | Stat -> `By 1
                  | Stat_by by -> `By by
                  | Observe x -> `Sample x ))
          script
      in
      let csv, prom = Test_obs.oracle_metrics ~window:1.0 ~stats windowed in
      Array.for_all
        (fun name ->
          Stats.get stats name = Option.value ~default:0 (Hashtbl.find_opt totals name))
        key_names
      && Stats.counters stats = sorted totals
      && List.map (fun (n, (s : Stats.summary)) -> (n, s.Stats.count)) (Stats.summaries stats)
         = sorted samples
      && String.equal csv (Manet_obs.Metrics.to_csv ~stats m)
      && String.equal prom (Manet_obs.Metrics.to_prom ~stats m))

(* A bump of a counter whose cells exist allocates nothing, with the
   windowed metrics off and on. *)
let test_stat_allocation_budget () =
  let _, obs, _, _, ctxs = shared_obs_world () in
  let k = Stats.key "data.forwarded" in
  let budget label =
    Ctx.stat ctxs.(1) k;
    let stat = Test_crypto.minor_words_per_call 10_000 (fun () -> Ctx.stat ctxs.(1) k) in
    Alcotest.(check (float 0.0)) ("Node_ctx.stat, " ^ label) 0.0 stat
  in
  budget "metrics off";
  Manet_obs.Metrics.set_enabled (Obs.metrics obs) true;
  budget "metrics on"

(* ------------------------------------------------------------------ *)
(* Memoised address text                                              *)
(* ------------------------------------------------------------------ *)

(* Every detail of node 0's transmissions naming [x] (as a broadcast
   AREQ's source and route, as a unicast's next hop and DATA endpoints),
   and the audit subject [x], equal the renderings of msg_text and
   Address.to_string. *)
let check_rendered label (engine, obs, ids, ctxs) x =
  ignore engine;
  let pp = msg_text in
  let a1 = ids.(1).Identity.address in
  let areq = Messages.Areq { sip = x; seq = 1; dn = None; ch = 2L; rr = [ a1; x ] } in
  let data =
    Messages.Data
      { src = x; dst = a1; seq = 5; route = [ x ]; remaining = []; payload_size = 8;
        sent_at = 0.0 }
  in
  let before = List.length (Obs.events obs) in
  Ctx.broadcast ctxs.(0) areq;
  Ctx.send_along ctxs.(0) ~path:[ x ] data;
  let details =
    List.filteri (fun i _ -> i >= before) (List.map (fun e -> e.Obs.detail) (Obs.events obs))
  in
  Alcotest.(check (list string)) (label ^ ": details")
    [
      "broadcast " ^ pp areq;
      "to " ^ Address.to_string x ^ ": " ^ pp (Messages.with_remaining data [ x ]);
    ]
    details;
  let last = ref [] in
  Manet_obs.Audit.on_emit (Obs.audit obs) (fun e -> last := [ e ]);
  Ctx.audit ctxs.(0) ~kind:Manet_obs.Audit.Cga_mismatch ~subject:x ~cause:"test" ();
  match !last with
  | e :: _ ->
      Alcotest.(check (option string)) (label ^ ": audit subject")
        (Some (Address.to_string x)) e.Manet_obs.Audit.subject_addr
  | [] -> Alcotest.fail "no audit event"

let test_address_text_memo () =
  let engine, obs, g, ids, ctxs = shared_obs_world () in
  Obs.set_capture obs true;
  let w = (engine, obs, ids, ctxs) in
  let registered = ids.(2).Identity.address in
  check_rendered "registered" w registered;
  Alcotest.(check bool) "a second rendering returns the memoised string" true
    (Obs.address_text obs registered == Obs.address_text obs registered);
  Identity.refresh_address ids.(2) g;
  let refreshed = ids.(2).Identity.address in
  Alcotest.(check bool) "refresh changed the address" false
    (Address.equal refreshed registered);
  check_rendered "after refresh_address" w refreshed;
  check_rendered "the old address, still memoised" w registered;
  check_rendered "never registered (forged)" w (addr "fec0::dead:beef");
  (* A zero run at every position and of every length. *)
  for start = 0 to 7 do
    for len = 1 to 8 - start do
      let a =
        Test_ipv6.of_groups (Array.init 8 (fun i -> if i >= start && i < start + len then 0 else 0xfe80 + i))
      in
      Alcotest.(check string) "zero-run text" (Address.to_string a) (Obs.address_text obs a)
    done
  done;
  (* Past the cap the memo is emptied and refilled: every text stays
     equal to a fresh rendering, before and after. *)
  let many = Array.init 10_000 (fun i -> Address.make ~hi:0xfec0_0000_0000_0000L ~lo:(Int64.of_int (i * 65_537))) in
  Array.iter
    (fun a ->
      if not (String.equal (Obs.address_text obs a) (Address.to_string a)) then
        Alcotest.failf "memo text of %s" (Address.to_string a))
    many;
  check_rendered "past the cap: first of many" w many.(0);
  check_rendered "past the cap: registered again" w registered

(* Eight 16-bit groups with one zero run at any position and length
   (RFC 5952 compresses the longest), the other groups drawn from a mix
   heavy in zeros and in single-digit values. *)
let gen_address =
  QCheck.Gen.(
    map
      (fun ((start, len), groups) ->
        let g = Array.of_list groups in
        for i = start to min 7 (start + len - 1) do
          g.(i) <- 0
        done;
        Test_ipv6.of_groups g)
      (pair
         (pair (int_bound 7) (int_bound 8))
         (list_repeat 8 (frequency [ (3, return 0); (2, int_bound 15); (4, int_bound 0xffff) ]))))

let prop_address_text_memo =
  let _, obs, _, _, _ = shared_obs_world () in
  let buf = Buffer.create 128 and direct = Buffer.create 128 in
  qtest ~count:2000 "address text: memo = Address.to_string, in details too"
    (QCheck.make ~print:Address.to_string gen_address)
    (fun a ->
      let m = Messages.Rerr { reporter = a; broken_next = a1; dst = a; remaining = [ a ];
                              sig_ = ""; pk = ""; rn = 0L } in
      Buffer.clear buf;
      Buffer.clear direct;
      Messages.add_to_buffer (Obs.address_writer obs) buf m;
      Messages.add_to_buffer add_addr direct m;
      String.equal (Obs.address_text obs a) (Address.to_string a)
      && String.equal (Buffer.contents buf) (Buffer.contents direct)
      && String.equal (Buffer.contents buf) (msg_text m))

(* ------------------------------------------------------------------ *)
(* BSAR ablation: verify_at_destination = false                       *)
(* ------------------------------------------------------------------ *)

let test_bsar_ablation_misses_impersonation () =
  (* With destination verification off (BSAR checks only the source),
     the poisoned SRR entry passes: this is precisely the gap the paper
     claims to close over BSAR. *)
  let module Scenario = Manetsec.Scenario in
  let module Adversary = Manetsec.Adversary in
  let base =
    {
      Scenario.default_params with
      n = 9;
      seed = 11;
      range = 150.0;
      topology = Scenario.Grid { cols = 3; spacing = 100.0 };
    }
  in
  let probe = Scenario.create base in
  let victim = Scenario.address_of probe 3 in
  let adversaries = [ (4, Adversary.impersonator victim); (3, Adversary.sleeper) ] in
  let run ~verify_at_destination =
    let params =
      {
        base with
        adversaries;
        secure_config =
          { base.Scenario.secure_config with verify_at_destination };
      }
    in
    let s = Scenario.create params in
    let got = ref None in
    Scenario.discover s ~src:1 ~dst:7 (fun r -> got := Some r);
    Scenario.run s ~until:20.0;
    match (Scenario.node s 1).Scenario.routing with
    | Scenario.Secure_agent agent ->
        List.exists
          (List.exists (Address.equal victim))
          (Manetsec.Secure_routing.cached_routes agent ~dst:(Scenario.address_of s 7))
    | _ -> Alcotest.fail "expected secure agent"
  in
  Alcotest.(check bool) "full protocol rejects" false (run ~verify_at_destination:true);
  Alcotest.(check bool) "BSAR-style accepts the poison" true
    (run ~verify_at_destination:false)

let suites =
  [
    ( "proto.codec",
      [
        Alcotest.test_case "primitives" `Quick test_codec_primitives;
        Alcotest.test_case "domain separation" `Quick test_codec_domain_separation;
        Alcotest.test_case "field sensitivity" `Quick test_codec_field_sensitivity;
        prop_route_injective;
      ] );
    ( "proto.wire",
      [
        Alcotest.test_case "monotone in route length" `Quick test_wire_monotone_in_route_length;
        Alcotest.test_case "srr per-hop cost" `Quick test_wire_rreq_srr_cost;
        Alcotest.test_case "crypto fields scale" `Quick test_wire_crypto_fields_scale;
        Alcotest.test_case "matches binary codec" `Quick test_wire_matches_binary_codec;
        Alcotest.test_case "all messages sized" `Quick test_wire_all_messages_positive;
        Alcotest.test_case "counter keys" `Quick test_messages_counter_keys;
        Alcotest.test_case "with_remaining" `Quick test_messages_with_remaining;
        Alcotest.test_case "add_to_buffer pinned details" `Quick test_add_to_buffer_pinned;
        prop_add_to_buffer_matches_oracle;
      ] );
    ( "proto.directory",
      [
        Alcotest.test_case "basics" `Quick test_directory_basics;
        Alcotest.test_case "addresses_of" `Quick test_directory_addresses_of;
      ] );
    ( "proto.identity",
      [
        Alcotest.test_case "cga binding" `Quick test_identity_cga_binding;
        Alcotest.test_case "sign roundtrip" `Quick test_identity_sign_roundtrip;
        Alcotest.test_case "sign memo reset" `Quick test_sign_memo_reset;
        prop_sign_memo_mock;
        prop_sign_memo_rsa;
      ] );
    ( "proto.node_ctx",
      [
        Alcotest.test_case "send along and deliver" `Quick test_ctx_send_along_and_deliver;
        Alcotest.test_case "unresolvable next hop" `Quick test_ctx_send_along_unresolvable;
        Alcotest.test_case "empty path rejected" `Quick test_ctx_empty_path_rejected;
        Alcotest.test_case "byte accounting" `Quick test_ctx_byte_accounting;
        Alcotest.test_case "send details: trace ring" `Quick test_send_details_trace_ring;
        Alcotest.test_case "send details: capture" `Quick test_send_details_capture;
        Alcotest.test_case "send details: sinks off" `Quick test_send_details_sinks_off;
        prop_counter_keys_match_model;
        Alcotest.test_case "stat allocation budget" `Quick test_stat_allocation_budget;
        Alcotest.test_case "address text memo" `Quick test_address_text_memo;
        prop_address_text_memo;
      ] );
    ( "secure.ablation",
      [
        Alcotest.test_case "bsar-style misses impersonation" `Quick
          test_bsar_ablation_misses_impersonation;
      ] );
  ]
