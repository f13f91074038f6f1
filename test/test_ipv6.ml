(* Tests for IPv6 address handling and the Figure 1 CGA scheme. *)

module Prng = Manet_crypto.Prng
module Address = Manet_ipv6.Address
module Cga = Manet_ipv6.Cga

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let addr_testable = Alcotest.testable Address.pp Address.equal

let parse s =
  match Address.of_string s with
  | Ok a -> a
  | Error e -> Alcotest.failf "parse %s: %s" s e

(* ------------------------------------------------------------------ *)
(* Address parsing and printing                                       *)
(* ------------------------------------------------------------------ *)

let test_parse_full_form () =
  let a = parse "fe80:0:0:0:1:2:3:4" in
  Alcotest.(check (array int))
    "groups"
    [| 0xfe80; 0; 0; 0; 1; 2; 3; 4 |]
    (Address.to_groups a)

let test_parse_compressed () =
  List.iter
    (fun (s, groups) ->
      Alcotest.(check (array int)) s groups (Address.to_groups (parse s)))
    [
      ("::", [| 0; 0; 0; 0; 0; 0; 0; 0 |]);
      ("::1", [| 0; 0; 0; 0; 0; 0; 0; 1 |]);
      ("1::", [| 1; 0; 0; 0; 0; 0; 0; 0 |]);
      ("fec0::1:2", [| 0xfec0; 0; 0; 0; 0; 0; 1; 2 |]);
      ("fec0:0:0:ffff::1", [| 0xfec0; 0; 0; 0xffff; 0; 0; 0; 1 |]);
      ("a:b:c:d:e:f::1", [| 0xa; 0xb; 0xc; 0xd; 0xe; 0xf; 0; 1 |]);
    ]

let test_parse_ipv4_mapped () =
  let a = parse "::ffff:192.168.1.2" in
  Alcotest.(check (array int))
    "groups"
    [| 0; 0; 0; 0; 0; 0xffff; 0xc0a8; 0x0102 |]
    (Address.to_groups a)

let test_parse_errors () =
  List.iter
    (fun s ->
      match Address.of_string s with
      | Ok _ -> Alcotest.failf "expected failure for %s" s
      | Error _ -> ())
    [
      "";
      ":::";
      "1::2::3";
      "1:2:3:4:5:6:7";
      "1:2:3:4:5:6:7:8:9";
      "12345::";
      "g::1";
      "1:2:3:4:5:6:7:8::";
      "::256.1.1.1";
      "::1.2.3";
      "1.2.3.4";
    ]

let test_print_canonical () =
  (* RFC 5952: longest zero run compressed, leftmost tie, lowercase. *)
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Address.to_string (parse input)))
    [
      ("0:0:0:0:0:0:0:0", "::");
      ("0:0:0:0:0:0:0:1", "::1");
      ("FEC0:0:0:FFFF:0:0:0:1", "fec0:0:0:ffff::1");
      ("1:0:0:2:0:0:0:3", "1:0:0:2::3");
      ("1:0:0:2:2:0:0:3", "1::2:2:0:0:3");
      ("1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8");
      ("1:0:2:3:4:5:6:7", "1:0:2:3:4:5:6:7");
    ]

let arb_addr =
  QCheck.make
    ~print:(fun a -> Address.to_string a)
    QCheck.Gen.(
      map2
        (fun seed sparse ->
          let g = Prng.create ~seed in
          (* Sparse addresses exercise the '::' compression paths. *)
          let group _ =
            if sparse then if Prng.int g 3 = 0 then Prng.int g 0x10000 else 0
            else Prng.int g 0x10000
          in
          Address.of_groups (Array.init 8 group))
        int bool)

let prop_string_roundtrip =
  qtest "address: of_string (to_string a) = a" arb_addr (fun a ->
      match Address.of_string (Address.to_string a) with
      | Ok b -> Address.equal a b
      | Error _ -> false)

let prop_bytes_roundtrip =
  qtest "address: of_bytes (to_bytes a) = a" arb_addr (fun a ->
      Address.equal a (Address.of_bytes (Address.to_bytes a)))

let prop_groups_roundtrip =
  qtest "address: of_groups (to_groups a) = a" arb_addr (fun a ->
      Address.equal a (Address.of_groups (Address.to_groups a)))

(* The [to_groups]/[Printf]-based [to_string] the Buffer renderer
   replaced, kept verbatim as the oracle: addresses appear in every
   export, so the text must not change by a byte. *)
let ref_to_string a =
  let g = Address.to_groups a in
  let best_start = ref (-1) and best_len = ref 0 in
  let i = ref 0 in
  while !i < 8 do
    if g.(!i) = 0 then begin
      let j = ref !i in
      while !j < 8 && g.(!j) = 0 do incr j done;
      let len = !j - !i in
      if len >= 2 && len > !best_len then begin
        best_start := !i;
        best_len := len
      end;
      i := !j
    end
    else incr i
  done;
  let buf = Buffer.create 39 in
  if !best_start = -1 then begin
    Array.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ':';
        Buffer.add_string buf (Printf.sprintf "%x" v))
      g
  end
  else begin
    for i = 0 to !best_start - 1 do
      if i > 0 then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" g.(i))
    done;
    Buffer.add_string buf "::";
    for i = !best_start + !best_len to 7 do
      if i > !best_start + !best_len then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" g.(i))
    done
  end;
  Buffer.contents buf

let prop_to_string_matches_oracle =
  qtest ~count:1000 "address: to_string matches the Printf oracle" arb_addr (fun a ->
      String.equal (Address.to_string a) (ref_to_string a))

let test_print_edge_cases () =
  List.iter
    (fun (groups, expected) ->
      let a = Address.of_groups groups in
      Alcotest.(check string) expected expected (Address.to_string a);
      Alcotest.(check string) (expected ^ " (oracle)") (ref_to_string a) (Address.to_string a))
    [
      ([| 0; 0; 0; 0; 0; 0; 0; 0 |], "::");
      ([| 0; 0; 0; 0; 0; 0; 0; 1 |], "::1");
      ([| 1; 0; 0; 0; 0; 0; 0; 0 |], "1::");
      (* Two runs of equal length: the leftmost is compressed. *)
      ([| 1; 0; 0; 2; 3; 0; 0; 4 |], "1::2:3:0:0:4");
      (* A lone zero group is never compressed. *)
      ([| 1; 0; 2; 3; 4; 5; 6; 7 |], "1:0:2:3:4:5:6:7");
      ([| 0xffff; 0xabc; 0xde; 0xf; 0x1000; 0x100; 0x10; 0 |],
        "ffff:abc:de:f:1000:100:10:0");
      ([| 1; 2; 3; 4; 5; 6; 0; 0 |], "1:2:3:4:5:6::");
      (* IPv4-mapped addresses print their tail in hex, not dotted-quad. *)
      ([| 0; 0; 0; 0; 0; 0xffff; 0xc0a8; 0x0102 |], "::ffff:c0a8:102");
    ]

let prop_compare_consistent =
  qtest "address: compare consistent with equal"
    QCheck.(pair arb_addr arb_addr)
    (fun (a, b) -> Address.equal a b = (Address.compare a b = 0))

(* Tables key on [Address.t] and some emit in [Address.compare] order
   where they once sorted byte strings: the two orders must agree.  Half
   the pairs share their high half, so the low-half comparison is
   exercised too. *)
let prop_compare_is_byte_order =
  qtest "address: compare has the sign of String.compare on to_bytes"
    QCheck.(triple arb_addr arb_addr bool)
    (fun (a, b, share_hi) ->
      let b = if share_hi then Address.make ~hi:a.Address.hi ~lo:b.Address.lo else b in
      let sign x = Int.compare x 0 in
      sign (Address.compare a b)
      = sign (String.compare (Address.to_bytes a) (Address.to_bytes b)))

(* A flow key is its fields: equal fields share one binding, a key that
   differs only in [seq] or only in the address (either half) gets its
   own. *)
let test_seq_key_identity () =
  let a = parse "fec0::1:0:0:1" and a' = parse "fec0::1:0:0:1" in
  let other_lo = parse "fec0::1:0:0:2" and other_hi = parse "fec1::1:0:0:1" in
  let t = Address.Seq_tbl.create 8 in
  Address.Seq_tbl.replace t { Address.addr = a; seq = 7 } "first";
  Address.Seq_tbl.replace t { Address.addr = a'; seq = 7 } "second";
  Alcotest.(check int) "equal fields share a binding" 1 (Address.Seq_tbl.length t);
  Alcotest.(check (option string)) "the later replace wins" (Some "second")
    (Address.Seq_tbl.find_opt t { Address.addr = a; seq = 7 });
  List.iter
    (fun (what, k) ->
      Alcotest.(check bool) what false (Address.Seq_tbl.mem t k))
    [
      ("seq differs", { Address.addr = a; seq = 8 });
      ("low half differs", { Address.addr = other_lo; seq = 7 });
      ("high half differs", { Address.addr = other_hi; seq = 7 });
    ];
  let u = Address.Tbl.create 8 in
  Address.Tbl.replace u a 1;
  Address.Tbl.replace u a' 2;
  Address.Tbl.replace u other_lo 3;
  Alcotest.(check int) "address table: one binding per address" 2 (Address.Tbl.length u);
  Alcotest.(check (option int)) "address table: equal address" (Some 2)
    (Address.Tbl.find_opt u a)

let test_bytes_layout () =
  let a = parse "0102:0304:0506:0708:090a:0b0c:0d0e:0f10" in
  Alcotest.(check string)
    "network order"
    "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10"
    (Address.to_bytes a)

let test_prefixes () =
  Alcotest.(check bool) "fec0 is site local" true
    (Address.is_site_local (parse "fec0::1"));
  Alcotest.(check bool) "febf is site local (10-bit prefix)" true
    (Address.is_site_local (parse "fecf::1"));
  Alcotest.(check bool) "fe80 is not site local" false
    (Address.is_site_local (parse "fe80::1"));
  Alcotest.(check bool) "2001 is not site local" false
    (Address.is_site_local (parse "2001:db8::1"));
  Alcotest.(check bool) "prefix len 0 matches all" true
    (Address.matches_prefix (parse "1::") ~prefix:(parse "2::") ~len:0);
  Alcotest.(check bool) "full 128 match" true
    (Address.matches_prefix (parse "1::2") ~prefix:(parse "1::2") ~len:128);
  Alcotest.(check bool) "full 128 mismatch" false
    (Address.matches_prefix (parse "1::2") ~prefix:(parse "1::3") ~len:128);
  Alcotest.(check bool) "mismatch beyond 64 detected" false
    (Address.matches_prefix (parse "1::2") ~prefix:(parse "1::3") ~len:128)

let test_dns_constants () =
  Alcotest.(check string) "dns1" "fec0:0:0:ffff::1" (Address.to_string Address.dns_server_1);
  Alcotest.(check string) "dns2" "fec0:0:0:ffff::2" (Address.to_string Address.dns_server_2);
  Alcotest.(check string) "dns3" "fec0:0:0:ffff::3" (Address.to_string Address.dns_server_3);
  Alcotest.(check bool) "dns1 site local" true (Address.is_site_local Address.dns_server_1)

(* ------------------------------------------------------------------ *)
(* CGA                                                                *)
(* ------------------------------------------------------------------ *)

let test_cga_layout () =
  let addr = Cga.generate ~pk_bytes:"some public key" ~rn:42L in
  (* Figure 1: site-local prefix, 38 zero bits, zero subnet ID. *)
  Alcotest.(check bool) "site local" true (Address.is_site_local addr);
  let groups = Address.to_groups addr in
  Alcotest.(check int) "group 0 = fec0" 0xfec0 groups.(0);
  Alcotest.(check int) "group 1 zero" 0 groups.(1);
  Alcotest.(check int) "group 2 zero" 0 groups.(2);
  Alcotest.(check int) "subnet id zero" 0 groups.(3)

let test_cga_deterministic () =
  let a = Cga.generate ~pk_bytes:"pk" ~rn:7L in
  let b = Cga.generate ~pk_bytes:"pk" ~rn:7L in
  Alcotest.check addr_testable "same inputs same address" a b

let test_cga_verify_accepts () =
  let g = Prng.create ~seed:1 in
  for _ = 1 to 50 do
    let pk_bytes = Prng.bytes g 64 in
    let rn, addr = Cga.fresh g ~pk_bytes in
    Alcotest.(check bool) "verifies" true (Cga.verify addr ~pk_bytes ~rn)
  done

let test_cga_verify_rejects_wrong_pk () =
  let addr = Cga.generate ~pk_bytes:"alice" ~rn:1L in
  Alcotest.(check bool) "wrong pk" false (Cga.verify addr ~pk_bytes:"mallory" ~rn:1L)

let test_cga_verify_rejects_wrong_rn () =
  let addr = Cga.generate ~pk_bytes:"alice" ~rn:1L in
  Alcotest.(check bool) "wrong rn" false (Cga.verify addr ~pk_bytes:"alice" ~rn:2L)

let test_cga_verify_rejects_non_site_local () =
  (* The right hash in the wrong prefix must fail: an adversary cannot
     smuggle a CGA outside fec0::/10. *)
  let iid = Cga.interface_id ~pk_bytes:"alice" ~rn:1L in
  let addr = Address.make ~hi:0x2001_0db8_0000_0000L ~lo:iid in
  Alcotest.(check bool) "wrong prefix" false (Cga.verify addr ~pk_bytes:"alice" ~rn:1L)

let test_cga_rn_changes_address () =
  (* The paper's collision-recovery path: a new rn gives a new address
     while the key pair is unchanged. *)
  let a = Cga.generate ~pk_bytes:"pk" ~rn:1L in
  let b = Cga.generate ~pk_bytes:"pk" ~rn:2L in
  Alcotest.(check bool) "different" false (Address.equal a b)

let test_cga_global_prefix () =
  (* Figure 1's gateway note: the subnet ID replaced by a
     gateway-advertised routing prefix, ownership proof unchanged. *)
  let routing_prefix = parse "2001:db8:cafe::" in
  let hi = Cga.global_hi ~routing_prefix ~subnet:0x42 in
  let addr = Cga.generate_under ~hi ~pk_bytes:"alice" ~rn:7L in
  let groups = Address.to_groups addr in
  Alcotest.(check int) "prefix group 0" 0x2001 groups.(0);
  Alcotest.(check int) "prefix group 1" 0x0db8 groups.(1);
  Alcotest.(check int) "prefix group 2" 0xcafe groups.(2);
  Alcotest.(check int) "subnet" 0x42 groups.(3);
  Alcotest.(check bool) "owner verifies" true
    (Cga.verify_under ~hi addr ~pk_bytes:"alice" ~rn:7L);
  Alcotest.(check bool) "impostor fails" false
    (Cga.verify_under ~hi addr ~pk_bytes:"mallory" ~rn:7L);
  (* The site-local verify must not accept the global address. *)
  Alcotest.(check bool) "site-local check distinct" false
    (Cga.verify addr ~pk_bytes:"alice" ~rn:7L);
  Alcotest.check_raises "subnet range"
    (Invalid_argument "Cga.global_hi: subnet") (fun () ->
      ignore (Cga.global_hi ~routing_prefix ~subnet:0x10000))

let prop_cga_no_collisions =
  qtest ~count:1 "cga: no interface-id collisions across 4096 keys"
    QCheck.unit
    (fun () ->
      let g = Prng.create ~seed:12345 in
      let seen = Hashtbl.create 4096 in
      let collision = ref false in
      for _ = 1 to 4096 do
        let pk_bytes = Prng.bytes g 32 in
        let _, addr = Cga.fresh g ~pk_bytes in
        let key = Address.to_bytes addr in
        if Hashtbl.mem seen key then collision := true;
        Hashtbl.replace seen key ()
      done;
      not !collision)

let suites =
  [
    ( "ipv6.address",
      [
        Alcotest.test_case "parse full form" `Quick test_parse_full_form;
        Alcotest.test_case "parse compressed" `Quick test_parse_compressed;
        Alcotest.test_case "parse ipv4 mapped" `Quick test_parse_ipv4_mapped;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "print canonical" `Quick test_print_canonical;
        Alcotest.test_case "print edge cases" `Quick test_print_edge_cases;
        prop_to_string_matches_oracle;
        prop_string_roundtrip;
        prop_bytes_roundtrip;
        prop_groups_roundtrip;
        prop_compare_consistent;
        prop_compare_is_byte_order;
        Alcotest.test_case "seq key identity" `Quick test_seq_key_identity;
        Alcotest.test_case "bytes layout" `Quick test_bytes_layout;
        Alcotest.test_case "prefixes" `Quick test_prefixes;
        Alcotest.test_case "dns constants" `Quick test_dns_constants;
      ] );
    ( "ipv6.cga",
      [
        Alcotest.test_case "figure 1 layout" `Quick test_cga_layout;
        Alcotest.test_case "deterministic" `Quick test_cga_deterministic;
        Alcotest.test_case "verify accepts" `Quick test_cga_verify_accepts;
        Alcotest.test_case "rejects wrong pk" `Quick test_cga_verify_rejects_wrong_pk;
        Alcotest.test_case "rejects wrong rn" `Quick test_cga_verify_rejects_wrong_rn;
        Alcotest.test_case "rejects wrong prefix" `Quick test_cga_verify_rejects_non_site_local;
        Alcotest.test_case "new rn new address" `Quick test_cga_rn_changes_address;
        Alcotest.test_case "global prefix (gateway)" `Quick test_cga_global_prefix;
        prop_cga_no_collisions;
      ] );
  ]
