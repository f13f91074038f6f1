module Address = Manet_ipv6.Address
module M = Messages

(* --- encoding ----------------------------------------------------------- *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

(* The one u16 range check, shared by [encode] and [encoded_size] so
   both reject an over-long field with the same exception. *)
let u16_checked v =
  if v < 0 || v > 0xFFFF then invalid_arg "Binary: u16 out of range";
  v

let put_u16 buf v =
  let v = u16_checked v in
  put_u8 buf (v lsr 8);
  put_u8 buf v

let put_u32 buf v =
  for i = 3 downto 0 do
    put_u8 buf ((v lsr (i * 8)) land 0xFF)
  done

let put_u64 buf v =
  for i = 7 downto 0 do
    put_u8 buf (Int64.to_int (Int64.shift_right_logical v (i * 8)) land 0xFF)
  done

let put_addr buf a = Buffer.add_string buf (Address.to_bytes a)

let put_string buf s =
  put_u16 buf (String.length s);
  Buffer.add_string buf s

let put_opt_string buf = function
  | None -> put_u8 buf 0
  | Some s ->
      put_u8 buf 1;
      put_string buf s

let put_opt_addr buf = function
  | None -> put_u8 buf 0
  | Some a ->
      put_u8 buf 1;
      put_addr buf a

let put_route buf route =
  put_u16 buf (List.length route);
  List.iter (put_addr buf) route

let put_bool buf b = put_u8 buf (if b then 1 else 0)
let put_float buf f = put_u64 buf (Int64.bits_of_float f)

let put_srr buf srr =
  put_u16 buf (List.length srr);
  List.iter
    (fun e ->
      put_addr buf e.M.ip;
      put_string buf e.M.sig_;
      put_string buf e.M.pk;
      put_u64 buf e.M.rn)
    srr

let encode msg =
  let buf = Buffer.create 128 in
  (match msg with
  | M.Areq { sip; seq; dn; ch; rr } ->
      put_u8 buf 1;
      put_addr buf sip;
      put_u32 buf seq;
      put_opt_string buf dn;
      put_u64 buf ch;
      put_route buf rr
  | M.Arep { sip; rr; remaining; sig_; pk; rn } ->
      put_u8 buf 2;
      put_addr buf sip;
      put_route buf rr;
      put_route buf remaining;
      put_string buf sig_;
      put_string buf pk;
      put_u64 buf rn
  | M.Drep { sip; dn; rr; remaining; sig_ } ->
      put_u8 buf 3;
      put_addr buf sip;
      put_string buf dn;
      put_route buf rr;
      put_route buf remaining;
      put_string buf sig_
  | M.Rreq { sip; dip; seq; srr; sig_; spk; srn } ->
      put_u8 buf 4;
      put_addr buf sip;
      put_addr buf dip;
      put_u32 buf seq;
      put_srr buf srr;
      put_string buf sig_;
      put_string buf spk;
      put_u64 buf srn
  | M.Rrep { sip; dip; rr; remaining; sig_; dpk; drn } ->
      put_u8 buf 5;
      put_addr buf sip;
      put_addr buf dip;
      put_route buf rr;
      put_route buf remaining;
      put_string buf sig_;
      put_string buf dpk;
      put_u64 buf drn
  | M.Crep
      {
        requester;
        cacher;
        dip;
        requester_seq;
        cacher_seq;
        rr_to_cacher;
        rr_to_dest;
        remaining;
        sig_cacher;
        cacher_pk;
        cacher_rn;
        sig_dest;
        dest_pk;
        dest_rn;
      } ->
      put_u8 buf 6;
      put_addr buf requester;
      put_addr buf cacher;
      put_addr buf dip;
      put_u32 buf requester_seq;
      put_u32 buf cacher_seq;
      put_route buf rr_to_cacher;
      put_route buf rr_to_dest;
      put_route buf remaining;
      put_string buf sig_cacher;
      put_string buf cacher_pk;
      put_u64 buf cacher_rn;
      put_string buf sig_dest;
      put_string buf dest_pk;
      put_u64 buf dest_rn
  | M.Rerr { reporter; broken_next; dst; remaining; sig_; pk; rn } ->
      put_u8 buf 7;
      put_addr buf reporter;
      put_addr buf broken_next;
      put_addr buf dst;
      put_route buf remaining;
      put_string buf sig_;
      put_string buf pk;
      put_u64 buf rn
  | M.Data { src; dst; seq; route; remaining; payload_size; sent_at } ->
      put_u8 buf 8;
      put_addr buf src;
      put_addr buf dst;
      put_u32 buf seq;
      put_route buf route;
      put_route buf remaining;
      put_u32 buf payload_size;
      put_float buf sent_at
  | M.Ack { src; dst; data_seq; route; remaining; sent_at } ->
      put_u8 buf 9;
      put_addr buf src;
      put_addr buf dst;
      put_u32 buf data_seq;
      put_route buf route;
      put_route buf remaining;
      put_float buf sent_at
  | M.Probe { origin; target; seq; route; remaining } ->
      put_u8 buf 10;
      put_addr buf origin;
      put_addr buf target;
      put_u32 buf seq;
      put_route buf route;
      put_route buf remaining
  | M.Probe_reply { responder; origin; seq; remaining; sig_; pk; rn } ->
      put_u8 buf 11;
      put_addr buf responder;
      put_addr buf origin;
      put_u32 buf seq;
      put_route buf remaining;
      put_string buf sig_;
      put_string buf pk;
      put_u64 buf rn
  | M.Name_query { requester; name; ch; route; remaining } ->
      put_u8 buf 12;
      put_addr buf requester;
      put_string buf name;
      put_u64 buf ch;
      put_route buf route;
      put_route buf remaining
  | M.Name_reply { requester; name; result; ch; remaining; sig_ } ->
      put_u8 buf 13;
      put_addr buf requester;
      put_string buf name;
      put_opt_addr buf result;
      put_u64 buf ch;
      put_route buf remaining;
      put_string buf sig_
  | M.Ip_change_request { old_ip; new_ip; route; remaining } ->
      put_u8 buf 14;
      put_addr buf old_ip;
      put_addr buf new_ip;
      put_route buf route;
      put_route buf remaining
  | M.Ip_change_challenge { old_ip; new_ip; ch; remaining } ->
      put_u8 buf 15;
      put_addr buf old_ip;
      put_addr buf new_ip;
      put_u64 buf ch;
      put_route buf remaining
  | M.Ip_change_proof { old_ip; new_ip; old_rn; new_rn; pk; sig_; route; remaining }
    ->
      put_u8 buf 16;
      put_addr buf old_ip;
      put_addr buf new_ip;
      put_u64 buf old_rn;
      put_u64 buf new_rn;
      put_string buf pk;
      put_string buf sig_;
      put_route buf route;
      put_route buf remaining
  | M.Ip_change_ack { old_ip; new_ip; accepted; remaining } ->
      put_u8 buf 17;
      put_addr buf old_ip;
      put_addr buf new_ip;
      put_bool buf accepted;
      put_route buf remaining);
  Buffer.contents buf

(* --- encoded size -------------------------------------------------------- *)

(* [String.length (encode msg)], summed from field lengths without
   building the encoding.  Each helper mirrors its [put_*] twin above
   and runs the same [u16_checked] on length and count prefixes. *)

let addr_bytes = 16

let string_size s = 2 + u16_checked (String.length s)
let opt_string_size = function None -> 1 | Some s -> 1 + string_size s
let opt_addr_size = function None -> 1 | Some _ -> 1 + addr_bytes

let rec count n = function [] -> n | _ :: tl -> count (n + 1) tl

let route_size route = 2 + (addr_bytes * u16_checked (count 0 route))

let rec srr_entries_size acc = function
  | [] -> acc
  | e :: tl ->
      srr_entries_size
        (acc + addr_bytes + string_size e.M.sig_ + string_size e.M.pk + 8)
        tl

let srr_size srr =
  ignore (u16_checked (count 0 srr));
  srr_entries_size 2 srr

let tag_byte = 1

let encoded_size msg =
  tag_byte
  +
  match msg with
  | M.Areq m -> addr_bytes + 4 + opt_string_size m.dn + 8 + route_size m.rr
  | M.Arep m ->
      addr_bytes + route_size m.rr + route_size m.remaining
      + string_size m.sig_ + string_size m.pk + 8
  | M.Drep m ->
      addr_bytes + string_size m.dn + route_size m.rr
      + route_size m.remaining + string_size m.sig_
  | M.Rreq m ->
      (2 * addr_bytes) + 4 + srr_size m.srr + string_size m.sig_
      + string_size m.spk + 8
  | M.Rrep m ->
      (2 * addr_bytes) + route_size m.rr + route_size m.remaining
      + string_size m.sig_ + string_size m.dpk + 8
  | M.Crep m ->
      (3 * addr_bytes) + 4 + 4 + route_size m.rr_to_cacher
      + route_size m.rr_to_dest + route_size m.remaining
      + string_size m.sig_cacher + string_size m.cacher_pk + 8
      + string_size m.sig_dest + string_size m.dest_pk + 8
  | M.Rerr m ->
      (3 * addr_bytes) + route_size m.remaining + string_size m.sig_
      + string_size m.pk + 8
  | M.Data m ->
      (2 * addr_bytes) + 4 + route_size m.route + route_size m.remaining + 4 + 8
  | M.Ack m ->
      (2 * addr_bytes) + 4 + route_size m.route + route_size m.remaining + 8
  | M.Probe m ->
      (2 * addr_bytes) + 4 + route_size m.route + route_size m.remaining
  | M.Probe_reply m ->
      (2 * addr_bytes) + 4 + route_size m.remaining + string_size m.sig_
      + string_size m.pk + 8
  | M.Name_query m ->
      addr_bytes + string_size m.name + 8 + route_size m.route
      + route_size m.remaining
  | M.Name_reply m ->
      addr_bytes + string_size m.name + opt_addr_size m.result + 8
      + route_size m.remaining + string_size m.sig_
  | M.Ip_change_request m ->
      (2 * addr_bytes) + route_size m.route + route_size m.remaining
  | M.Ip_change_challenge m -> (2 * addr_bytes) + 8 + route_size m.remaining
  | M.Ip_change_proof m ->
      (2 * addr_bytes) + 8 + 8 + string_size m.pk + string_size m.sig_
      + route_size m.route + route_size m.remaining
  | M.Ip_change_ack m -> (2 * addr_bytes) + 1 + route_size m.remaining

(* --- decoding ------------------------------------------------------------ *)

exception Bad of string

type reader = { data : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.data then
    raise (Bad (Printf.sprintf "truncated at byte %d (need %d)" r.pos n))

let get_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u16 r =
  let hi = get_u8 r in
  let lo = get_u8 r in
  (hi lsl 8) lor lo

let get_u32 r =
  let v = ref 0 in
  for _ = 1 to 4 do
    v := (!v lsl 8) lor get_u8 r
  done;
  !v

let get_u64 r =
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 r))
  done;
  !v

let get_bytes r n =
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let get_addr r = Address.of_bytes (get_bytes r 16)

let get_string r =
  let n = get_u16 r in
  get_bytes r n

let get_opt_string r =
  match get_u8 r with
  | 0 -> None
  | 1 -> Some (get_string r)
  | v -> raise (Bad (Printf.sprintf "bad option byte %d" v))

let get_opt_addr r =
  match get_u8 r with
  | 0 -> None
  | 1 -> Some (get_addr r)
  | v -> raise (Bad (Printf.sprintf "bad option byte %d" v))

let get_bool r =
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> raise (Bad (Printf.sprintf "bad bool byte %d" v))

let get_float r = Int64.float_of_bits (get_u64 r)

let max_list = 4096

let get_route r =
  let n = get_u16 r in
  if n > max_list then raise (Bad "route too long");
  List.init n (fun _ -> get_addr r)

let get_srr r =
  let n = get_u16 r in
  if n > max_list then raise (Bad "srr too long");
  List.init n (fun _ ->
      let ip = get_addr r in
      let sig_ = get_string r in
      let pk = get_string r in
      let rn = get_u64 r in
      { M.ip; sig_; pk; rn })

let decode_body r =
  match get_u8 r with
  | 1 ->
      let sip = get_addr r in
      let seq = get_u32 r in
      let dn = get_opt_string r in
      let ch = get_u64 r in
      let rr = get_route r in
      M.Areq { sip; seq; dn; ch; rr }
  | 2 ->
      let sip = get_addr r in
      let rr = get_route r in
      let remaining = get_route r in
      let sig_ = get_string r in
      let pk = get_string r in
      let rn = get_u64 r in
      M.Arep { sip; rr; remaining; sig_; pk; rn }
  | 3 ->
      let sip = get_addr r in
      let dn = get_string r in
      let rr = get_route r in
      let remaining = get_route r in
      let sig_ = get_string r in
      M.Drep { sip; dn; rr; remaining; sig_ }
  | 4 ->
      let sip = get_addr r in
      let dip = get_addr r in
      let seq = get_u32 r in
      let srr = get_srr r in
      let sig_ = get_string r in
      let spk = get_string r in
      let srn = get_u64 r in
      M.Rreq { sip; dip; seq; srr; sig_; spk; srn }
  | 5 ->
      let sip = get_addr r in
      let dip = get_addr r in
      let rr = get_route r in
      let remaining = get_route r in
      let sig_ = get_string r in
      let dpk = get_string r in
      let drn = get_u64 r in
      M.Rrep { sip; dip; rr; remaining; sig_; dpk; drn }
  | 6 ->
      let requester = get_addr r in
      let cacher = get_addr r in
      let dip = get_addr r in
      let requester_seq = get_u32 r in
      let cacher_seq = get_u32 r in
      let rr_to_cacher = get_route r in
      let rr_to_dest = get_route r in
      let remaining = get_route r in
      let sig_cacher = get_string r in
      let cacher_pk = get_string r in
      let cacher_rn = get_u64 r in
      let sig_dest = get_string r in
      let dest_pk = get_string r in
      let dest_rn = get_u64 r in
      M.Crep
        {
          requester;
          cacher;
          dip;
          requester_seq;
          cacher_seq;
          rr_to_cacher;
          rr_to_dest;
          remaining;
          sig_cacher;
          cacher_pk;
          cacher_rn;
          sig_dest;
          dest_pk;
          dest_rn;
        }
  | 7 ->
      let reporter = get_addr r in
      let broken_next = get_addr r in
      let dst = get_addr r in
      let remaining = get_route r in
      let sig_ = get_string r in
      let pk = get_string r in
      let rn = get_u64 r in
      M.Rerr { reporter; broken_next; dst; remaining; sig_; pk; rn }
  | 8 ->
      let src = get_addr r in
      let dst = get_addr r in
      let seq = get_u32 r in
      let route = get_route r in
      let remaining = get_route r in
      let payload_size = get_u32 r in
      let sent_at = get_float r in
      M.Data { src; dst; seq; route; remaining; payload_size; sent_at }
  | 9 ->
      let src = get_addr r in
      let dst = get_addr r in
      let data_seq = get_u32 r in
      let route = get_route r in
      let remaining = get_route r in
      let sent_at = get_float r in
      M.Ack { src; dst; data_seq; route; remaining; sent_at }
  | 10 ->
      let origin = get_addr r in
      let target = get_addr r in
      let seq = get_u32 r in
      let route = get_route r in
      let remaining = get_route r in
      M.Probe { origin; target; seq; route; remaining }
  | 11 ->
      let responder = get_addr r in
      let origin = get_addr r in
      let seq = get_u32 r in
      let remaining = get_route r in
      let sig_ = get_string r in
      let pk = get_string r in
      let rn = get_u64 r in
      M.Probe_reply { responder; origin; seq; remaining; sig_; pk; rn }
  | 12 ->
      let requester = get_addr r in
      let name = get_string r in
      let ch = get_u64 r in
      let route = get_route r in
      let remaining = get_route r in
      M.Name_query { requester; name; ch; route; remaining }
  | 13 ->
      let requester = get_addr r in
      let name = get_string r in
      let result = get_opt_addr r in
      let ch = get_u64 r in
      let remaining = get_route r in
      let sig_ = get_string r in
      M.Name_reply { requester; name; result; ch; remaining; sig_ }
  | 14 ->
      let old_ip = get_addr r in
      let new_ip = get_addr r in
      let route = get_route r in
      let remaining = get_route r in
      M.Ip_change_request { old_ip; new_ip; route; remaining }
  | 15 ->
      let old_ip = get_addr r in
      let new_ip = get_addr r in
      let ch = get_u64 r in
      let remaining = get_route r in
      M.Ip_change_challenge { old_ip; new_ip; ch; remaining }
  | 16 ->
      let old_ip = get_addr r in
      let new_ip = get_addr r in
      let old_rn = get_u64 r in
      let new_rn = get_u64 r in
      let pk = get_string r in
      let sig_ = get_string r in
      let route = get_route r in
      let remaining = get_route r in
      M.Ip_change_proof { old_ip; new_ip; old_rn; new_rn; pk; sig_; route; remaining }
  | 17 ->
      let old_ip = get_addr r in
      let new_ip = get_addr r in
      let accepted = get_bool r in
      let remaining = get_route r in
      M.Ip_change_ack { old_ip; new_ip; accepted; remaining }
  | tag -> raise (Bad (Printf.sprintf "unknown message tag %d" tag))

let decode data =
  let r = { data; pos = 0 } in
  match decode_body r with
  | msg ->
      if r.pos <> String.length data then
        Error (Printf.sprintf "%d trailing bytes" (String.length data - r.pos))
      else Ok msg
  | exception Bad reason -> Error reason

(* --- structural equality --------------------------------------------------- *)

let equal_route a b = List.length a = List.length b && List.for_all2 Address.equal a b

let equal_srr a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         Address.equal x.M.ip y.M.ip
         && String.equal x.M.sig_ y.M.sig_
         && String.equal x.M.pk y.M.pk
         && Int64.equal x.M.rn y.M.rn)
       a b

let equal_message (a : M.t) (b : M.t) =
  match (a, b) with
  | M.Areq x, M.Areq y ->
      Address.equal x.sip y.sip && x.seq = y.seq && x.dn = y.dn
      && Int64.equal x.ch y.ch && equal_route x.rr y.rr
  | M.Arep x, M.Arep y ->
      Address.equal x.sip y.sip && equal_route x.rr y.rr
      && equal_route x.remaining y.remaining
      && String.equal x.sig_ y.sig_ && String.equal x.pk y.pk
      && Int64.equal x.rn y.rn
  | M.Drep x, M.Drep y ->
      Address.equal x.sip y.sip && String.equal x.dn y.dn
      && equal_route x.rr y.rr
      && equal_route x.remaining y.remaining
      && String.equal x.sig_ y.sig_
  | M.Rreq x, M.Rreq y ->
      Address.equal x.sip y.sip && Address.equal x.dip y.dip && x.seq = y.seq
      && equal_srr x.srr y.srr && String.equal x.sig_ y.sig_
      && String.equal x.spk y.spk && Int64.equal x.srn y.srn
  | M.Rrep x, M.Rrep y ->
      Address.equal x.sip y.sip && Address.equal x.dip y.dip
      && equal_route x.rr y.rr
      && equal_route x.remaining y.remaining
      && String.equal x.sig_ y.sig_ && String.equal x.dpk y.dpk
      && Int64.equal x.drn y.drn
  | M.Crep x, M.Crep y ->
      Address.equal x.requester y.requester && Address.equal x.cacher y.cacher
      && Address.equal x.dip y.dip && x.requester_seq = y.requester_seq
      && x.cacher_seq = y.cacher_seq
      && equal_route x.rr_to_cacher y.rr_to_cacher
      && equal_route x.rr_to_dest y.rr_to_dest
      && equal_route x.remaining y.remaining
      && String.equal x.sig_cacher y.sig_cacher
      && String.equal x.cacher_pk y.cacher_pk
      && Int64.equal x.cacher_rn y.cacher_rn
      && String.equal x.sig_dest y.sig_dest
      && String.equal x.dest_pk y.dest_pk
      && Int64.equal x.dest_rn y.dest_rn
  | M.Rerr x, M.Rerr y ->
      Address.equal x.reporter y.reporter
      && Address.equal x.broken_next y.broken_next
      && Address.equal x.dst y.dst
      && equal_route x.remaining y.remaining
      && String.equal x.sig_ y.sig_ && String.equal x.pk y.pk
      && Int64.equal x.rn y.rn
  | M.Data x, M.Data y ->
      Address.equal x.src y.src && Address.equal x.dst y.dst && x.seq = y.seq
      && equal_route x.route y.route
      && equal_route x.remaining y.remaining
      && x.payload_size = y.payload_size && x.sent_at = y.sent_at
  | M.Ack x, M.Ack y ->
      Address.equal x.src y.src && Address.equal x.dst y.dst
      && x.data_seq = y.data_seq
      && equal_route x.route y.route
      && equal_route x.remaining y.remaining
      && x.sent_at = y.sent_at
  | M.Probe x, M.Probe y ->
      Address.equal x.origin y.origin && Address.equal x.target y.target
      && x.seq = y.seq
      && equal_route x.route y.route
      && equal_route x.remaining y.remaining
  | M.Probe_reply x, M.Probe_reply y ->
      Address.equal x.responder y.responder && Address.equal x.origin y.origin
      && x.seq = y.seq
      && equal_route x.remaining y.remaining
      && String.equal x.sig_ y.sig_ && String.equal x.pk y.pk
      && Int64.equal x.rn y.rn
  | M.Name_query x, M.Name_query y ->
      Address.equal x.requester y.requester && String.equal x.name y.name
      && Int64.equal x.ch y.ch
      && equal_route x.route y.route
      && equal_route x.remaining y.remaining
  | M.Name_reply x, M.Name_reply y ->
      Address.equal x.requester y.requester && String.equal x.name y.name
      && Option.equal Address.equal x.result y.result
      && Int64.equal x.ch y.ch
      && equal_route x.remaining y.remaining
      && String.equal x.sig_ y.sig_
  | M.Ip_change_request x, M.Ip_change_request y ->
      Address.equal x.old_ip y.old_ip && Address.equal x.new_ip y.new_ip
      && equal_route x.route y.route
      && equal_route x.remaining y.remaining
  | M.Ip_change_challenge x, M.Ip_change_challenge y ->
      Address.equal x.old_ip y.old_ip && Address.equal x.new_ip y.new_ip
      && Int64.equal x.ch y.ch
      && equal_route x.remaining y.remaining
  | M.Ip_change_proof x, M.Ip_change_proof y ->
      Address.equal x.old_ip y.old_ip && Address.equal x.new_ip y.new_ip
      && Int64.equal x.old_rn y.old_rn && Int64.equal x.new_rn y.new_rn
      && String.equal x.pk y.pk && String.equal x.sig_ y.sig_
      && equal_route x.route y.route
      && equal_route x.remaining y.remaining
  | M.Ip_change_ack x, M.Ip_change_ack y ->
      Address.equal x.old_ip y.old_ip && Address.equal x.new_ip y.new_ip
      && x.accepted = y.accepted
      && equal_route x.remaining y.remaining
  | _ -> false

module Oracle = struct
  let encode = encode
  let decode = decode
  let equal_message = equal_message
end
