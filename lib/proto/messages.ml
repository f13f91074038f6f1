(* manetcheck: allow-file hot-alloc — messages are immutable values, so
   [with_remaining] builds the forwarded copy of a source-routed message
   on every send; that copy is the transmission itself.  Everything else
   this file puts on the send path returns constants. *)

module Address = Manet_ipv6.Address

type srr_entry = { ip : Address.t; sig_ : string; pk : string; rn : int64 }

type t =
  | Areq of {
      sip : Address.t;
      seq : int;
      dn : string option;
      ch : int64;
      rr : Address.t list;
    }
  | Arep of {
      sip : Address.t;
      rr : Address.t list;
      remaining : Address.t list;
      sig_ : string;
      pk : string;
      rn : int64;
    }
  | Drep of {
      sip : Address.t;
      dn : string;
      rr : Address.t list;
      remaining : Address.t list;
      sig_ : string;
    }
  | Rreq of {
      sip : Address.t;
      dip : Address.t;
      seq : int;
      srr : srr_entry list;
      sig_ : string;
      spk : string;
      srn : int64;
    }
  | Rrep of {
      sip : Address.t;
      dip : Address.t;
      rr : Address.t list;
      remaining : Address.t list;
      sig_ : string;
      dpk : string;
      drn : int64;
    }
  | Crep of {
      requester : Address.t;
      cacher : Address.t;
      dip : Address.t;
      requester_seq : int;
      cacher_seq : int;
      rr_to_cacher : Address.t list;
      rr_to_dest : Address.t list;
      remaining : Address.t list;
      sig_cacher : string;
      cacher_pk : string;
      cacher_rn : int64;
      sig_dest : string;
      dest_pk : string;
      dest_rn : int64;
    }
  | Rerr of {
      reporter : Address.t;
      broken_next : Address.t;
      dst : Address.t;
      remaining : Address.t list;
      sig_ : string;
      pk : string;
      rn : int64;
    }
  | Data of {
      src : Address.t;
      dst : Address.t;
      seq : int;
      route : Address.t list;
      remaining : Address.t list;
      payload_size : int;
      sent_at : float;
    }
  | Ack of {
      src : Address.t;
      dst : Address.t;
      data_seq : int;
      route : Address.t list;
      remaining : Address.t list;
      sent_at : float;
    }
  | Probe of {
      origin : Address.t;
      target : Address.t;
      seq : int;
      route : Address.t list;
      remaining : Address.t list;
    }
  | Probe_reply of {
      responder : Address.t;
      origin : Address.t;
      seq : int;
      remaining : Address.t list;
      sig_ : string;
      pk : string;
      rn : int64;
    }
  | Name_query of {
      requester : Address.t;
      name : string;
      ch : int64;
      route : Address.t list;  (** intermediates requester to DNS *)
      remaining : Address.t list;
    }
  | Name_reply of {
      requester : Address.t;
      name : string;
      result : Address.t option;
      ch : int64;
      remaining : Address.t list;
      sig_ : string;
    }
  | Ip_change_request of {
      old_ip : Address.t;
      new_ip : Address.t;
      route : Address.t list;  (** intermediates requester to DNS *)
      remaining : Address.t list;
    }
  | Ip_change_challenge of {
      old_ip : Address.t;
      new_ip : Address.t;
      ch : int64;
      remaining : Address.t list;
    }
  | Ip_change_proof of {
      old_ip : Address.t;
      new_ip : Address.t;
      old_rn : int64;
      new_rn : int64;
      pk : string;
      sig_ : string;
      route : Address.t list;
      remaining : Address.t list;
    }
  | Ip_change_ack of {
      old_ip : Address.t;
      new_ip : Address.t;
      accepted : bool;
      remaining : Address.t list;
    }

let tag = function
  | Areq _ -> "areq"
  | Arep _ -> "arep"
  | Drep _ -> "drep"
  | Rreq _ -> "rreq"
  | Rrep _ -> "rrep"
  | Crep _ -> "crep"
  | Rerr _ -> "rerr"
  | Data _ -> "data"
  | Ack _ -> "ack"
  | Probe _ -> "probe"
  | Probe_reply _ -> "probe_reply"
  | Name_query _ -> "name_query"
  | Name_reply _ -> "name_reply"
  | Ip_change_request _ -> "ip_change_request"
  | Ip_change_challenge _ -> "ip_change_challenge"
  | Ip_change_proof _ -> "ip_change_proof"
  | Ip_change_ack _ -> "ip_change_ack"

(* Counter keys, one constant per constructor, so a send bumps its
   counters without building a string. *)
let tx_key = function
  | Areq _ -> "tx.areq"
  | Arep _ -> "tx.arep"
  | Drep _ -> "tx.drep"
  | Rreq _ -> "tx.rreq"
  | Rrep _ -> "tx.rrep"
  | Crep _ -> "tx.crep"
  | Rerr _ -> "tx.rerr"
  | Data _ -> "tx.data"
  | Ack _ -> "tx.ack"
  | Probe _ -> "tx.probe"
  | Probe_reply _ -> "tx.probe_reply"
  | Name_query _ -> "tx.name_query"
  | Name_reply _ -> "tx.name_reply"
  | Ip_change_request _ -> "tx.ip_change_request"
  | Ip_change_challenge _ -> "tx.ip_change_challenge"
  | Ip_change_proof _ -> "tx.ip_change_proof"
  | Ip_change_ack _ -> "tx.ip_change_ack"

let txbytes_key = function
  | Areq _ -> "txbytes.areq"
  | Arep _ -> "txbytes.arep"
  | Drep _ -> "txbytes.drep"
  | Rreq _ -> "txbytes.rreq"
  | Rrep _ -> "txbytes.rrep"
  | Crep _ -> "txbytes.crep"
  | Rerr _ -> "txbytes.rerr"
  | Data _ -> "txbytes.data"
  | Ack _ -> "txbytes.ack"
  | Probe _ -> "txbytes.probe"
  | Probe_reply _ -> "txbytes.probe_reply"
  | Name_query _ -> "txbytes.name_query"
  | Name_reply _ -> "txbytes.name_reply"
  | Ip_change_request _ -> "txbytes.ip_change_request"
  | Ip_change_challenge _ -> "txbytes.ip_change_challenge"
  | Ip_change_proof _ -> "txbytes.ip_change_proof"
  | Ip_change_ack _ -> "txbytes.ip_change_ack"

let remaining = function
  | Areq _ -> None
  | Arep m -> Some m.remaining
  | Drep m -> Some m.remaining
  | Rreq _ -> None
  | Rrep m -> Some m.remaining
  | Crep m -> Some m.remaining
  | Rerr m -> Some m.remaining
  | Data m -> Some m.remaining
  | Ack m -> Some m.remaining
  | Probe m -> Some m.remaining
  | Probe_reply m -> Some m.remaining
  | Name_query m -> Some m.remaining
  | Name_reply m -> Some m.remaining
  | Ip_change_request m -> Some m.remaining
  | Ip_change_challenge m -> Some m.remaining
  | Ip_change_proof m -> Some m.remaining
  | Ip_change_ack m -> Some m.remaining

let with_remaining msg hops =
  match msg with
  | Areq _ -> msg
  | Arep m -> Arep { m with remaining = hops }
  | Drep m -> Drep { m with remaining = hops }
  | Rreq _ -> msg
  | Rrep m -> Rrep { m with remaining = hops }
  | Crep m -> Crep { m with remaining = hops }
  | Rerr m -> Rerr { m with remaining = hops }
  | Data m -> Data { m with remaining = hops }
  | Ack m -> Ack { m with remaining = hops }
  | Probe m -> Probe { m with remaining = hops }
  | Probe_reply m -> Probe_reply { m with remaining = hops }
  | Name_query m -> Name_query { m with remaining = hops }
  | Name_reply m -> Name_reply { m with remaining = hops }
  | Ip_change_request m -> Ip_change_request { m with remaining = hops }
  | Ip_change_challenge m -> Ip_change_challenge { m with remaining = hops }
  | Ip_change_proof m -> Ip_change_proof { m with remaining = hops }
  | Ip_change_ack m -> Ip_change_ack { m with remaining = hops }

(* --- rendering ---------------------------------------------------------

   The one text renderer for messages: trace and capture details and
   [pp] all go through it.  Each helper appends a field label and its
   value; every constructor closes with ')'. *)

let add_addr buf label a =
  Buffer.add_string buf label;
  Address.add_to_buffer buf a

let add_int buf label n =
  Buffer.add_string buf label;
  Buffer.add_string buf (string_of_int n)

let add_str buf label s =
  Buffer.add_string buf label;
  Buffer.add_string buf s

let rec add_hops buf = function
  | [] -> ()
  | a :: rest ->
      Buffer.add_char buf ';';
      Address.add_to_buffer buf a;
      add_hops buf rest

(* [a;b;c] *)
let add_route buf label route =
  Buffer.add_string buf label;
  Buffer.add_char buf '[';
  (match route with
  | [] -> ()
  | a :: rest ->
      Address.add_to_buffer buf a;
      add_hops buf rest);
  Buffer.add_char buf ']'

let add_to_buffer buf msg =
  (match msg with
  | Areq m ->
      add_addr buf "AREQ(sip=" m.sip;
      add_int buf ", seq=" m.seq;
      add_str buf ", dn=" (Option.value ~default:"-" m.dn);
      add_route buf ", rr=" m.rr
  | Arep m ->
      add_addr buf "AREP(sip=" m.sip;
      add_route buf ", rr=" m.rr
  | Drep m ->
      add_addr buf "DREP(sip=" m.sip;
      add_str buf ", dn=" m.dn
  | Rreq m ->
      add_addr buf "RREQ(sip=" m.sip;
      add_addr buf ", dip=" m.dip;
      add_int buf ", seq=" m.seq;
      add_int buf ", hops=" (List.length m.srr)
  | Rrep m ->
      add_addr buf "RREP(sip=" m.sip;
      add_addr buf ", dip=" m.dip;
      add_route buf ", rr=" m.rr
  | Crep m ->
      add_addr buf "CREP(req=" m.requester;
      add_addr buf ", cacher=" m.cacher;
      add_addr buf ", dip=" m.dip
  | Rerr m ->
      add_addr buf "RERR(reporter=" m.reporter;
      add_addr buf ", broken=" m.broken_next;
      add_addr buf ", dst=" m.dst
  | Data m ->
      add_addr buf "DATA(src=" m.src;
      add_addr buf ", dst=" m.dst;
      add_int buf ", seq=" m.seq
  | Ack m ->
      add_addr buf "ACK(src=" m.src;
      add_addr buf ", dst=" m.dst;
      add_int buf ", seq=" m.data_seq
  | Probe m ->
      add_addr buf "PROBE(origin=" m.origin;
      add_addr buf ", target=" m.target;
      add_int buf ", seq=" m.seq
  | Probe_reply m ->
      add_addr buf "PROBE_REPLY(responder=" m.responder;
      add_int buf ", seq=" m.seq
  | Name_query m -> add_str buf "NAME_QUERY(name=" m.name
  | Name_reply m -> (
      add_str buf "NAME_REPLY(name=" m.name;
      match m.result with
      | Some a -> add_addr buf ", result=" a
      | None -> add_str buf ", result=" "-")
  | Ip_change_request m ->
      add_addr buf "IP_CHANGE_REQUEST(old=" m.old_ip;
      add_addr buf ", new=" m.new_ip
  | Ip_change_challenge m -> add_addr buf "IP_CHANGE_CHALLENGE(old=" m.old_ip
  | Ip_change_proof m ->
      add_addr buf "IP_CHANGE_PROOF(old=" m.old_ip;
      add_addr buf ", new=" m.new_ip
  | Ip_change_ack m -> add_str buf "IP_CHANGE_ACK(accepted=" (Bool.to_string m.accepted));
  Buffer.add_char buf ')'

let pp fmt msg =
  let buf = Buffer.create 128 in
  add_to_buffer buf msg;
  Format.pp_print_string fmt (Buffer.contents buf)
