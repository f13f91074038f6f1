(* manetcheck: allow-file hot-alloc — messages are immutable values, so
   [with_remaining] builds the forwarded copy of a source-routed message
   on every send; that copy is the transmission itself.  Everything else
   this file puts on the send path returns constants. *)

module Address = Manet_ipv6.Address
module Stats = Manet_sim.Stats
module Json = Manet_obs.Json

type srr_entry = { ip : Address.t; sig_ : string; pk : string; rn : int64 }

type aodv =
  | Aodv_rreq of {
      origin : Address.t;
      origin_seq : int;
      bcast_id : int;
      dst : Address.t;
      dst_seq_known : int;
      hop_count : int;
      sig_ : string;
      spk : string;
      srn : int64;
      hash : string;
      top_hash : string;
      max_hops : int;
    }
  | Aodv_rrep of {
      requester : Address.t;
      dst : Address.t;
      dst_seq : int;
      hop_count : int;
      sig_ : string;
      dpk : string;
      drn : int64;
      hash : string;
      top_hash : string;
      max_hops : int;
    }
  | Aodv_rerr of { unreachable : (Address.t * int) list }
  | Aodv_data of {
      src : Address.t;
      dst : Address.t;
      seq : int;
      payload_size : int;
      sent_at : float;
    }
  | Aodv_ack of { src : Address.t; dst : Address.t; data_seq : int; sent_at : float }

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
  | Aodv of aodv

(* Per-constructor constants: the tag and the transmission counters'
   keys, made once so a send bumps its counters without building or
   hashing a string. *)
type kind = { tag : string; tx : Stats.key; txbytes : Stats.key }

let kind tag =
  { tag; tx = Stats.key ("tx." ^ tag); txbytes = Stats.key ("txbytes." ^ tag) }

let k_areq = kind "areq"
let k_arep = kind "arep"
let k_drep = kind "drep"
let k_rreq = kind "rreq"
let k_rrep = kind "rrep"
let k_crep = kind "crep"
let k_rerr = kind "rerr"
let k_data = kind "data"
let k_ack = kind "ack"
let k_probe = kind "probe"
let k_probe_reply = kind "probe_reply"
let k_name_query = kind "name_query"
let k_name_reply = kind "name_reply"
let k_ip_change_request = kind "ip_change_request"
let k_ip_change_challenge = kind "ip_change_challenge"
let k_ip_change_proof = kind "ip_change_proof"
let k_ip_change_ack = kind "ip_change_ack"
let k_aodv_rreq = kind "aodv_rreq"
let k_aodv_rrep = kind "aodv_rrep"
let k_aodv_rerr = kind "aodv_rerr"

let kind_of = function
  | Areq _ -> k_areq
  | Arep _ -> k_arep
  | Drep _ -> k_drep
  | Rreq _ -> k_rreq
  | Rrep _ -> k_rrep
  | Crep _ -> k_crep
  | Rerr _ -> k_rerr
  | Data _ -> k_data
  | Ack _ -> k_ack
  | Probe _ -> k_probe
  | Probe_reply _ -> k_probe_reply
  | Name_query _ -> k_name_query
  | Name_reply _ -> k_name_reply
  | Ip_change_request _ -> k_ip_change_request
  | Ip_change_challenge _ -> k_ip_change_challenge
  | Ip_change_proof _ -> k_ip_change_proof
  | Ip_change_ack _ -> k_ip_change_ack
  | Aodv (Aodv_rreq _) -> k_aodv_rreq
  | Aodv (Aodv_rrep _) -> k_aodv_rrep
  | Aodv (Aodv_rerr _) -> k_aodv_rerr
  (* AODV data and acks count with the source-routed ones, so the
     control-traffic readers leave them out alike. *)
  | Aodv (Aodv_data _) -> k_data
  | Aodv (Aodv_ack _) -> k_ack

let tag m = (kind_of m).tag
let tx_key m = (kind_of m).tx
let txbytes_key m = (kind_of m).txbytes

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
  | Aodv _ -> None

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
  | Aodv _ -> msg

(* --- rendering ---------------------------------------------------------

   The one text renderer for messages: trace and capture details and
   [pp] all go through it.  Each helper appends a field label and its
   value; every constructor closes with ')'.  Addresses go through the
   caller's writer [addr]. *)

let add_addr addr buf label a =
  Buffer.add_string buf label;
  addr buf a

let add_int buf label n =
  Buffer.add_string buf label;
  Json.add_int buf n

let add_str buf label s =
  Buffer.add_string buf label;
  Buffer.add_string buf s

let rec add_hops addr buf = function
  | [] -> ()
  | a :: rest ->
      Buffer.add_char buf ';';
      addr buf a;
      add_hops addr buf rest

(* [a;b;c] *)
let add_route addr buf label route =
  Buffer.add_string buf label;
  Buffer.add_char buf '[';
  (match route with
  | [] -> ()
  | a :: rest ->
      addr buf a;
      add_hops addr buf rest);
  Buffer.add_char buf ']'

let add_to_buffer addr buf msg =
  (match msg with
  | Areq m ->
      add_addr addr buf "AREQ(sip=" m.sip;
      add_int buf ", seq=" m.seq;
      add_str buf ", dn=" (Option.value ~default:"-" m.dn);
      add_route addr buf ", rr=" m.rr
  | Arep m ->
      add_addr addr buf "AREP(sip=" m.sip;
      add_route addr buf ", rr=" m.rr
  | Drep m ->
      add_addr addr buf "DREP(sip=" m.sip;
      add_str buf ", dn=" m.dn
  | Rreq m ->
      add_addr addr buf "RREQ(sip=" m.sip;
      add_addr addr buf ", dip=" m.dip;
      add_int buf ", seq=" m.seq;
      add_int buf ", hops=" (List.length m.srr)
  | Rrep m ->
      add_addr addr buf "RREP(sip=" m.sip;
      add_addr addr buf ", dip=" m.dip;
      add_route addr buf ", rr=" m.rr
  | Crep m ->
      add_addr addr buf "CREP(req=" m.requester;
      add_addr addr buf ", cacher=" m.cacher;
      add_addr addr buf ", dip=" m.dip
  | Rerr m ->
      add_addr addr buf "RERR(reporter=" m.reporter;
      add_addr addr buf ", broken=" m.broken_next;
      add_addr addr buf ", dst=" m.dst
  | Data m ->
      add_addr addr buf "DATA(src=" m.src;
      add_addr addr buf ", dst=" m.dst;
      add_int buf ", seq=" m.seq
  | Ack m ->
      add_addr addr buf "ACK(src=" m.src;
      add_addr addr buf ", dst=" m.dst;
      add_int buf ", seq=" m.data_seq
  | Probe m ->
      add_addr addr buf "PROBE(origin=" m.origin;
      add_addr addr buf ", target=" m.target;
      add_int buf ", seq=" m.seq
  | Probe_reply m ->
      add_addr addr buf "PROBE_REPLY(responder=" m.responder;
      add_int buf ", seq=" m.seq
  | Name_query m -> add_str buf "NAME_QUERY(name=" m.name
  | Name_reply m -> (
      add_str buf "NAME_REPLY(name=" m.name;
      match m.result with
      | Some a -> add_addr addr buf ", result=" a
      | None -> add_str buf ", result=" "-")
  | Ip_change_request m ->
      add_addr addr buf "IP_CHANGE_REQUEST(old=" m.old_ip;
      add_addr addr buf ", new=" m.new_ip
  | Ip_change_challenge m -> add_addr addr buf "IP_CHANGE_CHALLENGE(old=" m.old_ip
  | Ip_change_proof m ->
      add_addr addr buf "IP_CHANGE_PROOF(old=" m.old_ip;
      add_addr addr buf ", new=" m.new_ip
  | Ip_change_ack m -> add_str buf "IP_CHANGE_ACK(accepted=" (Bool.to_string m.accepted)
  | Aodv (Aodv_rreq m) ->
      add_addr addr buf "AODV_RREQ(origin=" m.origin;
      add_addr addr buf ", dst=" m.dst;
      add_int buf ", id=" m.bcast_id;
      add_int buf ", hops=" m.hop_count
  | Aodv (Aodv_rrep m) ->
      add_addr addr buf "AODV_RREP(requester=" m.requester;
      add_addr addr buf ", dst=" m.dst;
      add_int buf ", seq=" m.dst_seq;
      add_int buf ", hops=" m.hop_count
  | Aodv (Aodv_rerr m) ->
      add_route addr buf "AODV_RERR(unreachable=" (List.map fst m.unreachable)
  | Aodv (Aodv_data m) ->
      add_addr addr buf "AODV_DATA(src=" m.src;
      add_addr addr buf ", dst=" m.dst;
      add_int buf ", seq=" m.seq
  | Aodv (Aodv_ack m) ->
      add_addr addr buf "AODV_ACK(src=" m.src;
      add_addr addr buf ", dst=" m.dst;
      add_int buf ", seq=" m.data_seq);
  Buffer.add_char buf ')'
