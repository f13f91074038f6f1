module Address = Manet_ipv6.Address
module Stats = Manet_sim.Stats
module Json = Manet_obs.Json

type srr_entry = {
  ip : Address.t;
  sig_ : string;
  pk : string;
  rn : int64;
}

type areq = {
  sip : Address.t;
  seq : int;
  dn : string option;
  ch : int64;
  rr : Address.t list;
}

type arep = {
  sip : Address.t;
  rr : Address.t list;
  remaining : Address.t list;
  sig_ : string;
  pk : string;
  rn : int64;
}

type drep = {
  sip : Address.t;
  dn : string;
  rr : Address.t list;
  remaining : Address.t list;
  sig_ : string;
}

type rreq = {
  sip : Address.t;
  dip : Address.t;
  seq : int;
  srr : srr_entry list;
  sig_ : string;
  spk : string;
  srn : int64;
}

type rrep = {
  sip : Address.t;
  dip : Address.t;
  rr : Address.t list;
  remaining : Address.t list;
  sig_ : string;
  dpk : string;
  drn : int64;
}

type crep = {
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

type rerr = {
  reporter : Address.t;
  broken_next : Address.t;
  dst : Address.t;
  remaining : Address.t list;
  sig_ : string;
  pk : string;
  rn : int64;
}

type data = {
  src : Address.t;
  dst : Address.t;
  seq : int;
  route : Address.t list;
  remaining : Address.t list;
  payload_size : int;
  sent_at : float;
}

type ack = {
  src : Address.t;
  dst : Address.t;
  data_seq : int;
  route : Address.t list;
  remaining : Address.t list;
  sent_at : float;
}

type probe = {
  origin : Address.t;
  target : Address.t;
  seq : int;
  route : Address.t list;
  remaining : Address.t list;
}

type probe_reply = {
  responder : Address.t;
  origin : Address.t;
  seq : int;
  remaining : Address.t list;
  sig_ : string;
  pk : string;
  rn : int64;
}

type name_query = {
  requester : Address.t;
  name : string;
  ch : int64;
  route : Address.t list;
  remaining : Address.t list;
}

type name_reply = {
  requester : Address.t;
  name : string;
  result : Address.t option;
  ch : int64;
  remaining : Address.t list;
  sig_ : string;
}

type ip_change_request = {
  old_ip : Address.t;
  new_ip : Address.t;
  route : Address.t list;
  remaining : Address.t list;
}

type ip_change_challenge = {
  old_ip : Address.t;
  new_ip : Address.t;
  ch : int64;
  remaining : Address.t list;
}

type ip_change_proof = {
  old_ip : Address.t;
  new_ip : Address.t;
  old_rn : int64;
  new_rn : int64;
  pk : string;
  sig_ : string;
  route : Address.t list;
  remaining : Address.t list;
}

type ip_change_ack = {
  old_ip : Address.t;
  new_ip : Address.t;
  accepted : bool;
  remaining : Address.t list;
}

type aodv_rreq = {
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

type aodv_rrep = {
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

type aodv_rerr = { unreachable : (Address.t * int) list }

type aodv_data = {
  src : Address.t;
  dst : Address.t;
  seq : int;
  payload_size : int;
  sent_at : float;
}

type aodv_ack = {
  src : Address.t;
  dst : Address.t;
  data_seq : int;
  sent_at : float;
}

type aodv =
  | Aodv_rreq of aodv_rreq
  | Aodv_rrep of aodv_rrep
  | Aodv_rerr of aodv_rerr
  | Aodv_data of aodv_data
  | Aodv_ack of aodv_ack

type t =
  | Areq of areq
  | Arep of arep
  | Drep of drep
  | Rreq of rreq
  | Rrep of rrep
  | Crep of crep
  | Rerr of rerr
  | Data of data
  | Ack of ack
  | Probe of probe
  | Probe_reply of probe_reply
  | Name_query of name_query
  | Name_reply of name_reply
  | Ip_change_request of ip_change_request
  | Ip_change_challenge of ip_change_challenge
  | Ip_change_proof of ip_change_proof
  | Ip_change_ack of ip_change_ack
  | Aodv of aodv

(* --- the description ---------------------------------------------------- *)

type _ codec =
  | U8 : int codec
  | U32 : int codec
  | U64 : int64 codec
  | Bool : bool codec
  | Addr : Address.t codec
  | Str : string codec
  | Opt : 'a codec -> 'a option codec
  | List : 'a codec -> 'a list codec
  | Srr : srr_entry codec
  | Addr_u32 : (Address.t * int) codec
  | Sent_at : float codec

let width : type a. a codec -> int = function
  | U8 | Bool -> 1
  | U32 -> 4
  | U64 | Sent_at -> 8
  | Addr -> 16
  | Addr_u32 -> 20
  | Str | Opt _ | List _ | Srr -> 0

type message = t

module Fields = struct
  type ('r, 'k) t =
    | [] : ('r, message) t
    | ( :: ) : (string * 'a codec * ('r -> 'a)) * ('r, 'k) t -> ('r, 'a -> 'k) t
end

type 'r layout = Layout : ('r, 'k) Fields.t * 'k -> 'r layout
type 'r field = Field : { name : string; codec : 'a codec; get : 'r -> 'a } -> 'r field
type kind = { tag : string; tx : Stats.key; txbytes : Stats.key }

type 'r routed = {
  get_remaining : 'r -> Address.t list;
  set_remaining : 'r -> Address.t list -> t;
}

type 'r desc = {
  wire : int;
  kind : kind;
  show : (string * 'r field) list;
  layout : 'r layout;
  fields : 'r field list;
  fixed : int;
  var : 'r field list;
  uncharged : int;
  routed : 'r routed option;
  id : 'r Type.Id.t;
}

type entry = Entry : 'r desc -> entry
type ('x, 'y, 'a) visitor = { run : 'r. 'r desc -> 'r -> 'x -> 'y -> 'a }

let rec field_list : type r k. (r, k) Fields.t -> r field list = function
  | Fields.[] -> []
  | (name, codec, get) :: rest -> Field { name; codec; get } :: field_list rest

let rec remaining_getter : type r k. (r, k) Fields.t -> r -> Address.t list = function
  | Fields.[] -> invalid_arg "Messages: a routed entry has no remaining field"
  | ("remaining", List Addr, get) :: _ -> get
  | _ :: rest -> remaining_getter rest

let field_width (Field f) = width f.codec
let sent_at_width (Field f) = match f.codec with Sent_at -> width Sent_at | _ -> 0

let kind tag = { tag; tx = Stats.key ("tx." ^ tag); txbytes = Stats.key ("txbytes." ^ tag) }

(* The entry of the message [name]: its counter tag unless [counts_as]
   gives another's, and its render label in capitals.  [show] lists the
   summary's (label, field name) pairs; [set_remaining], given for
   source-routed messages, copies the record with new hops. *)
let desc ?counts_as ?set_remaining name ~wire ~show fields make =
  let label = String.uppercase_ascii name in
  let all = field_list fields in
  let named n =
    match List.find_opt (fun (Field f) -> String.equal f.name n) all with
    | Some f -> f
    | None -> invalid_arg ("Messages: no field " ^ n)
  in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 all in
  {
    wire;
    kind = (match counts_as with Some k -> k | None -> kind name);
    show =
      List.mapi
        (fun i (l, n) -> ((if i = 0 then label ^ "(" else ", ") ^ l ^ "=", named n))
        show;
    layout = Layout (fields, make);
    fields = all;
    fixed = 1 + sum field_width;
    var = List.filter (fun f -> field_width f = 0) all;
    uncharged = sum sent_at_width;
    routed =
      Option.map
        (fun set_remaining -> { get_remaining = remaining_getter fields; set_remaining })
        set_remaining;
    id = Type.Id.make ();
  }

let route = List Addr

(* --- the table: one entry per constructor, in wire-tag order ------------- *)

let areq =
  desc "areq" ~wire:1 ~show:[ ("sip", "sip"); ("seq", "seq"); ("dn", "dn"); ("rr", "rr") ]
    (Fields.
       [ ("sip", Addr, fun r -> r.sip); ("seq", U32, fun r -> r.seq);
         ("dn", Opt Str, fun r -> r.dn); ("ch", U64, fun r -> r.ch);
         ("rr", route, fun r -> r.rr) ]
      : (areq, _) Fields.t)
    (fun sip seq dn ch rr -> Areq { sip; seq; dn; ch; rr })

let arep =
  desc "arep" ~wire:2 ~show:[ ("sip", "sip"); ("rr", "rr") ]
    ~set_remaining:(fun r remaining -> Arep { r with remaining })
    (Fields.
       [ ("sip", Addr, fun r -> r.sip); ("rr", route, fun r -> r.rr);
         ("remaining", route, fun r -> r.remaining); ("sig_", Str, fun r -> r.sig_);
         ("pk", Str, fun r -> r.pk); ("rn", U64, fun r -> r.rn) ]
      : (arep, _) Fields.t)
    (fun sip rr remaining sig_ pk rn -> Arep { sip; rr; remaining; sig_; pk; rn })

let drep =
  desc "drep" ~wire:3 ~show:[ ("sip", "sip"); ("dn", "dn") ]
    ~set_remaining:(fun r remaining -> Drep { r with remaining })
    (Fields.
       [ ("sip", Addr, fun r -> r.sip); ("dn", Str, fun r -> r.dn);
         ("rr", route, fun r -> r.rr); ("remaining", route, fun r -> r.remaining);
         ("sig_", Str, fun r -> r.sig_) ]
      : (drep, _) Fields.t)
    (fun sip dn rr remaining sig_ -> Drep { sip; dn; rr; remaining; sig_ })

let rreq =
  desc "rreq" ~wire:4
    ~show:[ ("sip", "sip"); ("dip", "dip"); ("seq", "seq"); ("hops", "srr") ]
    (Fields.
       [ ("sip", Addr, fun r -> r.sip); ("dip", Addr, fun r -> r.dip);
         ("seq", U32, fun r -> r.seq); ("srr", List Srr, fun r -> r.srr);
         ("sig_", Str, fun r -> r.sig_); ("spk", Str, fun r -> r.spk);
         ("srn", U64, fun r -> r.srn) ]
      : (rreq, _) Fields.t)
    (fun sip dip seq srr sig_ spk srn -> Rreq { sip; dip; seq; srr; sig_; spk; srn })

let rrep =
  desc "rrep" ~wire:5 ~show:[ ("sip", "sip"); ("dip", "dip"); ("rr", "rr") ]
    ~set_remaining:(fun r remaining -> Rrep { r with remaining })
    (Fields.
       [ ("sip", Addr, fun r -> r.sip); ("dip", Addr, fun r -> r.dip);
         ("rr", route, fun r -> r.rr); ("remaining", route, fun r -> r.remaining);
         ("sig_", Str, fun r -> r.sig_); ("dpk", Str, fun r -> r.dpk);
         ("drn", U64, fun r -> r.drn) ]
      : (rrep, _) Fields.t)
    (fun sip dip rr remaining sig_ dpk drn ->
      Rrep { sip; dip; rr; remaining; sig_; dpk; drn })

let crep =
  desc "crep" ~wire:6 ~show:[ ("req", "requester"); ("cacher", "cacher"); ("dip", "dip") ]
    ~set_remaining:(fun r remaining -> Crep { r with remaining })
    (Fields.
       [ ("requester", Addr, fun r -> r.requester); ("cacher", Addr, fun r -> r.cacher);
         ("dip", Addr, fun r -> r.dip); ("requester_seq", U32, fun r -> r.requester_seq);
         ("cacher_seq", U32, fun r -> r.cacher_seq);
         ("rr_to_cacher", route, fun r -> r.rr_to_cacher);
         ("rr_to_dest", route, fun r -> r.rr_to_dest);
         ("remaining", route, fun r -> r.remaining);
         ("sig_cacher", Str, fun r -> r.sig_cacher); ("cacher_pk", Str, fun r -> r.cacher_pk);
         ("cacher_rn", U64, fun r -> r.cacher_rn); ("sig_dest", Str, fun r -> r.sig_dest);
         ("dest_pk", Str, fun r -> r.dest_pk); ("dest_rn", U64, fun r -> r.dest_rn) ]
      : (crep, _) Fields.t)
    (fun requester cacher dip requester_seq cacher_seq rr_to_cacher rr_to_dest remaining
         sig_cacher cacher_pk cacher_rn sig_dest dest_pk dest_rn ->
      Crep
        { requester; cacher; dip; requester_seq; cacher_seq; rr_to_cacher; rr_to_dest;
          remaining; sig_cacher; cacher_pk; cacher_rn; sig_dest; dest_pk; dest_rn })

let rerr =
  desc "rerr" ~wire:7
    ~show:[ ("reporter", "reporter"); ("broken", "broken_next"); ("dst", "dst") ]
    ~set_remaining:(fun r remaining -> Rerr { r with remaining })
    (Fields.
       [ ("reporter", Addr, fun r -> r.reporter);
         ("broken_next", Addr, fun r -> r.broken_next); ("dst", Addr, fun r -> r.dst);
         ("remaining", route, fun r -> r.remaining); ("sig_", Str, fun r -> r.sig_);
         ("pk", Str, fun r -> r.pk); ("rn", U64, fun r -> r.rn) ]
      : (rerr, _) Fields.t)
    (fun reporter broken_next dst remaining sig_ pk rn ->
      Rerr { reporter; broken_next; dst; remaining; sig_; pk; rn })

let data =
  desc "data" ~wire:8 ~show:[ ("src", "src"); ("dst", "dst"); ("seq", "seq") ]
    ~set_remaining:(fun r remaining -> Data { r with remaining })
    (Fields.
       [ ("src", Addr, fun r -> r.src); ("dst", Addr, fun r -> r.dst);
         ("seq", U32, fun r -> r.seq); ("route", route, fun r -> r.route);
         ("remaining", route, fun r -> r.remaining);
         ("payload_size", U32, fun r -> r.payload_size);
         ("sent_at", Sent_at, fun r -> r.sent_at) ]
      : (data, _) Fields.t)
    (fun src dst seq route remaining payload_size sent_at ->
      Data { src; dst; seq; route; remaining; payload_size; sent_at })

let ack =
  desc "ack" ~wire:9 ~show:[ ("src", "src"); ("dst", "dst"); ("seq", "data_seq") ]
    ~set_remaining:(fun r remaining -> Ack { r with remaining })
    (Fields.
       [ ("src", Addr, fun r -> r.src); ("dst", Addr, fun r -> r.dst);
         ("data_seq", U32, fun r -> r.data_seq); ("route", route, fun r -> r.route);
         ("remaining", route, fun r -> r.remaining);
         ("sent_at", Sent_at, fun r -> r.sent_at) ]
      : (ack, _) Fields.t)
    (fun src dst data_seq route remaining sent_at ->
      Ack { src; dst; data_seq; route; remaining; sent_at })

let probe =
  desc "probe" ~wire:10
    ~show:[ ("origin", "origin"); ("target", "target"); ("seq", "seq") ]
    ~set_remaining:(fun r remaining -> Probe { r with remaining })
    (Fields.
       [ ("origin", Addr, fun r -> r.origin); ("target", Addr, fun r -> r.target);
         ("seq", U32, fun r -> r.seq); ("route", route, fun r -> r.route);
         ("remaining", route, fun r -> r.remaining) ]
      : (probe, _) Fields.t)
    (fun origin target seq route remaining -> Probe { origin; target; seq; route; remaining })

let probe_reply =
  desc "probe_reply" ~wire:11 ~show:[ ("responder", "responder"); ("seq", "seq") ]
    ~set_remaining:(fun r remaining -> Probe_reply { r with remaining })
    (Fields.
       [ ("responder", Addr, fun r -> r.responder); ("origin", Addr, fun r -> r.origin);
         ("seq", U32, fun r -> r.seq); ("remaining", route, fun r -> r.remaining);
         ("sig_", Str, fun r -> r.sig_); ("pk", Str, fun r -> r.pk);
         ("rn", U64, fun r -> r.rn) ]
      : (probe_reply, _) Fields.t)
    (fun responder origin seq remaining sig_ pk rn ->
      Probe_reply { responder; origin; seq; remaining; sig_; pk; rn })

let name_query =
  desc "name_query" ~wire:12 ~show:[ ("name", "name") ]
    ~set_remaining:(fun r remaining -> Name_query { r with remaining })
    (Fields.
       [ ("requester", Addr, fun r -> r.requester); ("name", Str, fun r -> r.name);
         ("ch", U64, fun r -> r.ch); ("route", route, fun r -> r.route);
         ("remaining", route, fun r -> r.remaining) ]
      : (name_query, _) Fields.t)
    (fun requester name ch route remaining ->
      Name_query { requester; name; ch; route; remaining })

let name_reply =
  desc "name_reply" ~wire:13 ~show:[ ("name", "name"); ("result", "result") ]
    ~set_remaining:(fun r remaining -> Name_reply { r with remaining })
    (Fields.
       [ ("requester", Addr, fun r -> r.requester); ("name", Str, fun r -> r.name);
         ("result", Opt Addr, fun r -> r.result); ("ch", U64, fun r -> r.ch);
         ("remaining", route, fun r -> r.remaining); ("sig_", Str, fun r -> r.sig_) ]
      : (name_reply, _) Fields.t)
    (fun requester name result ch remaining sig_ ->
      Name_reply { requester; name; result; ch; remaining; sig_ })

let ip_change_request =
  desc "ip_change_request" ~wire:14 ~show:[ ("old", "old_ip"); ("new", "new_ip") ]
    ~set_remaining:(fun r remaining -> Ip_change_request { r with remaining })
    (Fields.
       [ ("old_ip", Addr, fun r -> r.old_ip); ("new_ip", Addr, fun r -> r.new_ip);
         ("route", route, fun r -> r.route); ("remaining", route, fun r -> r.remaining) ]
      : (ip_change_request, _) Fields.t)
    (fun old_ip new_ip route remaining ->
      Ip_change_request { old_ip; new_ip; route; remaining })

let ip_change_challenge =
  desc "ip_change_challenge" ~wire:15 ~show:[ ("old", "old_ip") ]
    ~set_remaining:(fun r remaining -> Ip_change_challenge { r with remaining })
    (Fields.
       [ ("old_ip", Addr, fun r -> r.old_ip); ("new_ip", Addr, fun r -> r.new_ip);
         ("ch", U64, fun r -> r.ch); ("remaining", route, fun r -> r.remaining) ]
      : (ip_change_challenge, _) Fields.t)
    (fun old_ip new_ip ch remaining -> Ip_change_challenge { old_ip; new_ip; ch; remaining })

let ip_change_proof =
  desc "ip_change_proof" ~wire:16 ~show:[ ("old", "old_ip"); ("new", "new_ip") ]
    ~set_remaining:(fun r remaining -> Ip_change_proof { r with remaining })
    (Fields.
       [ ("old_ip", Addr, fun r -> r.old_ip); ("new_ip", Addr, fun r -> r.new_ip);
         ("old_rn", U64, fun r -> r.old_rn); ("new_rn", U64, fun r -> r.new_rn);
         ("pk", Str, fun r -> r.pk); ("sig_", Str, fun r -> r.sig_);
         ("route", route, fun r -> r.route); ("remaining", route, fun r -> r.remaining) ]
      : (ip_change_proof, _) Fields.t)
    (fun old_ip new_ip old_rn new_rn pk sig_ route remaining ->
      Ip_change_proof { old_ip; new_ip; old_rn; new_rn; pk; sig_; route; remaining })

let ip_change_ack =
  desc "ip_change_ack" ~wire:17 ~show:[ ("accepted", "accepted") ]
    ~set_remaining:(fun r remaining -> Ip_change_ack { r with remaining })
    (Fields.
       [ ("old_ip", Addr, fun r -> r.old_ip); ("new_ip", Addr, fun r -> r.new_ip);
         ("accepted", Bool, fun r -> r.accepted); ("remaining", route, fun r -> r.remaining) ]
      : (ip_change_ack, _) Fields.t)
    (fun old_ip new_ip accepted remaining ->
      Ip_change_ack { old_ip; new_ip; accepted; remaining })

let aodv_rreq =
  desc "aodv_rreq" ~wire:18
    ~show:[ ("origin", "origin"); ("dst", "dst"); ("id", "bcast_id"); ("hops", "hop_count") ]
    (Fields.
       [ ("origin", Addr, fun r -> r.origin); ("origin_seq", U32, fun r -> r.origin_seq);
         ("bcast_id", U32, fun r -> r.bcast_id); ("dst", Addr, fun r -> r.dst);
         ("dst_seq_known", U32, fun r -> r.dst_seq_known);
         ("hop_count", U8, fun r -> r.hop_count); ("sig_", Str, fun r -> r.sig_);
         ("spk", Str, fun r -> r.spk); ("srn", U64, fun r -> r.srn);
         ("hash", Str, fun r -> r.hash); ("top_hash", Str, fun r -> r.top_hash);
         ("max_hops", U8, fun r -> r.max_hops) ]
      : (aodv_rreq, _) Fields.t)
    (fun origin origin_seq bcast_id dst dst_seq_known hop_count sig_ spk srn hash top_hash
         max_hops ->
      Aodv
        (Aodv_rreq
           { origin; origin_seq; bcast_id; dst; dst_seq_known; hop_count; sig_; spk; srn;
             hash; top_hash; max_hops }))

let aodv_rrep =
  desc "aodv_rrep" ~wire:19
    ~show:
      [ ("requester", "requester"); ("dst", "dst"); ("seq", "dst_seq"); ("hops", "hop_count") ]
    (Fields.
       [ ("requester", Addr, fun r -> r.requester); ("dst", Addr, fun r -> r.dst);
         ("dst_seq", U32, fun r -> r.dst_seq); ("hop_count", U8, fun r -> r.hop_count);
         ("sig_", Str, fun r -> r.sig_); ("dpk", Str, fun r -> r.dpk);
         ("drn", U64, fun r -> r.drn); ("hash", Str, fun r -> r.hash);
         ("top_hash", Str, fun r -> r.top_hash); ("max_hops", U8, fun r -> r.max_hops) ]
      : (aodv_rrep, _) Fields.t)
    (fun requester dst dst_seq hop_count sig_ dpk drn hash top_hash max_hops ->
      Aodv
        (Aodv_rrep
           { requester; dst; dst_seq; hop_count; sig_; dpk; drn; hash; top_hash; max_hops }))

let aodv_rerr =
  desc "aodv_rerr" ~wire:20 ~show:[ ("unreachable", "unreachable") ]
    (Fields.[ ("unreachable", List Addr_u32, fun r -> r.unreachable) ]
      : (aodv_rerr, _) Fields.t)
    (fun unreachable -> Aodv (Aodv_rerr { unreachable }))

(* AODV data and acks count with the source-routed ones, so the
   control-traffic readers leave them out alike. *)
let aodv_data =
  desc "aodv_data" ~wire:21 ~counts_as:data.kind
    ~show:[ ("src", "src"); ("dst", "dst"); ("seq", "seq") ]
    (Fields.
       [ ("src", Addr, fun r -> r.src); ("dst", Addr, fun r -> r.dst);
         ("seq", U32, fun r -> r.seq); ("payload_size", U32, fun r -> r.payload_size);
         ("sent_at", Sent_at, fun r -> r.sent_at) ]
      : (aodv_data, _) Fields.t)
    (fun src dst seq payload_size sent_at ->
      Aodv (Aodv_data { src; dst; seq; payload_size; sent_at }))

let aodv_ack =
  desc "aodv_ack" ~wire:22 ~counts_as:ack.kind
    ~show:[ ("src", "src"); ("dst", "dst"); ("seq", "data_seq") ]
    (Fields.
       [ ("src", Addr, fun r -> r.src); ("dst", Addr, fun r -> r.dst);
         ("data_seq", U32, fun r -> r.data_seq); ("sent_at", Sent_at, fun r -> r.sent_at) ]
      : (aodv_ack, _) Fields.t)
    (fun src dst data_seq sent_at -> Aodv (Aodv_ack { src; dst; data_seq; sent_at }))

let entries =
  [
    Entry areq; Entry arep; Entry drep; Entry rreq; Entry rrep; Entry crep; Entry rerr;
    Entry data; Entry ack; Entry probe; Entry probe_reply; Entry name_query;
    Entry name_reply; Entry ip_change_request; Entry ip_change_challenge;
    Entry ip_change_proof; Entry ip_change_ack; Entry aodv_rreq; Entry aodv_rrep;
    Entry aodv_rerr; Entry aodv_data; Entry aodv_ack;
  ]

let view v x y = function
  | Areq r -> v.run areq r x y
  | Arep r -> v.run arep r x y
  | Drep r -> v.run drep r x y
  | Rreq r -> v.run rreq r x y
  | Rrep r -> v.run rrep r x y
  | Crep r -> v.run crep r x y
  | Rerr r -> v.run rerr r x y
  | Data r -> v.run data r x y
  | Ack r -> v.run ack r x y
  | Probe r -> v.run probe r x y
  | Probe_reply r -> v.run probe_reply r x y
  | Name_query r -> v.run name_query r x y
  | Name_reply r -> v.run name_reply r x y
  | Ip_change_request r -> v.run ip_change_request r x y
  | Ip_change_challenge r -> v.run ip_change_challenge r x y
  | Ip_change_proof r -> v.run ip_change_proof r x y
  | Ip_change_ack r -> v.run ip_change_ack r x y
  | Aodv (Aodv_rreq r) -> v.run aodv_rreq r x y
  | Aodv (Aodv_rrep r) -> v.run aodv_rrep r x y
  | Aodv (Aodv_rerr r) -> v.run aodv_rerr r x y
  | Aodv (Aodv_data r) -> v.run aodv_data r x y
  | Aodv (Aodv_ack r) -> v.run aodv_ack r x y

(* --- readers ------------------------------------------------------------ *)

let kind_of = { run = (fun d _ () () -> d.kind) }
let tag m = (view kind_of () () m).tag
let tx_key m = (view kind_of () () m).tx
let txbytes_key m = (view kind_of () () m).txbytes

let remaining_of =
  {
    run =
      (fun d r () () ->
        match d.routed with None -> None | Some p -> Some (p.get_remaining r));
  }

let remaining m = view remaining_of () () m

(* A forwarded message usually already holds the hops it is sent
   along (the receiver stripped itself off), so it is sent as is. *)
let with_remaining_of =
  {
    run =
      (fun d r m hops ->
        match d.routed with
        | Some p when p.get_remaining r != hops -> p.set_remaining r hops
        | _ -> m);
  }

let with_remaining m hops = view with_remaining_of m hops m

(* --- rendering ---------------------------------------------------------

   The one text renderer for messages: trace and capture details and
   [pp] all go through it.  Each summary field is written after its
   prefix by its codec; addresses go through the caller's writer
   [addr]. *)

type writer = Buffer.t -> Address.t -> unit

let rec add_value : type a. writer -> Buffer.t -> a codec -> a -> unit =
 fun addr buf c v ->
  match c with
  | U8 -> Json.add_int buf v
  | U32 -> Json.add_int buf v
  | U64 -> Buffer.add_string buf (Int64.to_string v)
  | Bool -> Buffer.add_string buf (Bool.to_string v)
  | Addr -> addr buf v
  | Str -> Buffer.add_string buf v
  | Opt c -> (
      match v with None -> Buffer.add_char buf '-' | Some x -> add_value addr buf c x)
  | List Srr -> Json.add_int buf (List.length v)
  | List c ->
      Buffer.add_char buf '[';
      add_elements addr buf c v;
      Buffer.add_char buf ']'
  | Srr -> addr buf v.ip
  | Addr_u32 -> addr buf (fst v)
  | Sent_at -> Buffer.add_string buf (Float.to_string v)

(* a;b;c *)
and add_elements : type a. writer -> Buffer.t -> a codec -> a list -> unit =
 fun addr buf c -> function
  | [] -> ()
  | x :: rest ->
      add_value addr buf c x;
      if not (List.is_empty rest) then Buffer.add_char buf ';';
      add_elements addr buf c rest

let rec add_show addr buf r = function
  | [] -> Buffer.add_char buf ')'
  | (prefix, Field f) :: rest ->
      Buffer.add_string buf prefix;
      add_value addr buf f.codec (f.get r);
      add_show addr buf r rest

let renderer = { run = (fun d r addr buf -> add_show addr buf r d.show) }
let add_to_buffer addr buf m = view renderer addr buf m
