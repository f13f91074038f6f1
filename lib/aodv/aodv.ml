module Address = Manet_ipv6.Address
module Prng = Manet_crypto.Prng
module Sha256 = Manet_crypto.Sha256
module Suite = Manet_crypto.Suite
module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Net = Manet_sim.Net
module Directory = Manet_proto.Directory
module Identity = Manet_proto.Identity

(* Counter and series keys, bound once (see [Stats.key]). *)
module Key = struct
  let ack_unmatched = Stats.key "ack.unmatched"
  let aodv_ack_no_route = Stats.key "aodv.ack_no_route"
  let aodv_hash_chain_rejected = Stats.key "aodv.hash_chain_rejected"
  let aodv_rrep_no_reverse_route = Stats.key "aodv.rrep_no_reverse_route"
  let aodv_rrep_rejected = Stats.key "aodv.rrep_rejected"
  let aodv_rreq_rejected = Stats.key "aodv.rreq_rejected"
  let data_acked = Stats.key "data.acked"
  let data_delivered = Stats.key "data.delivered"
  let data_dropped = Stats.key "data.dropped"
  let data_forwarded = Stats.key "data.forwarded"
  let data_latency = Stats.key "data.latency"
  let data_offered = Stats.key "data.offered"
  let data_rtt = Stats.key "data.rtt"
  let data_timeout = Stats.key "data.timeout"
  let rerr_received = Stats.key "rerr.received"
  let rerr_sent = Stats.key "rerr.sent"
  let route_discoveries = Stats.key "route.discoveries"
  let route_discovery_failed = Stats.key "route.discovery_failed"
  let tx_aodv_rreq = Stats.key "tx.aodv_rreq"
  let tx_aodv_rrep = Stats.key "tx.aodv_rrep"
  let tx_aodv_rerr = Stats.key "tx.aodv_rerr"
  let tx_aodv_data = Stats.key "tx.aodv_data"
  let tx_aodv_ack = Stats.key "tx.aodv_ack"
end

type msg =
  | Rreq of {
      src : Address.t;
      src_seq : int;
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
  | Rrep of {
      rep_src : Address.t;
      rep_dst : Address.t;
      dst_seq : int;
      hop_count : int;
      sig_ : string;
      dpk : string;
      drn : int64;
      hash : string;
      top_hash : string;
      max_hops : int;
    }
  | Rerr of { unreachable : (Address.t * int) list }
  | Data of {
      d_src : Address.t;
      d_dst : Address.t;
      d_seq : int;
      payload_size : int;
      sent_at : float;
    }
  | Ack of { a_src : Address.t; a_dst : Address.t; data_seq : int; sent_at : float }

(* The transmission counter ["tx.aodv_<kind>"]'s key. *)
let tx_key = function
  | Rreq _ -> Key.tx_aodv_rreq
  | Rrep _ -> Key.tx_aodv_rrep
  | Rerr _ -> Key.tx_aodv_rerr
  | Data _ -> Key.tx_aodv_data
  | Ack _ -> Key.tx_aodv_ack

let msg_size ~sig_size ~pk_size m =
  let header = 40 + 1 and addr = 16 and seq = 4 and hash = 32 in
  let body =
    match m with
    | Rreq { sig_; _ } ->
        (2 * addr) + (4 * seq)
        + (if sig_ = "" then 0 else sig_size + pk_size + 8 + (2 * hash) + 1)
        + 1
    | Rrep { sig_; _ } ->
        (2 * addr) + (2 * seq)
        + (if sig_ = "" then 0 else sig_size + pk_size + 8 + (2 * hash) + 1)
    | Rerr { unreachable } -> 1 + (List.length unreachable * (addr + seq))
    | Data { payload_size; _ } -> (2 * addr) + seq + payload_size
    | Ack _ -> (2 * addr) + seq
  in
  header + body

module Hash_chain = struct
  let advance h = Sha256.digest h

  let rec iterate h n = if n <= 0 then h else iterate (advance h) (n - 1)

  let generate g ~max_hops =
    let seed = Prng.bytes g 32 in
    (seed, iterate seed max_hops)

  let check ~hash ~top_hash ~max_hops ~hop_count =
    hop_count >= 0 && hop_count <= max_hops
    && String.equal (iterate hash (max_hops - hop_count)) top_hash
end

type config = {
  secure : bool;
  discovery_timeout : float;
  max_discovery_attempts : int;
  route_lifetime : float;
  ack_timeout : float;
  max_send_retries : int;
  flood_jitter : float;
  max_hops : int;
}

let default_config =
  {
    secure = false;
    discovery_timeout = 1.0;
    max_discovery_attempts = 3;
    route_lifetime = 30.0;
    ack_timeout = 1.5;
    max_send_retries = 2;
    flood_jitter = 0.01;
    max_hops = 16;
  }

type route_entry = {
  mutable next : Address.t;
  mutable hops : int;
  mutable seq : int;
  mutable expires : float;
  mutable valid : bool;
}

type packet = {
  p_dst : Address.t;
  p_size : int;
  p_seq : int;
  p_first_sent : float;
  mutable p_retries : int;
}

type pending_discovery = {
  d_dst : Address.t;
  mutable d_attempts : int;
  mutable d_resolved : bool;
}

type t = {
  config : config;
  net : msg Net.t;
  directory : Directory.t;
  identity : Identity.t;
  rng : Prng.t;
  engine : Engine.t;
  table : route_entry Address.Tbl.t;
  mutable own_seq : int;
  mutable bcast_id : int;
  mutable data_seq : int;
  seen_rreq : unit Address.Seq_tbl.t; (* (origin, bcast_id) *)
  pending : pending_discovery Address.Tbl.t;
  queue : packet Queue.t Address.Tbl.t;
  in_flight : packet Address.Seq_tbl.t; (* (dst, seq) *)
  seen_data : unit Address.Seq_tbl.t; (* (src, seq) *)
}

let create ?(config = default_config) ~net ~directory ~identity ~rng () =
  {
    config;
    net;
    directory;
    identity;
    rng;
    engine = Net.engine net;
    table = Address.Tbl.create 32;
    own_seq = 0;
    bcast_id = 0;
    data_seq = 0;
    seen_rreq = Address.Seq_tbl.create 256;
    pending = Address.Tbl.create 16;
    queue = Address.Tbl.create 16;
    in_flight = Address.Seq_tbl.create 32;
    seen_data = Address.Seq_tbl.create 64;
  }

let address t = t.identity.Identity.address
let now t = Engine.now t.engine
let node_id t = t.identity.Identity.node_id
let net t = t.net
let suite t = t.identity.Identity.suite
let stat t k = Stats.incr (Engine.stats t.engine) k
let observe t k v = Stats.observe (Engine.stats t.engine) k v

let sig_sizes t =
  let s = suite t in
  if t.config.secure then (s.Suite.signature_size, s.Suite.public_key_size)
  else (0, 0)

let broadcast t m =
  let sig_size, pk_size = sig_sizes t in
  stat t (tx_key m);
  Net.broadcast t.net ~src:(node_id t) ~size:(msg_size ~sig_size ~pk_size m) m

let unicast_addr t ~next ?(on_fail = fun () -> ()) m =
  let sig_size, pk_size = sig_sizes t in
  stat t (tx_key m);
  match Directory.lookup_all t.directory next with
  | [] -> Engine.schedule t.engine ~label:"aodv" ~delay:0.01 on_fail
  | claimants ->
      let size = msg_size ~sig_size ~pk_size m in
      List.iter
        (fun dst -> Net.unicast t.net ~src:(node_id t) ~dst ~size ~on_fail m)
        claimants

(* The MAC-layer sender's address: AODV installs it as the next hop of
   reverse/forward routes. *)
let sender_addr t src =
  match Directory.addresses_of t.directory src with a :: _ -> Some a | [] -> None

(* --- routing table ------------------------------------------------------- *)

let route_lookup t dst =
  match Address.Tbl.find_opt t.table dst with
  | Some e when e.valid && e.expires > now t -> Some e
  | _ -> None

let next_hop t ~dst = Option.map (fun e -> e.next) (route_lookup t dst)

(* AODV route update rule: fresher sequence number wins; equal freshness
   prefers fewer hops; invalid/expired entries are always replaced. *)
let route_update t ~dst ~next ~hops ~seq =
  let expires = now t +. t.config.route_lifetime in
  match Address.Tbl.find_opt t.table dst with
  | Some e when e.valid && e.expires > now t ->
      if seq > e.seq || (seq = e.seq && hops < e.hops) then begin
        e.next <- next;
        e.hops <- hops;
        e.seq <- seq;
        e.expires <- expires;
        true
      end
      else begin
        e.expires <- max e.expires expires;
        false
      end
  | _ ->
      Address.Tbl.replace t.table dst { next; hops; seq; expires; valid = true };
      true

let invalidate_route t dst =
  match Address.Tbl.find_opt t.table dst with
  | Some e -> e.valid <- false
  | None -> ()

(* --- SAODV signatures ----------------------------------------------------- *)

let rreq_payload ~src ~src_seq ~bcast_id ~dst ~top_hash ~max_hops =
  "AORQ|" ^ Address.to_bytes src ^ string_of_int src_seq ^ "|"
  ^ string_of_int bcast_id ^ Address.to_bytes dst ^ top_hash
  ^ string_of_int max_hops

let rrep_payload ~rep_src ~rep_dst ~dst_seq ~top_hash ~max_hops =
  "AORP|" ^ Address.to_bytes rep_src ^ Address.to_bytes rep_dst
  ^ string_of_int dst_seq ^ top_hash ^ string_of_int max_hops

let verify_origin t ~ip ~pk ~rn ~payload ~signature =
  Suite.count_hash (suite t) ~bytes:(String.length pk + 8);
  Manet_ipv6.Cga.verify ip ~pk_bytes:pk ~rn
  && (suite t).Suite.verify ~pk_bytes:pk ~msg:payload ~signature

(* --- data plane ------------------------------------------------------------ *)

let rec transmit t packet =
  match route_lookup t packet.p_dst with
  | None ->
      Queue.push packet (queue_for t packet.p_dst);
      start_discovery t packet.p_dst
  | Some entry ->
      Address.Seq_tbl.replace t.in_flight
        { Address.addr = packet.p_dst; seq = packet.p_seq }
        packet;
      let m =
        Data
          {
            d_src = address t;
            d_dst = packet.p_dst;
            d_seq = packet.p_seq;
            payload_size = packet.p_size;
            sent_at = packet.p_first_sent;
          }
      in
      unicast_addr t ~next:entry.next m ~on_fail:(fun () ->
          invalidate_route t packet.p_dst);
      Engine.schedule t.engine ~label:"aodv" ~delay:t.config.ack_timeout
        (fun () ->
          let k = { Address.addr = packet.p_dst; seq = packet.p_seq } in
          match Address.Seq_tbl.find_opt t.in_flight k with
          | Some p when p == packet ->
              Address.Seq_tbl.remove t.in_flight k;
              stat t Key.data_timeout;
              invalidate_route t packet.p_dst;
              if packet.p_retries < t.config.max_send_retries then begin
                packet.p_retries <- packet.p_retries + 1;
                transmit t packet
              end
              else stat t Key.data_dropped
          | _ -> ())

and queue_for t dst =
  match Address.Tbl.find_opt t.queue dst with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Address.Tbl.add t.queue dst q;
      q

and start_discovery t dst =
  if not (Address.Tbl.mem t.pending dst) then begin
    let d = { d_dst = dst; d_attempts = 0; d_resolved = false } in
    Address.Tbl.add t.pending dst d;
    send_rreq t d
  end

and send_rreq t d =
  d.d_attempts <- d.d_attempts + 1;
  t.own_seq <- t.own_seq + 1;
  t.bcast_id <- t.bcast_id + 1;
  stat t Key.route_discoveries;
  let src = address t in
  let dst_seq_known =
    match Address.Tbl.find_opt t.table d.d_dst with Some e -> e.seq | None -> 0
  in
  let hash, top_hash =
    if t.config.secure then Hash_chain.generate t.rng ~max_hops:t.config.max_hops
    else ("", "")
  in
  let sig_, spk, srn =
    if t.config.secure then
      ( Identity.sign t.identity
          (rreq_payload ~src ~src_seq:t.own_seq ~bcast_id:t.bcast_id ~dst:d.d_dst
             ~top_hash ~max_hops:t.config.max_hops),
        Identity.pk_bytes t.identity,
        t.identity.Identity.rn )
    else ("", "", 0L)
  in
  Address.Seq_tbl.replace t.seen_rreq { Address.addr = src; seq = t.bcast_id } ();
  broadcast t
    (Rreq
       {
         src;
         src_seq = t.own_seq;
         bcast_id = t.bcast_id;
         dst = d.d_dst;
         dst_seq_known;
         hop_count = 0;
         sig_;
         spk;
         srn;
         hash;
         top_hash;
         max_hops = t.config.max_hops;
       });
  Engine.schedule t.engine ~label:"aodv" ~delay:t.config.discovery_timeout
    (fun () ->
      if not d.d_resolved then begin
        if d.d_attempts < t.config.max_discovery_attempts then send_rreq t d
        else begin
          d.d_resolved <- true;
          Address.Tbl.remove t.pending d.d_dst;
          stat t Key.route_discovery_failed;
          match Address.Tbl.find_opt t.queue d.d_dst with
          | Some q ->
              Queue.iter (fun _ -> stat t Key.data_dropped) q;
              Queue.clear q
          | None -> ()
        end
      end)

and route_established t dst =
  (match Address.Tbl.find_opt t.pending dst with
  | Some d when not d.d_resolved ->
      d.d_resolved <- true;
      Address.Tbl.remove t.pending dst
  | _ -> ());
  match Address.Tbl.find_opt t.queue dst with
  | Some q ->
      let packets = List.of_seq (Queue.to_seq q) in
      Queue.clear q;
      List.iter (fun p -> transmit t p) packets
  | None -> ()

let send t ~dst ?(size = 512) () =
  t.data_seq <- t.data_seq + 1;
  stat t Key.data_offered;
  transmit t
    { p_dst = dst; p_size = size; p_seq = t.data_seq; p_first_sent = now t; p_retries = 0 }

(* --- message handling -------------------------------------------------------- *)

let answer_as_destination t ~src =
  t.own_seq <- t.own_seq + 1;
  let hash, top_hash =
    if t.config.secure then Hash_chain.generate t.rng ~max_hops:t.config.max_hops
    else ("", "")
  in
  let sig_, dpk, drn =
    if t.config.secure then
      ( Identity.sign t.identity
          (rrep_payload ~rep_src:src ~rep_dst:(address t) ~dst_seq:t.own_seq
             ~top_hash ~max_hops:t.config.max_hops),
        Identity.pk_bytes t.identity,
        t.identity.Identity.rn )
    else ("", "", 0L)
  in
  let m =
    Rrep
      {
        rep_src = src;
        rep_dst = address t;
        dst_seq = t.own_seq;
        hop_count = 0;
        sig_;
        dpk;
        drn;
        hash;
        top_hash;
        max_hops = t.config.max_hops;
      }
  in
  match route_lookup t src with
  | Some e -> unicast_addr t ~next:e.next m
  | None -> () (* reverse route vanished; the requester will retry *)

let handle_rreq t ~src m =
  match m with
  | Rreq
      {
        src = origin;
        src_seq;
        bcast_id;
        dst;
        dst_seq_known;
        hop_count;
        sig_;
        spk;
        srn;
        hash;
        top_hash;
        max_hops;
      } ->
      let key = { Address.addr = origin; seq = bcast_id } in
      if Address.Seq_tbl.mem t.seen_rreq key then ()
      else begin
        Address.Seq_tbl.replace t.seen_rreq key ();
        let chain_ok =
          (not t.config.secure)
          || Hash_chain.check ~hash ~top_hash ~max_hops ~hop_count
        in
        let sig_ok =
          (not t.config.secure)
          || verify_origin t ~ip:origin ~pk:spk ~rn:srn
               ~payload:
                 (rreq_payload ~src:origin ~src_seq ~bcast_id ~dst ~top_hash
                    ~max_hops)
               ~signature:sig_
        in
        if not chain_ok then stat t Key.aodv_hash_chain_rejected
        else if not sig_ok then stat t Key.aodv_rreq_rejected
        else begin
          (* Install the reverse route toward the requester. *)
          (match sender_addr t src with
          | Some prev ->
              ignore
                (route_update t ~dst:origin ~next:prev ~hops:(hop_count + 1)
                   ~seq:src_seq)
          | None -> ());
          if Address.equal dst (address t) then begin
            t.own_seq <- max t.own_seq dst_seq_known;
            answer_as_destination t ~src:origin
          end
          else if hop_count + 1 < max_hops then begin
            let relayed =
              Rreq
                {
                  src = origin;
                  src_seq;
                  bcast_id;
                  dst;
                  dst_seq_known;
                  hop_count = hop_count + 1;
                  sig_;
                  spk;
                  srn;
                  hash = (if t.config.secure then Hash_chain.advance hash else hash);
                  top_hash;
                  max_hops;
                }
            in
            let delay = Prng.float t.rng t.config.flood_jitter in
            Engine.schedule t.engine ~label:"aodv" ~delay (fun () ->
                broadcast t relayed)
          end
        end
      end
  | _ -> ()

let handle_rrep t ~src m =
  match m with
  | Rrep
      { rep_src; rep_dst; dst_seq; hop_count; sig_; dpk; drn; hash; top_hash; max_hops }
    ->
      let chain_ok =
        (not t.config.secure)
        || Hash_chain.check ~hash ~top_hash ~max_hops ~hop_count
      in
      let sig_ok =
        (not t.config.secure)
        || verify_origin t ~ip:rep_dst ~pk:dpk ~rn:drn
             ~payload:(rrep_payload ~rep_src ~rep_dst ~dst_seq ~top_hash ~max_hops)
             ~signature:sig_
      in
      if not chain_ok then stat t Key.aodv_hash_chain_rejected
      else if not sig_ok then stat t Key.aodv_rrep_rejected
      else begin
        (* Install the forward route toward the reported destination. *)
        (match sender_addr t src with
        | Some prev ->
            ignore
              (route_update t ~dst:rep_dst ~next:prev ~hops:(hop_count + 1)
                 ~seq:dst_seq)
        | None -> ());
        if Address.equal rep_src (address t) then route_established t rep_dst
        else begin
          match route_lookup t rep_src with
          | Some e ->
              unicast_addr t ~next:e.next
                (Rrep
                   {
                     rep_src;
                     rep_dst;
                     dst_seq;
                     hop_count = hop_count + 1;
                     sig_;
                     dpk;
                     drn;
                     hash =
                       (if t.config.secure then Hash_chain.advance hash else hash);
                     top_hash;
                     max_hops;
                   })
          | None -> stat t Key.aodv_rrep_no_reverse_route
        end
      end
  | _ -> ()

let handle_rerr t ~src m =
  match m with
  (* manetcheck: allow security — AODV/SAODV route errors carry no origin
     signature (only RREQ/RREP are protected); error handling is inherently
     unauthenticated. *)
  | Rerr { unreachable } ->
      (* Invalidate every listed destination we route via the sender,
         and propagate once for the ones we actually dropped. *)
      let prev = sender_addr t src in
      let dropped =
        List.filter
          (fun (dst, seq) ->
            match (Address.Tbl.find_opt t.table dst, prev) with
            | Some e, Some p
              when e.valid && Address.equal e.next p && (seq = 0 || e.seq <= seq) ->
                e.valid <- false;
                true
            | _ -> false)
          unreachable
      in
      stat t Key.rerr_received;
      if dropped <> [] then broadcast t (Rerr { unreachable = dropped })
  | _ -> ()

let handle_data t ~src:_ m =
  match m with
  | Data { d_src; d_dst; d_seq; sent_at; _ } ->
      if Address.equal d_dst (address t) then begin
        let k = { Address.addr = d_src; seq = d_seq } in
        if not (Address.Seq_tbl.mem t.seen_data k) then begin
          Address.Seq_tbl.replace t.seen_data k ();
          stat t Key.data_delivered;
          observe t Key.data_latency (now t -. sent_at)
        end;
        match route_lookup t d_src with
        | Some e ->
            unicast_addr t ~next:e.next
              (Ack { a_src = address t; a_dst = d_src; data_seq = d_seq; sent_at })
        | None -> stat t Key.aodv_ack_no_route
      end
      else begin
        match route_lookup t d_dst with
        | Some e ->
            stat t Key.data_forwarded;
            unicast_addr t ~next:e.next m ~on_fail:(fun () ->
                invalidate_route t d_dst;
                stat t Key.rerr_sent;
                broadcast t (Rerr { unreachable = [ (d_dst, 0) ] }))
        | None ->
            stat t Key.rerr_sent;
            broadcast t (Rerr { unreachable = [ (d_dst, 0) ] })
      end
  | _ -> ()

let handle_ack t ~src:_ m =
  match m with
  | Ack { a_src; a_dst; data_seq; sent_at } ->
      if Address.equal a_dst (address t) then begin
        let k = { Address.addr = a_src; seq = data_seq } in
        match Address.Seq_tbl.find_opt t.in_flight k with
        | Some _ ->
            Address.Seq_tbl.remove t.in_flight k;
            stat t Key.data_acked;
            observe t Key.data_rtt (now t -. sent_at)
        | None -> stat t Key.ack_unmatched
      end
      else begin
        match route_lookup t a_dst with
        | Some e -> unicast_addr t ~next:e.next m
        | None -> ()
      end
  | _ -> ()

let handle t ~src m =
  match m with
  | Rreq _ -> handle_rreq t ~src m
  | Rrep _ -> handle_rrep t ~src m
  | Rerr _ -> handle_rerr t ~src m
  | Data _ -> handle_data t ~src m
  | Ack _ -> handle_ack t ~src m
