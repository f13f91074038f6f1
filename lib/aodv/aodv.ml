module Address = Manet_ipv6.Address
module Prng = Manet_crypto.Prng
module Sha256 = Manet_crypto.Sha256
module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Messages = Manet_proto.Messages
module Ctx = Manet_proto.Node_ctx
module Directory = Manet_proto.Directory
module Identity = Manet_proto.Identity
module Audit = Manet_obs.Audit

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
end

(* Timings and bounds. *)
let discovery_timeout = 1.0
let max_discovery_attempts = 3
let route_lifetime = 30.0 (* entries expire without use *)
let ack_timeout = 1.5
let max_send_retries = 2
let flood_jitter = 0.01
let max_hops = 16 (* hash-chain length bound *)

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
  ctx : Ctx.t;
  secure : bool;
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

let create ~secure ctx =
  {
    ctx;
    secure;
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

let address t = Ctx.address t.ctx
let now t = Ctx.now t.ctx
let identity t = t.ctx.Ctx.identity
let schedule t ~delay f = Engine.schedule t.ctx.Ctx.engine ~label:"aodv" ~delay f
let unicast t ~next ?on_fail m = Ctx.send_along t.ctx ~path:[ next ] ?on_fail (Messages.Aodv m)
let broadcast t m = Ctx.broadcast t.ctx (Messages.Aodv m)

(* The MAC-layer sender's address: AODV installs it as the next hop of
   reverse/forward routes. *)
let sender_addr t src =
  match Directory.addresses_of t.ctx.Ctx.directory src with
  | a :: _ -> Some a
  | [] -> None

(* --- routing table ------------------------------------------------------- *)

let route_lookup t dst =
  match Address.Tbl.find_opt t.table dst with
  | Some e when e.valid && e.expires > now t -> Some e
  | _ -> None

(* AODV route update rule: fresher sequence number wins; equal freshness
   prefers fewer hops; invalid/expired entries are always replaced. *)
let route_update t ~dst ~next ~hops ~seq =
  let expires = now t +. route_lifetime in
  match Address.Tbl.find_opt t.table dst with
  | Some e when e.valid && e.expires > now t ->
      if seq > e.seq || (seq = e.seq && hops < e.hops) then begin
        e.next <- next;
        e.hops <- hops;
        e.seq <- seq;
        e.expires <- expires
      end
      else e.expires <- max e.expires expires
  | _ -> Address.Tbl.replace t.table dst { next; hops; seq; expires; valid = true }

let invalidate_route t dst =
  match Address.Tbl.find_opt t.table dst with
  | Some e -> e.valid <- false
  | None -> ()

(* --- SAODV signatures ----------------------------------------------------- *)

let rreq_payload ~origin ~origin_seq ~bcast_id ~dst ~top_hash ~max_hops =
  "AORQ|" ^ Address.to_bytes origin ^ string_of_int origin_seq ^ "|"
  ^ string_of_int bcast_id ^ Address.to_bytes dst ^ top_hash
  ^ string_of_int max_hops

let rrep_payload ~requester ~dst ~dst_seq ~top_hash ~max_hops =
  "AORP|" ^ Address.to_bytes requester ^ Address.to_bytes dst
  ^ string_of_int dst_seq ^ top_hash ^ string_of_int max_hops

let verify_origin t ~ip ~pk ~rn ~payload ~signature =
  Result.is_ok (Manet_proto.Verdict.host t.ctx ~ip ~pk ~rn ~payload ~signature)

(* A fresh hash chain and the signature over [payload ~top_hash] under
   SAODV; empty fields under plain AODV. *)
let saodv_fields t payload =
  if t.secure then begin
    let id = identity t in
    let hash, top_hash = Hash_chain.generate t.ctx.Ctx.rng ~max_hops in
    (hash, top_hash, Identity.sign id (payload ~top_hash), Identity.pk_bytes id, id.Identity.rn)
  end
  else ("", "", "", "", 0L)

(* A rejected SAODV check: the counter and an audit record. *)
let reject t key cause =
  Ctx.audit t.ctx ~kind:Audit.Sig_verify_fail ~stats:[ key ] ~cause ()

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
      unicast t ~next:entry.next
        (Messages.Aodv_data
           { src = address t; dst = packet.p_dst; seq = packet.p_seq;
             payload_size = packet.p_size; sent_at = packet.p_first_sent })
        ~on_fail:(fun () -> invalidate_route t packet.p_dst);
      schedule t ~delay:ack_timeout (fun () ->
          let k = { Address.addr = packet.p_dst; seq = packet.p_seq } in
          match Address.Seq_tbl.find_opt t.in_flight k with
          | Some p when p == packet ->
              Address.Seq_tbl.remove t.in_flight k;
              Ctx.stat t.ctx Key.data_timeout;
              invalidate_route t packet.p_dst;
              if packet.p_retries < max_send_retries then begin
                packet.p_retries <- packet.p_retries + 1;
                transmit t packet
              end
              else Ctx.stat t.ctx Key.data_dropped
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
  Ctx.stat t.ctx Key.route_discoveries;
  let origin = address t in
  let dst_seq_known =
    match Address.Tbl.find_opt t.table d.d_dst with Some e -> e.seq | None -> 0
  in
  let hash, top_hash, sig_, spk, srn =
    saodv_fields t
      (rreq_payload ~origin ~origin_seq:t.own_seq ~bcast_id:t.bcast_id ~dst:d.d_dst
         ~max_hops)
  in
  Address.Seq_tbl.replace t.seen_rreq { Address.addr = origin; seq = t.bcast_id } ();
  broadcast t
    (Messages.Aodv_rreq
       { origin; origin_seq = t.own_seq; bcast_id = t.bcast_id; dst = d.d_dst;
         dst_seq_known; hop_count = 0; sig_; spk; srn; hash; top_hash; max_hops });
  schedule t ~delay:discovery_timeout (fun () ->
      if not d.d_resolved then begin
        if d.d_attempts < max_discovery_attempts then send_rreq t d
        else begin
          d.d_resolved <- true;
          Address.Tbl.remove t.pending d.d_dst;
          Ctx.stat t.ctx Key.route_discovery_failed;
          match Address.Tbl.find_opt t.queue d.d_dst with
          | Some q ->
              Queue.iter (fun _ -> Ctx.stat t.ctx Key.data_dropped) q;
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
  Ctx.stat t.ctx Key.data_offered;
  transmit t
    { p_dst = dst; p_size = size; p_seq = t.data_seq; p_first_sent = now t; p_retries = 0 }

(* --- message handling -------------------------------------------------------- *)

let answer_as_destination t ~requester =
  t.own_seq <- t.own_seq + 1;
  let dst = address t and dst_seq = t.own_seq in
  let hash, top_hash, sig_, dpk, drn =
    saodv_fields t (rrep_payload ~requester ~dst ~dst_seq ~max_hops)
  in
  match route_lookup t requester with
  | Some e ->
      unicast t ~next:e.next
        (Messages.Aodv_rrep
           { requester; dst; dst_seq; hop_count = 0; sig_; dpk; drn; hash; top_hash; max_hops })
  | None -> () (* reverse route vanished; the requester will retry *)

let handle_rreq t ~src = function
  | Messages.Aodv_rreq r ->
      let key = { Address.addr = r.origin; seq = r.bcast_id } in
      if not (Address.Seq_tbl.mem t.seen_rreq key) then begin
        Address.Seq_tbl.replace t.seen_rreq key ();
        let chain_ok =
          (not t.secure)
          || Hash_chain.check ~hash:r.hash ~top_hash:r.top_hash ~max_hops:r.max_hops
               ~hop_count:r.hop_count
        in
        let sig_ok =
          (not t.secure)
          || verify_origin t ~ip:r.origin ~pk:r.spk ~rn:r.srn
               ~payload:
                 (rreq_payload ~origin:r.origin ~origin_seq:r.origin_seq
                    ~bcast_id:r.bcast_id ~dst:r.dst ~top_hash:r.top_hash
                    ~max_hops:r.max_hops)
               ~signature:r.sig_
        in
        if not chain_ok then
          reject t Key.aodv_hash_chain_rejected "saodv rreq hash chain"
        else if not sig_ok then
          reject t Key.aodv_rreq_rejected "saodv rreq origin signature"
        else begin
          (* Install the reverse route toward the requester. *)
          Option.iter
            (fun prev ->
              route_update t ~dst:r.origin ~next:prev ~hops:(r.hop_count + 1)
                ~seq:r.origin_seq)
            (sender_addr t src);
          if Address.equal r.dst (address t) then begin
            t.own_seq <- max t.own_seq r.dst_seq_known;
            answer_as_destination t ~requester:r.origin
          end
          else if r.hop_count + 1 < r.max_hops then begin
            let hash = if t.secure then Hash_chain.advance r.hash else r.hash in
            let relayed = Messages.Aodv_rreq { r with hop_count = r.hop_count + 1; hash } in
            let delay = Prng.float t.ctx.Ctx.rng flood_jitter in
            schedule t ~delay (fun () -> broadcast t relayed)
          end
        end
      end
  | _ -> ()

let handle_rrep t ~src = function
  | Messages.Aodv_rrep r ->
      let chain_ok =
        (not t.secure)
        || Hash_chain.check ~hash:r.hash ~top_hash:r.top_hash ~max_hops:r.max_hops
             ~hop_count:r.hop_count
      in
      let sig_ok =
        (not t.secure)
        || verify_origin t ~ip:r.dst ~pk:r.dpk ~rn:r.drn
             ~payload:
               (rrep_payload ~requester:r.requester ~dst:r.dst ~dst_seq:r.dst_seq
                  ~top_hash:r.top_hash ~max_hops:r.max_hops)
             ~signature:r.sig_
      in
      if not chain_ok then
        reject t Key.aodv_hash_chain_rejected "saodv rrep hash chain"
      else if not sig_ok then
        reject t Key.aodv_rrep_rejected "saodv rrep destination signature"
      else begin
        (* Install the forward route toward the reported destination. *)
        Option.iter
          (fun prev ->
            route_update t ~dst:r.dst ~next:prev ~hops:(r.hop_count + 1) ~seq:r.dst_seq)
          (sender_addr t src);
        if Address.equal r.requester (address t) then route_established t r.dst
        else if r.hop_count + 1 < r.max_hops then begin
          (* The hop bound ends an RREP caught in a loop of routes to its
             requester, as it ends an RREQ flood. *)
          match route_lookup t r.requester with
          | Some e ->
              let hash = if t.secure then Hash_chain.advance r.hash else r.hash in
              unicast t ~next:e.next
                (Messages.Aodv_rrep { r with hop_count = r.hop_count + 1; hash })
          | None -> Ctx.stat t.ctx Key.aodv_rrep_no_reverse_route
        end
      end
  | _ -> ()

let rerr_for t dst =
  Ctx.stat t.ctx Key.rerr_sent;
  broadcast t (Messages.Aodv_rerr { unreachable = [ (dst, 0) ] })

(* AODV/SAODV route errors carry no origin signature (only RREQ/RREP are
   protected): error handling is unauthenticated.  Invalidate every
   listed destination routed via the sender, and propagate once for the
   ones actually dropped. *)
let handle_rerr t ~src unreachable =
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
  Ctx.stat t.ctx Key.rerr_received;
  if dropped <> [] then broadcast t (Messages.Aodv_rerr { unreachable = dropped })

let handle_data t m =
  match m with
  | Messages.Aodv_data { src; dst; seq; sent_at; _ } when Address.equal dst (address t) -> (
      let k = { Address.addr = src; seq } in
      if not (Address.Seq_tbl.mem t.seen_data k) then begin
        Address.Seq_tbl.replace t.seen_data k ();
        Ctx.stat t.ctx Key.data_delivered;
        Ctx.observe t.ctx Key.data_latency (now t -. sent_at)
      end;
      match route_lookup t src with
      | Some e ->
          unicast t ~next:e.next
            (Messages.Aodv_ack { src = address t; dst = src; data_seq = seq; sent_at })
      | None -> Ctx.stat t.ctx Key.aodv_ack_no_route)
  | Messages.Aodv_data { dst; _ } -> (
      match route_lookup t dst with
      | Some e ->
          Ctx.stat t.ctx Key.data_forwarded;
          unicast t ~next:e.next m ~on_fail:(fun () ->
              invalidate_route t dst;
              rerr_for t dst)
      | None -> rerr_for t dst)
  | _ -> ()

let handle_ack t m =
  match m with
  | Messages.Aodv_ack { src; dst; data_seq; sent_at } when Address.equal dst (address t) -> (
      let k = { Address.addr = src; seq = data_seq } in
      match Address.Seq_tbl.find_opt t.in_flight k with
      | Some _ ->
          Address.Seq_tbl.remove t.in_flight k;
          Ctx.stat t.ctx Key.data_acked;
          Ctx.observe t.ctx Key.data_rtt (now t -. sent_at)
      | None -> Ctx.stat t.ctx Key.ack_unmatched)
  | Messages.Aodv_ack { dst; _ } -> (
      match route_lookup t dst with
      | Some e -> unicast t ~next:e.next m
      | None -> ())
  | _ -> ()

let handle t ~src msg =
  match msg with
  | Messages.Aodv (Messages.Aodv_rreq _ as m) -> handle_rreq t ~src m
  | Messages.Aodv (Messages.Aodv_rrep _ as m) -> handle_rrep t ~src m
  | Messages.Aodv (Messages.Aodv_rerr { unreachable }) -> handle_rerr t ~src unreachable
  | Messages.Aodv (Messages.Aodv_data _ as m) -> handle_data t m
  | Messages.Aodv (Messages.Aodv_ack _ as m) -> handle_ack t m
  (* AODV runs without the source-routed protocols; DAD, DNS and their
     own traffic reach their agents before the routing dispatch. *)
  | Messages.Areq _ | Messages.Arep _ | Messages.Drep _ | Messages.Rreq _
  | Messages.Rrep _ | Messages.Crep _ | Messages.Rerr _ | Messages.Data _
  | Messages.Ack _ | Messages.Probe _ | Messages.Probe_reply _
  | Messages.Name_query _ | Messages.Name_reply _ | Messages.Ip_change_request _
  | Messages.Ip_change_challenge _ | Messages.Ip_change_proof _
  | Messages.Ip_change_ack _ -> ()
