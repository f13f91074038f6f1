module Address = Manet_ipv6.Address
module Prng = Manet_crypto.Prng
module Hmac = Manet_crypto.Hmac
module Messages = Manet_proto.Messages
module Codec = Manet_proto.Codec
module Ctx = Manet_proto.Node_ctx
module Audit = Manet_obs.Audit
module Obs = Manet_obs.Obs
module Flood = Manet_obs.Flood
module Engine = Manet_sim.Engine
module Route_cache = Manet_dsr.Route_cache
module Dsr = Manet_dsr.Dsr
module Stats = Manet_sim.Stats

(* Counter and series keys, bound once (see [Stats.key]). *)
module Key = struct
  let ack_unmatched = Stats.key "ack.unmatched"
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
  let route_discovery_time = Stats.key "route.discovery_time"
  let route_hops = Stats.key "route.hops"
  let route_replies = Stats.key "route.replies"
  let srp_rrep_rejected = Stats.key "srp.rrep_rejected"
  let srp_rreq_rejected = Stats.key "srp.rreq_rejected"
end

type config = {
  discovery_timeout : float;
  max_discovery_attempts : int;
  ack_timeout : float;
  max_send_retries : int;
  cache_capacity_per_dst : int;
  flood_jitter : float;
}

let default_config =
  {
    discovery_timeout = 1.0;
    max_discovery_attempts = 3;
    ack_timeout = 1.5;
    max_send_retries = 2;
    cache_capacity_per_dst = 4;
    flood_jitter = 0.01;
  }

let pair_key ~master a b =
  let x = Address.to_bytes a and y = Address.to_bytes b in
  let lo, hi = if String.compare x y <= 0 then (x, y) else (y, x) in
  Hmac.hmac_sha256 ~key:master (lo ^ hi)

let rreq_mac ~key ~sip ~dip ~seq =
  Hmac.hmac_sha256 ~key ("SRPQ|" ^ Codec.addr sip ^ Codec.addr dip ^ Codec.u32 seq)

let rrep_mac ~key ~sip ~seq ~rr =
  Hmac.hmac_sha256 ~key ("SRPP|" ^ Codec.addr sip ^ Codec.u32 seq ^ Codec.route rr)

type packet = {
  p_dst : Address.t;
  p_size : int;
  p_seq : int;
  p_first_sent : float;
  mutable p_retries : int;
}

type pending_discovery = {
  d_dst : Address.t;
  mutable d_seq : int;
  mutable d_attempts : int;
  mutable d_resolved : bool;
  d_started : float;
}

type t = {
  ctx : Ctx.t;
  config : config;
  master : string;
  cache : unit Route_cache.t;
  mutable rreq_seq : int;
  mutable data_seq : int;
  pending : pending_discovery Address.Tbl.t;
  queue : packet Queue.t Address.Tbl.t;
  waiters : (Address.t list option -> unit) list ref Address.Tbl.t;
  seen_rreq : Flood.Seen.t;
  reply_counts : int Flood.Ktbl.t;
  in_flight : packet Address.Seq_tbl.t;
  seen_data : unit Address.Seq_tbl.t;
}

let create ?(config = default_config) ~master ctx =
  {
    ctx;
    config;
    master;
    cache = Route_cache.create ~capacity_per_dst:config.cache_capacity_per_dst ();
    rreq_seq = 0;
    data_seq = 0;
    pending = Address.Tbl.create 16;
    queue = Address.Tbl.create 16;
    waiters = Address.Tbl.create 8;
    seen_rreq = Flood.Seen.create ();
    reply_counts = Flood.Ktbl.create 64;
    in_flight = Address.Seq_tbl.create 32;
    seen_data = Address.Seq_tbl.create 64;
  }

let address t = Ctx.address t.ctx
let now t = Ctx.now t.ctx
let key_with t other = pair_key ~master:t.master (address t) other

let cached_route t ~dst =
  Option.map
    (fun e -> e.Route_cache.route)
    (Route_cache.best t.cache ~dst ~score:(fun e ->
         -.float_of_int (List.length e.Route_cache.route)))

let cached_routes t ~dst =
  List.map (fun e -> e.Route_cache.route) (Route_cache.entries t.cache ~dst)

(* --- data plane (same skeleton as the baseline) ------------------------ *)

let queue_for t dst =
  match Address.Tbl.find_opt t.queue dst with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Address.Tbl.add t.queue dst q;
      q

let rec transmit t packet route =
  let dst = packet.p_dst in
  Address.Seq_tbl.replace t.in_flight { Address.addr = dst; seq = packet.p_seq } packet;
  let path = route @ [ dst ] in
  Ctx.send_along t.ctx ~path
    ~on_fail:(fun () -> Route_cache.remove_route t.cache ~dst ~route)
    (Messages.Data
       {
         src = address t;
         dst;
         seq = packet.p_seq;
         route;
         remaining = path;
         payload_size = packet.p_size;
         sent_at = packet.p_first_sent;
       });
  Engine.schedule t.ctx.Ctx.engine ~label:"srp" ~delay:t.config.ack_timeout
    (fun () ->
      let k = { Address.addr = dst; seq = packet.p_seq } in
      match Address.Seq_tbl.find_opt t.in_flight k with
      | Some p when p == packet ->
          Address.Seq_tbl.remove t.in_flight k;
          Ctx.stat t.ctx Key.data_timeout;
          Route_cache.remove_route t.cache ~dst ~route;
          if packet.p_retries < t.config.max_send_retries then begin
            packet.p_retries <- packet.p_retries + 1;
            dispatch t packet
          end
          else Ctx.stat t.ctx Key.data_dropped
      | _ -> ())

and dispatch t packet =
  match cached_route t ~dst:packet.p_dst with
  | Some route -> transmit t packet route
  | None ->
      Queue.push packet (queue_for t packet.p_dst);
      start_discovery t packet.p_dst

and start_discovery t dst =
  match Address.Tbl.find_opt t.pending dst with
  | Some d when not d.d_resolved -> ()
  | _ ->
      let d =
        { d_dst = dst; d_seq = 0; d_attempts = 0; d_resolved = false; d_started = now t }
      in
      Address.Tbl.replace t.pending dst d;
      send_rreq t d

and send_rreq t d =
  t.rreq_seq <- t.rreq_seq + 1;
  let seq = t.rreq_seq in
  d.d_seq <- seq;
  d.d_attempts <- d.d_attempts + 1;
  Ctx.stat t.ctx Key.route_discoveries;
  let sip = address t in
  (* The end-to-end MAC rides in the message's signature field; no key
     material travels (both ends already share the association). *)
  let mac = rreq_mac ~key:(key_with t d.d_dst) ~sip ~dip:d.d_dst ~seq in
  let fl = Obs.flood t.ctx.Ctx.obs in
  let flood =
    Flood.handle fl ~key:(Dsr.rreq_key sip seq) ~origin:(Ctx.node_id t.ctx)
  in
  Flood.Seen.add t.seen_rreq flood;
  Flood.sent fl flood;
  Ctx.broadcast t.ctx
    (Messages.Rreq { sip; dip = d.d_dst; seq; srr = []; sig_ = mac; spk = ""; srn = 0L });
  Engine.schedule t.ctx.Ctx.engine ~label:"srp"
    ~delay:t.config.discovery_timeout (fun () ->
      if not d.d_resolved then begin
        if d.d_attempts < t.config.max_discovery_attempts then send_rreq t d
        else begin
          d.d_resolved <- true;
          Ctx.stat t.ctx Key.route_discovery_failed;
          (match Address.Tbl.find_opt t.queue d.d_dst with
          | Some q ->
              Queue.iter (fun _ -> Ctx.stat t.ctx Key.data_dropped) q;
              Queue.clear q
          | None -> ());
          notify_waiters t d.d_dst None
        end
      end)

and notify_waiters t dst result =
  match Address.Tbl.find_opt t.waiters dst with
  | None -> ()
  | Some l ->
      let callbacks = !l in
      Address.Tbl.remove t.waiters dst;
      List.iter (fun cb -> cb result) callbacks

and route_found t ~dst ~route =
  Route_cache.insert t.cache ~dst ~route ~meta:() ~now:(now t);
  (match Address.Tbl.find_opt t.pending dst with
  | Some d when not d.d_resolved ->
      d.d_resolved <- true;
      Ctx.observe t.ctx Key.route_discovery_time (now t -. d.d_started);
      Ctx.observe t.ctx Key.route_hops (float_of_int (List.length route + 1))
  | _ -> ());
  (match Address.Tbl.find_opt t.queue dst with
  | Some q ->
      let packets = List.of_seq (Queue.to_seq q) in
      Queue.clear q;
      List.iter (fun p -> dispatch t p) packets
  | None -> ());
  notify_waiters t dst (Some route)

let send t ~dst ?(size = 512) () =
  t.data_seq <- t.data_seq + 1;
  Ctx.stat t.ctx Key.data_offered;
  dispatch t
    { p_dst = dst; p_size = size; p_seq = t.data_seq; p_first_sent = now t; p_retries = 0 }

let discover t ~dst ~on_route =
  match cached_route t ~dst with
  | Some route -> on_route (Some route)
  | None ->
      let l =
        match Address.Tbl.find_opt t.waiters dst with
        | Some l -> l
        | None ->
            let l = ref [] in
            Address.Tbl.add t.waiters dst l;
            l
      in
      l := on_route :: !l;
      start_discovery t dst

(* --- discovery handling -------------------------------------------------- *)

let srr_ips srr = List.map (fun e -> e.Messages.ip) srr
let max_replies_per_request = 3

let rreq_at_destination t ~flood ~key ~sip ~dip ~seq ~srr ~sig_ =
  let me = address t in
  let rr = srr_ips srr in
  if not (Address.equal sip me || List.exists (Address.equal me) rr) then begin
    let sent = Option.value ~default:0 (Flood.Ktbl.find_opt t.reply_counts key) in
    if sent < max_replies_per_request then begin
      (* End-to-end verification only: the pair MAC proves the
         request's origin; the collected hops are taken on faith —
         SRP's deliberate trade-off. *)
      Flood.verified (Obs.flood t.ctx.Ctx.obs) flood ~node:(Ctx.node_id t.ctx);
      let k_sd = key_with t sip in
      if String.equal sig_ (rreq_mac ~key:k_sd ~sip ~dip ~seq) then begin
        Flood.Ktbl.replace t.reply_counts key (sent + 1);
        Ctx.stat t.ctx Key.route_replies;
        let back = List.rev rr @ [ sip ] in
        Ctx.send_along t.ctx ~path:back
          (Messages.Rrep
             {
               sip;
               dip = me;
               rr;
               remaining = back;
               sig_ = rrep_mac ~key:k_sd ~sip ~seq ~rr;
               dpk = "";
               drn = 0L;
             })
      end
      else
        Ctx.audit t.ctx ~kind:Audit.Sig_verify_fail
          ~stats:[ Key.srp_rreq_rejected ]
          ~cause:"rreq end-to-end MAC" ()
    end
  end

let rreq_first_copy t ~flood ~sip ~dip ~seq ~srr ~sig_ =
  Flood.Seen.add t.seen_rreq flood;
  let me = address t in
  let rr = srr_ips srr in
  if Address.equal sip me || List.exists (Address.equal me) rr then ()
  else begin
    (* manetcheck: allow placeholder-sig — relay with a bare address record:
       intermediates neither sign nor verify anything under SRP — this is a
       designated unsigned site, not a forgotten signature. *)
    let entry = { Messages.ip = me; sig_ = ""; pk = ""; rn = 0L } in
    let relayed =
      Messages.Rreq { sip; dip; seq; srr = srr @ [ entry ]; sig_; spk = ""; srn = 0L }
    in
    let delay = Prng.float t.ctx.Ctx.rng t.config.flood_jitter in
    Engine.schedule t.ctx.Ctx.engine ~label:"srp" ~delay (fun () ->
        Flood.sent (Obs.flood t.ctx.Ctx.obs) flood;
        Ctx.broadcast t.ctx relayed)
  end

let handle_rreq t ~src msg =
  match msg with
  | Messages.Rreq { sip; dip; seq; srr; sig_; _ } ->
      let key = Dsr.rreq_key sip seq in
      let fl = Obs.flood t.ctx.Ctx.obs in
      let flood = Flood.handle fl ~key ~origin:src in
      (* manetcheck: allow hot-list — the route record is as long as the
         copy's hop count, bounded by the flood's hop radius. *)
      let hops = List.length srr in
      Flood.received fl flood ~node:(Ctx.node_id t.ctx) ~src ~hops;
      let at_dest = Address.equal dip (address t) in
      if (not at_dest) && Flood.Seen.mem t.seen_rreq flood then
        Flood.duplicate fl flood
      else
        (* manetcheck: cold — at most once per (flood, node) /
           max_replies_per_request answers *)
        if at_dest then
          rreq_at_destination t ~flood ~key ~sip ~dip ~seq ~srr ~sig_
        else rreq_first_copy t ~flood ~sip ~dip ~seq ~srr ~sig_
  | _ -> ()

let consume_rrep t msg =
  match msg with
  | Messages.Rrep { dip; rr; sig_; _ } -> (
      match Address.Tbl.find_opt t.pending dip with
      | Some d ->
          let k_sd = key_with t dip in
          if
            String.equal sig_
              (rrep_mac ~key:k_sd ~sip:(address t) ~seq:d.d_seq ~rr)
          then route_found t ~dst:dip ~route:rr
          else
            Ctx.audit t.ctx ~kind:Audit.Sig_verify_fail
              ~stats:[ Key.srp_rrep_rejected ]
              ~cause:"rrep end-to-end MAC" ()
      | None ->
          Ctx.audit t.ctx ~kind:Audit.Replay_rejected
            ~stats:[ Key.srp_rrep_rejected ]
            ~cause:"unsolicited rrep" ())
  | _ -> ()

(* --- maintenance / data -------------------------------------------------- *)

let split_route_at route me =
  let rec go before = function
    | [] -> None
    | x :: rest when Address.equal x me -> Some (List.rev before, rest)
    | x :: rest -> go (x :: before) rest
  in
  go [] route

let forward_data t ~next msg =
  match msg with
  | Messages.Data { src; route; _ } ->
      Ctx.stat t.ctx Key.data_forwarded;
      Ctx.send_along t.ctx ~path:next msg ~on_fail:(fun () ->
          let me = address t in
          let broken_next = List.hd next in
          let back =
            match split_route_at route me with
            | Some (before, _) -> List.rev before @ [ src ]
            | None -> [ src ]
          in
          Ctx.stat t.ctx Key.rerr_sent;
          (* SRP has no association with intermediates: the error report
             is necessarily unauthenticated (designated unsigned site). *)
          Ctx.send_along t.ctx ~path:back
            (Messages.Rerr
               { reporter = me; broken_next; dst = src; remaining = back;
                 (* manetcheck: allow placeholder-sig — the error report
                    is necessarily unsigned: SRP has no association with
                    intermediates (designated unsigned site, see above). *)
                 sig_ = ""; pk = ""; rn = 0L }))
  | _ -> ()

let consume_data t msg =
  match msg with
  | Messages.Data { src; seq; route; sent_at; _ } ->
      let k = { Address.addr = src; seq } in
      if not (Address.Seq_tbl.mem t.seen_data k) then begin
        Address.Seq_tbl.replace t.seen_data k ();
        Ctx.stat t.ctx Key.data_delivered;
        Ctx.observe t.ctx Key.data_latency (now t -. sent_at)
      end;
      let back_route = List.rev route in
      let path = back_route @ [ src ] in
      Ctx.send_along t.ctx ~path
        (Messages.Ack
           { src = address t; dst = src; data_seq = seq; route = back_route;
             remaining = path; sent_at })
  | _ -> ()

let consume_ack t msg =
  match msg with
  | Messages.Ack { src = acker; data_seq; sent_at; _ } -> (
      let k = { Address.addr = acker; seq = data_seq } in
      if Address.Seq_tbl.mem t.in_flight k then begin
        Address.Seq_tbl.remove t.in_flight k;
        Ctx.stat t.ctx Key.data_acked;
        Ctx.observe t.ctx Key.data_rtt (now t -. sent_at)
      end
      else Ctx.stat t.ctx Key.ack_unmatched)
  | _ -> ()

let consume_rerr t msg =
  match msg with
  (* manetcheck: allow security — SRP cannot authenticate intermediate error
     reports (no security association with relays), so it believes them — the
     documented exposure the paper's full scheme removes. *)
  | Messages.Rerr { reporter; broken_next; _ } ->
      Ctx.stat t.ctx Key.rerr_received;
      (* Unauthenticated, so believed — SRP's documented exposure. *)
      ignore
        (* manetcheck: allow taint — SRP has no security association with
           relays, so RERR cannot be verified; acting on it unverified is
           the §3.4 exposure this module exists to exhibit as a baseline. *)
        (Route_cache.remove_link t.cache ~owner:(address t) ~a:reporter ~b:broken_next)
  | _ -> ()

let handle t ~src msg =
  match msg with
  | Messages.Rreq _ -> handle_rreq t ~src msg
  | Messages.Rrep _ ->
      Ctx.deliver_up t.ctx ~src msg ~consume:(consume_rrep t)
        ~forward:(fun ~next m -> Ctx.send_along t.ctx ~path:next m)
        ~not_mine:(fun _ -> ())
  | Messages.Data _ ->
      Ctx.deliver_up t.ctx ~src msg ~consume:(consume_data t)
        ~forward:(fun ~next m -> forward_data t ~next m)
        ~not_mine:(fun _ -> ())
  | Messages.Ack _ ->
      Ctx.deliver_up t.ctx ~src msg ~consume:(consume_ack t)
        ~forward:(fun ~next m -> Ctx.send_along t.ctx ~path:next m)
        ~not_mine:(fun _ -> ())
  | Messages.Rerr _ ->
      Ctx.deliver_up t.ctx ~src msg ~consume:(consume_rerr t)
        ~forward:(fun ~next m -> Ctx.send_along t.ctx ~path:next m)
        ~not_mine:(fun _ -> ())
  (* SRP is routing-plane only: DAD/DNS traffic is transit to relay,
     enumerated so a new Messages constructor forces a decision here. *)
  | Messages.Areq _ | Messages.Arep _ | Messages.Drep _ | Messages.Crep _
  | Messages.Probe _ | Messages.Probe_reply _ | Messages.Name_query _
  | Messages.Name_reply _ | Messages.Ip_change_request _
  | Messages.Ip_change_challenge _ | Messages.Ip_change_proof _
  | Messages.Ip_change_ack _ ->
      Ctx.forward_transit t.ctx ~src msg
