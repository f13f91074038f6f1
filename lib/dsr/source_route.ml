module Address = Manet_ipv6.Address
module Prng = Manet_crypto.Prng
module Messages = Manet_proto.Messages
module Codec = Manet_proto.Codec
module Ctx = Manet_proto.Node_ctx
module Verdict = Manet_proto.Verdict
module Engine = Manet_sim.Engine
module Obs = Manet_obs.Obs
module Flood = Manet_obs.Flood
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
  let data_salvaged = Stats.key "data.salvaged"
  let data_timeout = Stats.key "data.timeout"
  let rerr_received = Stats.key "rerr.received"
  let rerr_sent = Stats.key "rerr.sent"
  let route_cache_replies = Stats.key "route.cache_replies"
  let route_discoveries = Stats.key "route.discoveries"
  let route_discovery_failed = Stats.key "route.discovery_failed"
  let route_discovery_time = Stats.key "route.discovery_time"
  let route_hops = Stats.key "route.hops"
  let route_replies = Stats.key "route.replies"
end

let discovery_timeout = 1.0
let max_discovery_attempts = 3
let ack_timeout = 1.5
let max_send_retries = 2
let cache_capacity_per_dst = 4
let flood_jitter = 0.01

type packet = {
  p_dst : Address.t;
  p_size : int;
  p_seq : int;
  p_first_sent : float;
  mutable p_retries : int;
}

type pending_discovery = {
  d_dst : Address.t;
  mutable d_seq : int; (* seq of the current attempt, binds the RREP *)
  mutable d_attempts : int;
  mutable d_resolved : bool;
  d_started : float;
  (* Telemetry: the whole discovery and the current attempt's flood. *)
  d_span : int;
  mutable d_flood : int option;
}

type purge = Purge_link | Purge_route

type ('x, 'm) t = {
  ctx : Ctx.t;
  hooks : ('x, 'm) hooks;
  ext : 'x;
  cache : 'm Route_cache.t;
  mutable rreq_seq : int;
  mutable data_seq : int;
  pending : pending_discovery Address.Tbl.t; (* by dst *)
  queue : packet Queue.t Address.Tbl.t; (* packets awaiting a route *)
  waiters : (Address.t list option -> unit) list ref Address.Tbl.t;
  seen_rreq : Flood.Seen.t; (* sip + seq *)
  reply_counts : int Flood.Ktbl.t; (* replies sent per request, for route diversity *)
  in_flight : packet Address.Seq_tbl.t; (* (dst, seq) *)
  seen_data : unit Address.Seq_tbl.t; (* delivered (src, seq): retries must not double-count *)
}

and ('x, 'm) hooks = {
  label : string;
  score : 'm Route_cache.entry -> float;
  rreq : ('x, 'm) t -> dst:Address.t -> seq:int -> superseded:int -> Messages.t;
  on_ack_timeout : ('x, 'm) t -> packet -> Address.t list -> bool;
  on_ack : ('x, 'm) t -> Address.t list -> unit;
  rerr :
    ('x, 'm) t ->
    broken_next:Address.t ->
    dst:Address.t ->
    remaining:Address.t list ->
    Messages.t;
  first_hop_purge : purge;
  use_acks : bool;
  salvage : bool;
}

let create ~hooks ~ext ctx =
  {
    ctx;
    hooks;
    ext;
    cache = Route_cache.create ~capacity_per_dst:cache_capacity_per_dst ();
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
let obs t = t.ctx.Ctx.obs
let no_ack_timeout _ _ _ = false
let no_ack _ _ = ()

(* Telemetry correlation keys, shared by every routing agent: a flood
   attempt is (source, seq); replies are identified by the fields both
   the responder and the consumer can see.  Built only while the event
   log is on ([Obs.wants_events]). *)
let rreq_corr ~sip ~seq = "rreq:" ^ Address.to_bytes sip ^ Codec.u32 seq

(* The RREQ dedup key (sip, seq), shared by every routing agent's
   seen-table, doubles as the flood-provenance key. *)
let rreq_key sip seq =
  (* manetcheck: allow hot-alloc — the 6-word lookup key (its int64 fields
     point at the address's own boxes) is the one allocation a duplicate
     copy makes. *)
  {
    Flood.kind = Flood.Rreq;
    hi = sip.Address.hi;
    lo = sip.Address.lo;
    seq;
    ch = 0L;
  }

(* A reply to a discovery, keyed for telemetry by the fields both its
   responder and its consumer can see. *)
type reply = Rrep of Messages.rrep | Crep of Messages.crep

let reply_corr = function
  | Rrep { sip; dip; rr; _ } ->
      "rrep:" ^ Address.to_bytes sip ^ Address.to_bytes dip
      ^ String.concat "" (List.map Address.to_bytes rr)
  | Crep { cacher; requester_seq; _ } ->
      "crep:" ^ Address.to_bytes cacher ^ Codec.u32 requester_seq

(* The responder's span of a reply to request [seq]: a child of the
   request's flood span, findable by the consumer under the reply's
   key.  With the log off it only takes its id. *)
let answer t ~seq reply =
  let o = obs t in
  let kind, sip, msg =
    match reply with
    | Rrep r -> ("route.rrep", r.sip, Messages.Rrep r)
    | Crep c -> ("route.crep", c.requester, Messages.Crep c)
  in
  let node = Ctx.node_id t.ctx in
  if not (Obs.wants_events o) then ignore (Obs.start o ~kind ~node ())
  else
    Obs.correlate o (reply_corr reply)
      (Obs.start o
         ?parent:(Obs.lookup o (rreq_corr ~sip ~seq))
         ~kind ~node
         ~detail:("to " ^ Address.to_string sip)
         ());
  msg

(* Prefer the shortest known route, as DSR does. *)
let shortest_first e =
  (* manetcheck: allow hot-list — a cached route is as long as its hop
     count, bounded by the discovery flood's hop radius. *)
  -.float_of_int (List.length e.Route_cache.route)

let cached_entry t ~dst = Route_cache.best t.cache ~dst ~score:t.hooks.score

let cached_route t ~dst =
  match cached_entry t ~dst with
  | Some e -> Some e.Route_cache.route
  | None -> None

let cached_routes t ~dst =
  List.map (fun e -> e.Route_cache.route) (Route_cache.entries t.cache ~dst)

(* The one place a packet is given up. *)
let drop t = Ctx.stat t.ctx Key.data_dropped

(* The full source route of a data packet: the intermediates, then the
   destination. *)
let path_via route dst = route @ [ dst ]

(* --- data transmission ------------------------------------------------ *)

let queue_for t dst =
  match Address.Tbl.find_opt t.queue dst with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Address.Tbl.add t.queue dst q;
      q

(* The very first hop is unreachable: purge, and let the ack timer
   drive the retry. *)
let first_hop_failed t ~dst route =
  match (t.hooks.first_hop_purge, route) with
  | Purge_link, next :: _ ->
      ignore (Route_cache.remove_link t.cache ~owner:(address t) ~a:(address t) ~b:next)
  | Purge_link, [] | Purge_route, _ -> Route_cache.remove_route t.cache ~dst ~route

let rec transmit t packet route =
  let dst = packet.p_dst in
  let path = path_via route dst in
  Ctx.send_along t.ctx ~path
    ~on_fail:(fun () -> first_hop_failed t ~dst route)
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
  (* Only an ack or its timer takes a packet out of the in-flight
     table, so without acks it is never put in. *)
  if t.hooks.use_acks then begin
    Address.Seq_tbl.replace t.in_flight { Address.addr = dst; seq = packet.p_seq } packet;
    Engine.schedule t.ctx.Ctx.engine ~label:t.hooks.label ~delay:ack_timeout
      (fun () -> ack_timed_out t packet route)
  end

and ack_timed_out t packet route =
  let k = { Address.addr = packet.p_dst; seq = packet.p_seq } in
  match Address.Seq_tbl.find_opt t.in_flight k with
  | Some p when p == packet ->
      Address.Seq_tbl.remove t.in_flight k;
      Ctx.stat t.ctx Key.data_timeout;
      (* This route failed silently (black hole or stale cache): forget
         it and retry over whatever is left, unless the protocol takes
         the packet over. *)
      Route_cache.remove_route t.cache ~dst:packet.p_dst ~route;
      if not (t.hooks.on_ack_timeout t packet route) then retry t packet
  | _ -> () (* acked in time, or resent since *)

and retry t packet =
  if packet.p_retries < max_send_retries then begin
    packet.p_retries <- packet.p_retries + 1;
    dispatch t packet
  end
  else drop t

and dispatch t packet =
  match cached_route t ~dst:packet.p_dst with
  | Some route -> transmit t packet route
  | None ->
      Queue.push packet (queue_for t packet.p_dst);
      start_discovery t packet.p_dst

(* --- route discovery --------------------------------------------------- *)

and start_discovery t dst =
  (* Resolved entries are kept so sibling replies of the same discovery
     can still be verified and cached; a fresh discovery replaces them
     and inherits the seq it supersedes. *)
  match Address.Tbl.find_opt t.pending dst with
  | Some d when not d.d_resolved -> ()
  | prior ->
      let o = obs t in
      let d_span =
        Obs.start o ~kind:"route.discovery" ~node:(Ctx.node_id t.ctx)
          ~detail:(if Obs.wants_events o then "dst=" ^ Address.to_string dst else "")
          ()
      in
      let d =
        {
          d_dst = dst;
          d_seq = (match prior with Some old -> old.d_seq | None -> 0);
          d_attempts = 0;
          d_resolved = false;
          d_started = now t;
          d_span;
          d_flood = None;
        }
      in
      Address.Tbl.replace t.pending dst d;
      send_rreq t d

and send_rreq t d =
  t.rreq_seq <- t.rreq_seq + 1;
  let seq = t.rreq_seq in
  let superseded = d.d_seq in
  d.d_seq <- seq;
  d.d_attempts <- d.d_attempts + 1;
  Ctx.stat t.ctx Key.route_discoveries;
  let sip = address t in
  let o = obs t in
  let keep = Obs.wants_events o in
  let fl =
    Obs.start o ~parent:d.d_span ~kind:"rreq.flood"
      ~node:(Ctx.node_id t.ctx)
      ~detail:
        (if keep then
           Printf.sprintf "dst=%s attempt=%d" (Address.to_string d.d_dst) d.d_attempts
         else "")
      ()
  in
  d.d_flood <- Some fl;
  if keep then Obs.correlate o (rreq_corr ~sip ~seq) fl;
  let rreq = t.hooks.rreq t ~dst:d.d_dst ~seq ~superseded in
  let floods = Obs.flood (obs t) in
  let flood = Flood.handle floods ~key:(rreq_key sip seq) ~origin:(Ctx.node_id t.ctx) in
  Flood.Seen.add t.seen_rreq flood;
  Flood.sent floods flood;
  Ctx.broadcast t.ctx rreq;
  Engine.schedule t.ctx.Ctx.engine ~label:t.hooks.label ~delay:discovery_timeout
    (fun () ->
      if not d.d_resolved then begin
        Obs.finish (obs t) fl Obs.Timeout;
        if d.d_attempts < max_discovery_attempts then send_rreq t d
        else discovery_failed t d
      end)

and discovery_failed t d =
  d.d_resolved <- true;
  Ctx.stat t.ctx Key.route_discovery_failed;
  Obs.finish (obs t) d.d_span Obs.Timeout;
  (match Address.Tbl.find_opt t.queue d.d_dst with
  | None -> ()
  | Some q ->
      Queue.iter (fun _ -> drop t) q;
      Queue.clear q);
  notify_waiters t d.d_dst None

and notify_waiters t dst result =
  match Address.Tbl.find_opt t.waiters dst with
  | None -> ()
  | Some l ->
      let callbacks = !l in
      Address.Tbl.remove t.waiters dst;
      List.iter (fun cb -> cb result) callbacks

let route_found t ~dst ~route ~meta =
  Route_cache.insert t.cache ~dst ~route ~meta ~now:(now t);
  (match Address.Tbl.find_opt t.pending dst with
  | Some d when not d.d_resolved ->
      d.d_resolved <- true;
      (match d.d_flood with
      | Some id -> Obs.finish (obs t) id Obs.Ok
      | None -> ());
      Obs.finish (obs t) d.d_span Obs.Ok;
      Ctx.observe t.ctx Key.route_discovery_time (now t -. d.d_started);
      Ctx.observe t.ctx Key.route_hops (float_of_int (List.length route + 1))
  | _ -> ());
  (* Flush queued packets over the fresh route. *)
  (match Address.Tbl.find_opt t.queue dst with
  | None -> ()
  | Some q ->
      let packets = List.of_seq (Queue.to_seq q) in
      Queue.clear q;
      List.iter (fun p -> dispatch t p) packets);
  notify_waiters t dst (Some route)

let send t ~dst ?(size = 512) () =
  t.data_seq <- t.data_seq + 1;
  Ctx.stat t.ctx Key.data_offered;
  dispatch t
    {
      p_dst = dst;
      p_size = size;
      p_seq = t.data_seq;
      p_first_sent = now t;
      p_retries = 0;
    }

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

(* --- relaying ------------------------------------------------------------- *)

(* Position of [me] in an intermediate list: the hops before and after. *)
let split_route_at route me =
  let rec go before = function
    | [] -> None
    | x :: rest when Address.equal x me -> Some (List.rev before, rest)
    | x :: rest -> go (x :: before) rest
  in
  go [] route

(* DSR packet salvaging: an intermediate whose next hop died may push the
   packet over its own cached route instead of dropping it (the RERR is
   still sent so the source stops using the dead link). *)
let salvage t msg =
  match msg with
  | Messages.Data ({ dst; _ } as d) -> (
      match cached_route t ~dst with
      | Some route when not (List.exists (Address.equal (address t)) route) ->
          Ctx.stat t.ctx Key.data_salvaged;
          let path = path_via route dst in
          Ctx.send_along t.ctx ~path (Messages.Data { d with route; remaining = path })
      | _ -> ())
  | _ -> ()

let forward_data t ~next msg =
  match msg with
  | Messages.Data { src; route; _ } ->
      Ctx.stat t.ctx Key.data_forwarded;
      Ctx.send_along t.ctx ~path:next msg ~on_fail:(fun () ->
          (* Link break: report back to the source (§3.4 / DSR route
             maintenance). *)
          let broken_next = List.hd next in
          let back =
            match split_route_at route (address t) with
            | Some (before, _) -> List.rev before @ [ src ]
            | None -> [ src ]
          in
          Ctx.stat t.ctx Key.rerr_sent;
          Ctx.send_along t.ctx ~path:back
            (t.hooks.rerr t ~broken_next ~dst:src ~remaining:back);
          if t.hooks.salvage then salvage t msg)
  | _ -> ()

let consume_data t msg =
  match msg with
  | Messages.Data { src; seq; route; sent_at; _ } ->
      (* Retransmissions of an already-delivered packet are re-acked but
         not re-counted. *)
      (* manetcheck: allow hot-alloc — the 3-word (src, seq) key is the one
         allocation the duplicate check makes. *)
      let k = { Address.addr = src; seq } in
      if not (Address.Seq_tbl.mem t.seen_data k) then begin
        Address.Seq_tbl.replace t.seen_data k ();
        Ctx.stat t.ctx Key.data_delivered;
        Ctx.observe t.ctx Key.data_latency (now t -. sent_at)
      end;
      if t.hooks.use_acks then begin
        let back_route = List.rev route in
        (* manetcheck: allow hot-alloc hot-list — the ack's path is the
           reversed route plus the source, one cell per hop it travels. *)
        let path = back_route @ [ src ] in
        Ctx.send_along t.ctx ~path
          (Messages.Ack
             (* manetcheck: allow hot-alloc — the ack this handler exists to
                send. *)
             {
               src = address t;
               dst = src;
               data_seq = seq;
               route = back_route;
               remaining = path;
               sent_at;
             })
      end
  | _ -> ()

let consume_ack t msg =
  match msg with
  | Messages.Ack { src = acker; data_seq; sent_at; route; _ } ->
      (* The acker is the data's destination, so the in-flight key is
         (acker, data_seq). *)
      (* manetcheck: allow hot-alloc — the 3-word (dst, seq) key is the one
         allocation an ack's lookup makes. *)
      let k = { Address.addr = acker; seq = data_seq } in
      if Address.Seq_tbl.mem t.in_flight k then begin
        Address.Seq_tbl.remove t.in_flight k;
        Ctx.stat t.ctx Key.data_acked;
        Ctx.observe t.ctx Key.data_rtt (now t -. sent_at);
        t.hooks.on_ack t route
      end
      else Ctx.stat t.ctx Key.ack_unmatched
  | _ -> ()

(* --- reception ------------------------------------------------------------ *)

let relay t ~next m = Ctx.send_along t.ctx ~path:next m

let deliver t ~src msg ~consume =
  Ctx.deliver_up t.ctx ~src msg ~consume
    ~forward:(fun ~next m -> relay t ~next m)
    ~not_mine:(fun _ -> ())

let deliver_data t ~src msg ~overheard =
  Ctx.deliver_up t.ctx ~src msg ~consume:(consume_data t)
    ~forward:(fun ~next m -> forward_data t ~next m)
    ~not_mine:overheard

let deliver_ack t ~src msg = deliver t ~src msg ~consume:(consume_ack t)

(* --- replies and route errors --------------------------------------------- *)

(* manetcheck: allow taint — plain DSR's replies and errors, and SRP's
   errors (no association with relays), are believed as they come: the
   §4 exposure the baselines exist to measure and the paper's checks close. *)
let unchecked _ _ = Verdict.Accepted { checks = [ Verdict.Unchecked ]; value = () }

(* A reply, the destination it offers a route to, and the route; a cache
   reply splices requester -> ... -> cacher -> ... -> destination. *)
let offer = function
  | Messages.Rrep r -> Some (Rrep r, r.dip, r.rr)
  | Messages.Crep c -> Some (Crep c, c.dip, c.rr_to_cacher @ (c.cacher :: c.rr_to_dest))
  | _ -> None

let consume_reply t ~src msg ~check =
  match offer msg with
  | None -> ()
  | Some (reply, dst, route) -> (
      let v = check t reply in
      Verdict.finish_span t.ctx reply_corr reply v;
      match v with
      | Verdict.Accepted { value = meta; _ } -> route_found t ~dst ~route ~meta
      | Verdict.Rejected r -> Verdict.audit t.ctx ~src r)

(* An unchecked report is audited as believed, so the exposure shows in
   a timeline next to the secure stack's rejections.  Unchecked replies
   are not: the audit log always records, and replies are many. *)
let consume_rerr t ~src msg ~check ~credit =
  match msg with
  | Messages.Rerr r -> (
      Ctx.stat t.ctx Key.rerr_received;
      match check t r with
      | Verdict.Rejected rejection -> Verdict.audit t.ctx ~src rejection
      | Verdict.Accepted { checks; _ } ->
          if checks = [ Verdict.Unchecked ] then
            Ctx.audit t.ctx ~kind:Manet_obs.Audit.Unverified_accept
              ~cause:("unauthenticated rerr from " ^ Address.to_string r.reporter ^ " believed")
              ();
          credit t r
            ~removed:
              (Route_cache.remove_link t.cache ~owner:(address t) ~a:r.reporter ~b:r.broken_next))
  | _ -> ()

(* --- route requests ------------------------------------------------------- *)

(* A destination answers several copies of one request (each arrives
   over a different path), giving the source route diversity. *)
let max_replies_per_request = 3

let srr_ips srr = List.map (fun e -> e.Messages.ip) srr

(* [me] sent the copy or is already on its record: it has looped. *)
let looped me ~sip rr = Address.equal sip me || List.exists (Address.equal me) rr

(* Every copy that reaches the destination is considered, up to the
   diversity bound, and checked on its own: a rushed poisoned copy must
   not mask an honest one. *)
let rreq_at_destination t ~flood ~key (r : Messages.rreq) ~accept ~endorse =
  let rr = srr_ips r.srr in
  if not (looped (address t) ~sip:r.sip rr) then begin
    let sent = Option.value ~default:0 (Flood.Ktbl.find_opt t.reply_counts key) in
    if sent < max_replies_per_request && accept t flood r then begin
      Flood.Ktbl.replace t.reply_counts key (sent + 1);
      Ctx.stat t.ctx Key.route_replies;
      let back = List.rev rr @ [ r.sip ] in
      let sig_, dpk, drn = endorse t r ~rr in
      Ctx.send_along t.ctx ~path:back
        (answer t ~seq:r.seq
           (Rrep { sip = r.sip; dip = address t; rr; remaining = back; sig_; dpk; drn }))
    end
  end

(* A cached route may answer a request only if it leads neither back
   to the source nor through a hop the copy already took. *)
let avoids (r : Messages.rreq) ~rr route =
  (not (List.exists (Address.equal r.sip) route))
  && not (List.exists (fun a -> List.exists (Address.equal a) rr) route)

(* The first copy at a relay: answer from the cache, or append the
   relay's route-record entry and rebroadcast. *)
let rreq_first_copy t ~flood (r : Messages.rreq) ~crep ~relay =
  Flood.Seen.add t.seen_rreq flood;
  let me = address t in
  let rr = srr_ips r.srr in
  if not (looped me ~sip:r.sip rr) then begin
    let back = List.rev rr @ [ r.sip ] in
    match crep t r ~rr ~back with
    | Some reply ->
        Ctx.stat t.ctx Key.route_cache_replies;
        Ctx.send_along t.ctx ~path:back reply
    | None ->
        (if Obs.wants_events (obs t) then
           match Obs.lookup (obs t) (rreq_corr ~sip:r.sip ~seq:r.seq) with
           | Some id ->
               Obs.note (obs t) id ~node:(Ctx.node_id t.ctx) ("relay " ^ Address.to_string me)
           | None -> ());
        let fields, entry = relay t r in
        let copy = Messages.Rreq { fields with srr = r.srr @ [ entry ] } in
        let delay = Prng.float t.ctx.Ctx.rng flood_jitter in
        Engine.schedule t.ctx.Ctx.engine ~label:t.hooks.label ~delay (fun () ->
            Flood.sent (Obs.flood (obs t)) flood;
            Ctx.broadcast t.ctx copy)
  end

let handle_rreq t ~src (r : Messages.rreq) ~accept ~endorse ~crep ~relay =
  let key = rreq_key r.sip r.seq in
  let floods = Obs.flood (obs t) in
  let flood = Flood.handle floods ~key ~origin:src in
  (* manetcheck: allow hot-list — the route record is as long as the
     copy's hop count, bounded by the flood's hop radius. *)
  let hops = List.length r.srr in
  Flood.received floods flood ~node:(Ctx.node_id t.ctx) ~src ~hops;
  let at_dest = Address.equal r.dip (address t) in
  if (not at_dest) && Flood.Seen.mem t.seen_rreq flood then Flood.duplicate floods flood
  else
    (* manetcheck: cold — at most once per (flood, node) /
       max_replies_per_request answers *)
    if at_dest then rreq_at_destination t ~flood ~key r ~accept ~endorse
    else rreq_first_copy t ~flood r ~crep ~relay
