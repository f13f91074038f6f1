module Address = Manet_ipv6.Address
module Prng = Manet_crypto.Prng
module Messages = Manet_proto.Messages
module Codec = Manet_proto.Codec
module Ctx = Manet_proto.Node_ctx
module Audit = Manet_obs.Audit
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
  let route_shortened = Stats.key "route.shortened"
end

type config = {
  discovery_timeout : float;
  max_discovery_attempts : int;
  use_cache_replies : bool;
  ack_timeout : float;
  max_send_retries : int;
  cache_capacity_per_dst : int;
  flood_jitter : float;
  use_acks : bool;
  salvage : bool;
  route_shortening : bool;
}

let default_config =
  {
    discovery_timeout = 1.0;
    max_discovery_attempts = 3;
    use_cache_replies = true;
    ack_timeout = 1.5;
    max_send_retries = 2;
    cache_capacity_per_dst = 4;
    flood_jitter = 0.01;
    use_acks = true;
    salvage = true;
    route_shortening = false;
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
  d_started : float;
  (* Telemetry: the whole discovery and the current attempt's flood. *)
  mutable d_span : int option;
  mutable d_flood : int option;
}

type t = {
  ctx : Ctx.t;
  config : config;
  cache : unit Route_cache.t;
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

(* Telemetry correlation keys, shared with [Manet_secure]: a flood
   attempt is (source, seq); replies are identified by the fields both
   the responder and the consumer can see. *)
let rreq_corr ~sip ~seq = "rreq:" ^ Address.to_bytes sip ^ Codec.u32 seq

(* The RREQ dedup key (sip, seq), shared with [Manet_secure], doubles as
   the flood-provenance key. *)
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

let rrep_corr ~sip ~dip ~rr =
  "rrep:" ^ Address.to_bytes sip ^ Address.to_bytes dip
  ^ String.concat "" (List.map Address.to_bytes rr)

let crep_corr ~cacher ~seq = "crep:" ^ Address.to_bytes cacher ^ Codec.u32 seq

let create ?(config = default_config) ctx =
  {
    ctx;
    config;
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
let obs t = t.ctx.Ctx.obs

let floods t = Obs.flood (obs t)

(* Prefer the shortest known route, as DSR does. *)
let shortest_first e =
  (* manetcheck: allow hot-list — a cached route is as long as its hop
     count, bounded by the discovery flood's hop radius. *)
  -.float_of_int (List.length e.Route_cache.route)

let cached_route t ~dst =
  match Route_cache.best t.cache ~dst ~score:shortest_first with
  | Some e -> Some e.Route_cache.route
  | None -> None

let cached_routes t ~dst =
  List.map (fun e -> e.Route_cache.route) (Route_cache.entries t.cache ~dst)


(* --- data transmission ------------------------------------------------ *)

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
  let msg =
    Messages.Data
      {
        src = address t;
        dst;
        seq = packet.p_seq;
        route;
        remaining = path;
        payload_size = packet.p_size;
        sent_at = packet.p_first_sent;
      }
  in
  Ctx.send_along t.ctx ~path
    ~on_fail:(fun () ->
      (* The very first hop is unreachable: purge and let the ack timer
         drive the retry. *)
      (match route with
      | next :: _ ->
          ignore (Route_cache.remove_link t.cache ~owner:(address t) ~a:(address t) ~b:next)
      | [] -> ignore (Route_cache.remove_route t.cache ~dst ~route)))
    msg;
  if t.config.use_acks then
    Engine.schedule t.ctx.Ctx.engine ~label:"dsr" ~delay:t.config.ack_timeout
      (fun () -> ack_timeout t packet route)

and ack_timeout t packet route =
  let k = { Address.addr = packet.p_dst; seq = packet.p_seq } in
  match Address.Seq_tbl.find_opt t.in_flight k with
  | None -> () (* acked in time *)
  | Some p when p != packet -> ()
  | Some _ ->
      Address.Seq_tbl.remove t.in_flight k;
      Ctx.stat t.ctx Key.data_timeout;
      (* This route failed silently (black hole or stale cache): forget
         it and retry over whatever is left. *)
      Route_cache.remove_route t.cache ~dst:packet.p_dst ~route;
      if packet.p_retries < t.config.max_send_retries then begin
        packet.p_retries <- packet.p_retries + 1;
        dispatch t packet
      end
      else Ctx.stat t.ctx Key.data_dropped

and dispatch t packet =
  match cached_route t ~dst:packet.p_dst with
  | Some route -> transmit t packet route
  | None ->
      Queue.push packet (queue_for t packet.p_dst);
      start_discovery t packet.p_dst

(* --- route discovery --------------------------------------------------- *)

and start_discovery t dst =
  if not (Address.Tbl.mem t.pending dst) then begin
    let d =
      {
        d_dst = dst;
        d_attempts = 0;
        d_resolved = false;
        d_started = now t;
        d_span = None;
        d_flood = None;
      }
    in
    d.d_span <-
      Some
        (Obs.start (obs t) ~kind:"route.discovery" ~node:(Ctx.node_id t.ctx)
           ~detail:("dst=" ^ Address.to_string dst)
           ());
    Address.Tbl.add t.pending dst d;
    send_rreq t d
  end

and send_rreq t d =
  t.rreq_seq <- t.rreq_seq + 1;
  let seq = t.rreq_seq in
  d.d_attempts <- d.d_attempts + 1;
  Ctx.stat t.ctx Key.route_discoveries;
  let fl =
    Obs.start (obs t) ?parent:d.d_span ~kind:"rreq.flood"
      ~node:(Ctx.node_id t.ctx)
      ~detail:
        (Printf.sprintf "dst=%s attempt=%d"
           (Address.to_string d.d_dst)
           d.d_attempts)
      ()
  in
  d.d_flood <- Some fl;
  Obs.correlate (obs t) (rreq_corr ~sip:(address t) ~seq) fl;
  (* Plain DSR: route record carried in the SRR field with empty
     authentication. *)
  let flood =
    Flood.handle (floods t) ~key:(rreq_key (address t) seq)
      ~origin:(Ctx.node_id t.ctx)
  in
  Flood.Seen.add t.seen_rreq flood;
  Flood.sent (floods t) flood;
  Ctx.broadcast t.ctx
    (Messages.Rreq
       { sip = address t; dip = d.d_dst; seq; srr = []; sig_ = ""; spk = ""; srn = 0L });
  Engine.schedule t.ctx.Ctx.engine ~label:"dsr" ~delay:t.config.discovery_timeout
    (fun () ->
      if not d.d_resolved then begin
        Obs.finish (obs t) fl Obs.Timeout;
        if d.d_attempts < t.config.max_discovery_attempts then send_rreq t d
        else discovery_failed t d
      end)

and discovery_failed t d =
  d.d_resolved <- true;
  Address.Tbl.remove t.pending d.d_dst;
  Ctx.stat t.ctx Key.route_discovery_failed;
  (match d.d_span with
  | Some id -> Obs.finish (obs t) id Obs.Timeout
  | None -> ());
  (match Address.Tbl.find_opt t.queue d.d_dst with
  | None -> ()
  | Some q ->
      Queue.iter (fun _ -> Ctx.stat t.ctx Key.data_dropped) q;
      Queue.clear q);
  notify_waiters t d.d_dst None

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
      Address.Tbl.remove t.pending dst;
      (match d.d_flood with
      | Some id -> Obs.finish (obs t) id Obs.Ok
      | None -> ());
      (match d.d_span with
      | Some id -> Obs.finish (obs t) id Obs.Ok
      | None -> ());
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

(* --- RREQ handling (flood side) ---------------------------------------- *)

let srr_ips srr = List.map (fun e -> e.Messages.ip) srr

let answer_as_destination t ~sip ~seq ~rr =
  Ctx.stat t.ctx Key.route_replies;
  let o = obs t in
  let sid =
    Obs.start o
      ?parent:(Obs.lookup o (rreq_corr ~sip ~seq))
      ~kind:"route.rrep"
      ~node:(Ctx.node_id t.ctx)
      ~detail:("to " ^ Address.to_string sip)
      ()
  in
  Obs.correlate o (rrep_corr ~sip ~dip:(address t) ~rr) sid;
  let back = List.rev rr @ [ sip ] in
  Ctx.send_along t.ctx ~path:back
    (Messages.Rrep
       { sip; dip = address t; rr; remaining = back; sig_ = ""; dpk = ""; drn = 0L })

let answer_from_cache t ~sip ~seq ~dip ~rr cached =
  Ctx.stat t.ctx Key.route_cache_replies;
  let o = obs t in
  let sid =
    Obs.start o
      ?parent:(Obs.lookup o (rreq_corr ~sip ~seq))
      ~kind:"route.crep"
      ~node:(Ctx.node_id t.ctx)
      ~detail:("to " ^ Address.to_string sip)
      ()
  in
  Obs.correlate o (crep_corr ~cacher:(address t) ~seq) sid;
  let back = List.rev rr @ [ sip ] in
  Ctx.send_along t.ctx ~path:back
    (Messages.Crep
       {
         requester = sip;
         cacher = address t;
         dip;
         requester_seq = seq;
         cacher_seq = 0;
         rr_to_cacher = rr;
         rr_to_dest = cached;
         remaining = back;
         sig_cacher = "";
         cacher_pk = "";
         cacher_rn = 0L;
         sig_dest = "";
         dest_pk = "";
         dest_rn = 0L;
       })

(* DSR destinations answer several copies of the same request (each
   arrives over a different path), giving the source route diversity. *)
let max_replies_per_request = 3

(* Every copy that reaches the destination is considered, up to the
   diversity bound. *)
let rreq_at_destination t ~key ~sip ~seq ~srr =
  let me = address t in
  let rr = srr_ips srr in
  if not (Address.equal sip me || List.exists (Address.equal me) rr) then begin
    let sent = Option.value ~default:0 (Flood.Ktbl.find_opt t.reply_counts key) in
    if sent < max_replies_per_request then begin
      Flood.Ktbl.replace t.reply_counts key (sent + 1);
      answer_as_destination t ~sip ~seq ~rr
    end
  end

(* First copy of a flood at a relay: answer from the route cache or
   rebroadcast with our address appended. *)
let rreq_first_copy t ~flood ~sip ~dip ~seq ~srr =
  Flood.Seen.add t.seen_rreq flood;
  let me = address t in
  let rr = srr_ips srr in
  if Address.equal sip me || List.exists (Address.equal me) rr then ()
  else begin
    match
      if t.config.use_cache_replies then cached_route t ~dst:dip else None
    with
    | Some cached
      when (not (List.exists (Address.equal sip) cached))
           && not (List.exists (fun a -> List.exists (Address.equal a) rr) cached) ->
        answer_from_cache t ~sip ~seq ~dip ~rr cached
    | _ ->
        (match Obs.lookup (obs t) (rreq_corr ~sip ~seq) with
        | Some id ->
            Obs.note (obs t) id ~node:(Ctx.node_id t.ctx)
              ("relay " ^ Address.to_string me)
        | None -> ());
        let entry = { Messages.ip = me; sig_ = ""; pk = ""; rn = 0L } in
        let relayed =
          Messages.Rreq
            { sip; dip; seq; srr = srr @ [ entry ]; sig_ = ""; spk = ""; srn = 0L }
        in
        let delay = Prng.float t.ctx.Ctx.rng t.config.flood_jitter in
        Engine.schedule t.ctx.Ctx.engine ~label:"dsr" ~delay (fun () ->
            Flood.sent (floods t) flood;
            Ctx.broadcast t.ctx relayed)
  end

let handle_rreq t ~src msg =
  match msg with
  (* manetcheck: allow security — plain DSR is the deliberately
     unauthenticated baseline (§3.3 uses it as the point of comparison):
     requests carry signature fields on the wire but this layer never checks
     them. *)
  | Messages.Rreq { sip; dip; seq; srr; _ } ->
      let key = rreq_key sip seq in
      let flood = Flood.handle (floods t) ~key ~origin:src in
      (* manetcheck: allow hot-list — the route record is as long as the
         copy's hop count, bounded by the flood's hop radius. *)
      let hops = List.length srr in
      Flood.received (floods t) flood ~node:(Ctx.node_id t.ctx) ~src ~hops;
      let at_dest = Address.equal dip (address t) in
      if (not at_dest) && Flood.Seen.mem t.seen_rreq flood then
        Flood.duplicate (floods t) flood
      else
        (* manetcheck: cold — at most once per (flood, node) /
           max_replies_per_request answers *)
        if at_dest then rreq_at_destination t ~key ~sip ~seq ~srr
        else rreq_first_copy t ~flood ~sip ~dip ~seq ~srr
  | _ -> ()

(* --- source-routed message handling ------------------------------------ *)

let consume_rrep t msg =
  match msg with
  (* manetcheck: allow security — unauthenticated baseline: replies accepted
     as-is (see handle_rreq). *)
  | Messages.Rrep { sip; dip; rr; _ } ->
      (match Obs.lookup (obs t) (rrep_corr ~sip ~dip ~rr) with
      | Some sid -> Obs.finish (obs t) sid Obs.Ok
      | None -> ());
      (* manetcheck: allow taint — plain DSR is the deliberately
         unauthenticated §4 baseline; accepting the reply without any
         check is the vulnerability Secure_routing closes. *)
      route_found t ~dst:dip ~route:rr
  | _ -> ()

let consume_crep t msg =
  match msg with
  (* manetcheck: allow security — unauthenticated baseline: cached replies
     accepted as-is. *)
  | Messages.Crep { cacher; dip; requester_seq; rr_to_cacher; rr_to_dest; _ } ->
      (match Obs.lookup (obs t) (crep_corr ~cacher ~seq:requester_seq) with
      | Some sid -> Obs.finish (obs t) sid Obs.Ok
      | None -> ());
      (* Splice: requester -> ... -> cacher -> ... -> destination. *)
      let route = rr_to_cacher @ (cacher :: rr_to_dest) in
      (* manetcheck: allow taint — same unauthenticated §4 baseline as
         consume_rrep: cached replies are trusted verbatim by design. *)
      route_found t ~dst:dip ~route
  | _ -> ()

let split_route_at route me =
  (* Position of [me] in the intermediate list: hops before / after. *)
  let rec go before = function
    | [] -> None
    | x :: rest when Address.equal x me -> Some (List.rev before, rest)
    | x :: rest -> go (x :: before) rest
  in
  go [] route

(* DSR packet salvaging: an intermediate whose next hop died may push the
   packet over its own cached route instead of dropping it (the RERR is
   still sent so the source stops using the dead link). *)
let try_salvage t msg =
  match msg with
  | Messages.Data ({ dst; _ } as d) when t.config.salvage -> (
      match cached_route t ~dst with
      | Some route
        when not (List.exists (Address.equal (address t)) route) ->
          Ctx.stat t.ctx Key.data_salvaged;
          let path = route @ [ dst ] in
          Ctx.send_along t.ctx ~path
            (Messages.Data { d with route; remaining = path });
          true
      | _ -> false)
  | _ -> false

let forward_data t ~next msg =
  match msg with
  | Messages.Data { src; route; _ } ->
      Ctx.stat t.ctx Key.data_forwarded;
      Ctx.send_along t.ctx ~path:next msg ~on_fail:(fun () ->
          (* Link break: report back to the source (§3.4 / DSR route
             maintenance). *)
          let me = address t in
          let broken_next = List.hd next in
          let back =
            match split_route_at route me with
            | Some (before, _) -> List.rev before @ [ src ]
            | None -> [ src ]
          in
          Ctx.stat t.ctx Key.rerr_sent;
          Ctx.send_along t.ctx ~path:back
            (Messages.Rerr
               {
                 reporter = me;
                 broken_next;
                 dst = src;
                 remaining = back;
                 sig_ = "";
                 pk = "";
                 rn = 0L;
               });
          ignore (try_salvage t msg))
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
      if t.config.use_acks then begin
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
  | Messages.Ack { src = acker; data_seq; sent_at; _ } -> (
      (* The acker is the data's destination, so the in-flight key is
         (acker, data_seq). *)
      (* manetcheck: allow hot-alloc — the 3-word (dst, seq) key is the one
         allocation an ack's lookup makes. *)
      let k = { Address.addr = acker; seq = data_seq } in
      if Address.Seq_tbl.mem t.in_flight k then begin
        Address.Seq_tbl.remove t.in_flight k;
        Ctx.stat t.ctx Key.data_acked;
        Ctx.observe t.ctx Key.data_rtt (now t -. sent_at)
      end
      else Ctx.stat t.ctx Key.ack_unmatched)
  | _ -> ()

(* DSR automatic route shortening: on a promiscuous radio we may
   overhear a data frame whose remaining hops include us further down the
   line — the hops between the transmitter and us are unnecessary.  Tell
   the source with a gratuitous route reply carrying the shortened
   route. *)
let overheard_data t msg =
  match msg with
  | Messages.Data { src; dst; route; remaining; _ }
    when t.config.route_shortening -> (
      let me = address t in
      match remaining with
      | head :: (_ :: _ as tail)
        when (not (Address.equal head me)) && List.exists (Address.equal me) tail
        -> (
          (* Shortened full route: drop everything between the hop before
             [head] and us. *)
          match split_route_at route me with
          | Some (_, after_me) ->
              let upto =
                (* intermediates the packet already passed: route minus
                   remaining, i.e. those before [head] *)
                let rec before acc = function
                  | [] -> List.rev acc
                  | x :: _ when Address.equal x head -> List.rev acc
                  | x :: rest -> before (x :: acc) rest
                in
                before [] route
              in
              let shortened = upto @ (me :: after_me) in
              if List.length shortened < List.length route then begin
                Ctx.stat t.ctx Key.route_shortened;
                (* Back to the source through the hops the packet already
                   used (we are in range of the last of them). *)
                let back = List.rev upto @ [ src ] in
                Ctx.send_along t.ctx ~path:back
                  (Messages.Rrep
                     {
                       sip = src;
                       dip = dst;
                       rr = shortened;
                       remaining = back;
                       sig_ = "";
                       dpk = "";
                       drn = 0L;
                     })
              end
          | None -> ())
      | _ -> ())
  | _ -> ()

let consume_rerr t msg =
  match msg with
  (* manetcheck: allow security — plain DSR believes any error report — the
     exact weakness the §4 RERR-forgery adversary exploits and secure routing
     closes. *)
  | Messages.Rerr { reporter; broken_next; _ } ->
      Ctx.stat t.ctx Key.rerr_received;
      (* Plain DSR believes any error report.  The audit stream still
         records the unverified acceptance so the exposure shows up in a
         timeline next to the secure stack's rejections. *)
      Ctx.audit t.ctx ~kind:Audit.Unverified_accept
        ~cause:
          ("unauthenticated rerr from " ^ Address.to_string reporter
         ^ " believed")
        ();
      ignore
        (* manetcheck: allow taint — believing unauthenticated RERRs is the
           exact §4 forgery exposure the baseline exists to measure. *)
        (Route_cache.remove_link t.cache ~owner:(address t) ~a:reporter ~b:broken_next)
  | _ -> ()

let handle t ~src msg =
  match msg with
  | Messages.Rreq _ -> handle_rreq t ~src msg
  | Messages.Rrep _ ->
      Ctx.deliver_up t.ctx ~src msg ~consume:(consume_rrep t)
        ~forward:(fun ~next m -> Ctx.send_along t.ctx ~path:next m)
        ~not_mine:(fun _ -> ())
  | Messages.Crep _ ->
      Ctx.deliver_up t.ctx ~src msg ~consume:(consume_crep t)
        ~forward:(fun ~next m -> Ctx.send_along t.ctx ~path:next m)
        ~not_mine:(fun _ -> ())
  | Messages.Data _ ->
      Ctx.deliver_up t.ctx ~src msg ~consume:(consume_data t)
        ~forward:(fun ~next m -> forward_data t ~next m)
        ~not_mine:(fun m -> overheard_data t m)
  | Messages.Ack _ ->
      Ctx.deliver_up t.ctx ~src msg ~consume:(consume_ack t)
        ~forward:(fun ~next m -> Ctx.send_along t.ctx ~path:next m)
        ~not_mine:(fun _ -> ())
  | Messages.Rerr _ ->
      Ctx.deliver_up t.ctx ~src msg ~consume:(consume_rerr t)
        ~forward:(fun ~next m -> Ctx.send_along t.ctx ~path:next m)
        ~not_mine:(fun _ -> ())
  | Messages.Probe _ | Messages.Probe_reply _ | Messages.Name_query _
  | Messages.Name_reply _ | Messages.Ip_change_request _
  | Messages.Ip_change_challenge _ | Messages.Ip_change_proof _
  | Messages.Ip_change_ack _ ->
      Ctx.forward_transit t.ctx ~src msg
  | Messages.Areq _ | Messages.Arep _ | Messages.Drep _ -> ()
