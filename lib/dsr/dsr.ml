module Address = Manet_ipv6.Address
module Messages = Manet_proto.Messages
module Ctx = Manet_proto.Node_ctx
module Audit = Manet_obs.Audit
module Obs = Manet_obs.Obs
module Stats = Manet_sim.Stats
module Sr = Source_route

(* Counter keys, bound once (see [Stats.key]); the shared data-plane
   keys live in [Source_route]. *)
module Key = struct
  let route_shortened = Stats.key "route.shortened"
end

type config = {
  use_cache_replies : bool;
  use_acks : bool;
  route_shortening : bool;
}

let default_config =
  { use_cache_replies = true; use_acks = true; route_shortening = false }

type t = (config, unit) Sr.t

let address = Sr.address

(* Plain DSR: route record carried in the SRR field with empty
   authentication. *)
let rreq t ~dst ~seq ~superseded:_ =
  Messages.Rreq { sip = address t; dip = dst; seq; srr = []; sig_ = ""; spk = ""; srn = 0L }

let rerr t ~broken_next ~dst ~remaining =
  Messages.Rerr
    { reporter = address t; broken_next; dst; remaining; sig_ = ""; pk = ""; rn = 0L }

let create ?(config = default_config) ctx =
  Sr.create ctx ~ext:config
    ~hooks:
      {
        Sr.label = "dsr";
        score = Sr.shortest_first;
        rreq;
        on_ack_timeout = Sr.no_ack_timeout;
        on_ack = Sr.no_ack;
        rerr;
        first_hop_purge = Sr.Purge_link;
        use_acks = config.use_acks;
        salvage = true;
      }

let send = Sr.send
let discover = Sr.discover
let cached_routes = Sr.cached_routes

(* --- route requests --------------------------------------------------------- *)

(* Plain DSR checks nothing: every copy at the destination is answered,
   up to the diversity bound. *)
let accept_any _ _ _ = true

let rrep t (r : Messages.rreq) ~rr ~back =
  let dip = address t in
  Sr.reply_span t ~sip:r.sip ~seq:r.seq (Sr.Rrep { sip = r.sip; dip; rr });
  Messages.Rrep { sip = r.sip; dip; rr; remaining = back; sig_ = ""; dpk = ""; drn = 0L }

(* Any cached route may answer, when cache replies are on. *)
let crep t (r : Messages.rreq) ~rr ~back =
  match if t.Sr.ext.use_cache_replies then Sr.cached_route t ~dst:r.dip else None with
  | Some route when Sr.avoids r ~rr route ->
      let cacher = address t in
      Sr.reply_span t ~sip:r.sip ~seq:r.seq (Sr.Crep { cacher; seq = r.seq });
      Some
        (Messages.Crep
           {
             requester = r.sip;
             cacher;
             dip = r.dip;
             requester_seq = r.seq;
             cacher_seq = 0;
             rr_to_cacher = rr;
             rr_to_dest = route;
             remaining = back;
             sig_cacher = "";
             cacher_pk = "";
             cacher_rn = 0L;
             sig_dest = "";
             dest_pk = "";
             dest_rn = 0L;
           })
  | _ -> None

(* A bare address entry; the copy carries no source signature. *)
let relay t (r : Messages.rreq) =
  ( { r with sig_ = ""; spk = ""; srn = 0L },
    { Messages.ip = address t; sig_ = ""; pk = ""; rn = 0L } )

(* --- source-routed message handling ------------------------------------ *)

let consume_rrep t msg =
  match msg with
  (* manetcheck: allow security — unauthenticated baseline: replies accepted
     as-is (see handle). *)
  | Messages.Rrep { sip; dip; rr; _ } ->
      Sr.finish_reply t (Sr.Rrep { sip; dip; rr }) Obs.Ok;
      (* manetcheck: allow taint — plain DSR is the deliberately
         unauthenticated §4 baseline; accepting the reply without any
         check is the vulnerability Secure_routing closes. *)
      Sr.route_found t ~dst:dip ~route:rr ~meta:()
  | _ -> ()

let consume_crep t msg =
  match msg with
  (* manetcheck: allow security — unauthenticated baseline: cached replies
     accepted as-is. *)
  | Messages.Crep { cacher; dip; requester_seq; rr_to_cacher; rr_to_dest; _ } ->
      Sr.finish_reply t (Sr.Crep { cacher; seq = requester_seq }) Obs.Ok;
      (* Splice: requester -> ... -> cacher -> ... -> destination. *)
      let route = rr_to_cacher @ (cacher :: rr_to_dest) in
      (* manetcheck: allow taint — same unauthenticated §4 baseline as
         consume_rrep: cached replies are trusted verbatim by design. *)
      Sr.route_found t ~dst:dip ~route ~meta:()
  | _ -> ()

(* DSR automatic route shortening: on a promiscuous radio we may
   overhear a data frame whose remaining hops include us further down the
   line — the hops between the transmitter and us are unnecessary.  Tell
   the source with a gratuitous route reply carrying the shortened
   route. *)
let overheard_data t msg =
  match msg with
  | Messages.Data { src; dst; route; remaining; _ }
    when t.Sr.ext.route_shortening -> (
      let me = address t in
      match remaining with
      | head :: (_ :: _ as tail)
        when (not (Address.equal head me)) && List.exists (Address.equal me) tail
        -> (
          (* Shortened full route: drop everything between the hop before
             [head] and us. *)
          match Sr.split_route_at route me with
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
                Ctx.stat t.Sr.ctx Key.route_shortened;
                (* Back to the source through the hops the packet already
                   used (we are in range of the last of them). *)
                let back = List.rev upto @ [ src ] in
                Ctx.send_along t.Sr.ctx ~path:back
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
      Ctx.stat t.Sr.ctx Sr.Key.rerr_received;
      (* Plain DSR believes any error report.  The audit stream still
         records the unverified acceptance so the exposure shows up in a
         timeline next to the secure stack's rejections. *)
      Ctx.audit t.Sr.ctx ~kind:Audit.Unverified_accept
        ~cause:
          ("unauthenticated rerr from " ^ Address.to_string reporter
         ^ " believed")
        ();
      ignore
        (* manetcheck: allow taint — believing unauthenticated RERRs is the
           exact §4 forgery exposure the baseline exists to measure. *)
        (Route_cache.remove_link t.Sr.cache ~owner:(address t) ~a:reporter ~b:broken_next)
  | _ -> ()

let handle t ~src msg =
  match msg with
  (* manetcheck: allow security — plain DSR is the deliberately
     unauthenticated baseline (§3.3 uses it as the point of comparison):
     requests carry signature fields on the wire but this layer never checks
     them. *)
  | Messages.Rreq r -> Sr.handle_rreq t ~src r ~accept:accept_any ~rrep ~crep ~relay
  | Messages.Rrep _ -> Sr.deliver t ~src msg ~consume:(consume_rrep t)
  | Messages.Crep _ -> Sr.deliver t ~src msg ~consume:(consume_crep t)
  | Messages.Data _ -> Sr.deliver_data t ~src msg ~overheard:(fun m -> overheard_data t m)
  | Messages.Ack _ -> Sr.deliver_ack t ~src msg
  | Messages.Rerr _ -> Sr.deliver t ~src msg ~consume:(consume_rerr t)
  | Messages.Probe _ | Messages.Probe_reply _ | Messages.Name_query _
  | Messages.Name_reply _ | Messages.Ip_change_request _
  | Messages.Ip_change_challenge _ | Messages.Ip_change_proof _
  | Messages.Ip_change_ack _ ->
      Ctx.forward_transit t.Sr.ctx ~src msg
  | Messages.Areq _ | Messages.Arep _ | Messages.Drep _ | Messages.Aodv _ -> ()
