module Address = Manet_ipv6.Address
module Cga = Manet_ipv6.Cga
module Prng = Manet_crypto.Prng
module Suite = Manet_crypto.Suite
module Messages = Manet_proto.Messages
module Codec = Manet_proto.Codec
module Ctx = Manet_proto.Node_ctx
module Directory = Manet_proto.Directory
module Identity = Manet_proto.Identity
module Audit = Manet_obs.Audit
module Obs = Manet_obs.Obs
module Stats = Manet_sim.Stats

(* Counter and series keys, bound once (see [Stats.key]). *)
module Key = struct
  let dns_client_challenge_unmatched = Stats.key "dns_client.challenge_unmatched"
  let dns_client_ip_change_rejected = Stats.key "dns_client.ip_change_rejected"
  let dns_client_ip_change_requested = Stats.key "dns_client.ip_change_requested"
  let dns_client_ip_changed = Stats.key "dns_client.ip_changed"
  let dns_client_queries = Stats.key "dns_client.queries"
  let dns_client_reply_rejected = Stats.key "dns_client.reply_rejected"
  let dns_client_reply_unmatched = Stats.key "dns_client.reply_unmatched"
  let dns_client_verified_replies = Stats.key "dns_client.verified_replies"
end

type pending_query = {
  q_name : string;
  q_ch : int64;
  q_cb : Address.t option -> unit;
  q_span : int; (* dns.query telemetry span *)
}

type pending_change = {
  c_old : Address.t;
  c_new : Address.t;
  c_new_rn : int64;
  c_route : Address.t list;
  c_cb : bool -> unit;
  c_span : int; (* dns.ip_change telemetry span *)
}

type t = {
  ctx : Ctx.t;
  dns_pk : string;
  dns_address : Address.t;
  queries : (int64, pending_query) Hashtbl.t;
  mutable change : pending_change option;
}

let create ~dns_pk ?(dns_address = Address.dns_server_1) ctx =
  { ctx; dns_pk; dns_address; queries = Hashtbl.create 8; change = None }

let query t ~route ~name ~callback =
  let ctx = t.ctx in
  let ch = Prng.bits64 ctx.Ctx.rng in
  let span =
    Obs.start ctx.Ctx.obs ~kind:"dns.query" ~node:(Ctx.node_id ctx)
      ~detail:(if Obs.wants_events ctx.Ctx.obs then "name=" ^ name else "")
      ()
  in
  Hashtbl.replace t.queries ch
    { q_name = name; q_ch = ch; q_cb = callback; q_span = span };
  Ctx.stat ctx Key.dns_client_queries;
  let path = route @ [ t.dns_address ] in
  Ctx.send_along ctx ~path
    (Messages.Name_query
       { requester = Ctx.address ctx; name; ch; route; remaining = path })

let consume_name_reply t (m : Messages.t) =
  match m with
  | Messages.Name_reply { name; result; ch; sig_; _ } -> (
      match Hashtbl.find_opt t.queries ch with
      | Some q when String.equal q.q_name name ->
          let suite = Ctx.suite t.ctx in
          if
            suite.Suite.verify ~pk_bytes:t.dns_pk
              ~msg:(Codec.name_reply_payload ~name ~result ~ch)
              ~signature:sig_
          then begin
            Hashtbl.remove t.queries ch;
            Ctx.stat t.ctx Key.dns_client_verified_replies;
            Obs.finish t.ctx.Ctx.obs q.q_span
              (match result with
              | Some _ -> Obs.Ok
              | None -> Obs.Rejected "name not found");
            q.q_cb result
          end
          else
            Ctx.audit t.ctx ~kind:Audit.Sig_verify_fail
              ~stats:[ Key.dns_client_reply_rejected ]
              ~cause:"name reply dns server signature" ()
      | _ -> Ctx.stat t.ctx Key.dns_client_reply_unmatched)
  | _ -> ()

let request_ip_change t ~route ~callback =
  let ctx = t.ctx in
  let id = ctx.Ctx.identity in
  let new_rn, new_ip = Cga.fresh ctx.Ctx.rng ~pk_bytes:(Identity.pk_bytes id) in
  let old_ip = Ctx.address ctx in
  let span =
    Obs.start ctx.Ctx.obs ~kind:"dns.ip_change" ~node:(Ctx.node_id ctx)
      ~detail:
        (if Obs.wants_events ctx.Ctx.obs then
           Printf.sprintf "%s -> %s" (Address.to_string old_ip)
             (Address.to_string new_ip)
         else "")
      ()
  in
  t.change <-
    Some
      {
        c_old = old_ip;
        c_new = new_ip;
        c_new_rn = new_rn;
        c_route = route;
        c_cb = callback;
        c_span = span;
      };
  Ctx.stat ctx Key.dns_client_ip_change_requested;
  let path = route @ [ t.dns_address ] in
  Ctx.send_along ctx ~path
    (Messages.Ip_change_request { old_ip; new_ip; route; remaining = path })

let consume_challenge t (m : Messages.t) =
  match m with
  | Messages.Ip_change_challenge { old_ip; new_ip; ch; _ } -> (
      match t.change with
      | Some c when Address.equal c.c_old old_ip && Address.equal c.c_new new_ip ->
          let ctx = t.ctx in
          let id = ctx.Ctx.identity in
          let sig_ =
            Identity.sign id (Codec.ip_change_payload ~old_ip ~new_ip ~ch)
          in
          let path = c.c_route @ [ t.dns_address ] in
          Ctx.send_along ctx ~path
            (Messages.Ip_change_proof
               {
                 old_ip;
                 new_ip;
                 old_rn = id.Identity.rn;
                 new_rn = c.c_new_rn;
                 pk = Identity.pk_bytes id;
                 sig_;
                 route = c.c_route;
                 remaining = path;
               })
      | _ -> Ctx.stat t.ctx Key.dns_client_challenge_unmatched)
  | _ -> ()

let consume_ack t (m : Messages.t) =
  match m with
  | Messages.Ip_change_ack { old_ip; new_ip; accepted; _ } -> (
      match t.change with
      | Some c when Address.equal c.c_old old_ip && Address.equal c.c_new new_ip ->
          t.change <- None;
          let ctx = t.ctx in
          if accepted then begin
            let id = ctx.Ctx.identity in
            Directory.unregister ctx.Ctx.directory old_ip (Ctx.node_id ctx);
            id.Identity.rn <- c.c_new_rn;
            id.Identity.address <- new_ip;
            Directory.register ctx.Ctx.directory new_ip (Ctx.node_id ctx);
            Ctx.stat ctx Key.dns_client_ip_changed;
            if Obs.wants_events ctx.Ctx.obs then
              Ctx.log ctx ~event:"dns_client.ip_changed"
                ~detail:(Address.to_string new_ip)
          end
          else
            Ctx.audit ctx ~kind:Audit.Dns_conflict
              ~stats:[ Key.dns_client_ip_change_rejected ]
              ~cause:"dns refused our ip change" ();
          Obs.finish ctx.Ctx.obs c.c_span
            (if accepted then Obs.Ok else Obs.Rejected "dns refused");
          c.c_cb accepted
      | _ -> ())
  | _ -> ()

let handle t ~src msg =
  match msg with
  | Messages.Name_reply _ | Messages.Ip_change_challenge _
  | Messages.Ip_change_ack _ ->
      Ctx.deliver_up t.ctx ~src msg
        ~consume:(fun m ->
          match m with
          | Messages.Name_reply _ -> consume_name_reply t m
          | Messages.Ip_change_challenge _ -> consume_challenge t m
          | Messages.Ip_change_ack _ -> consume_ack t m
          | _ -> ())
        ~forward:(fun ~next m -> Ctx.send_along t.ctx ~path:next m)
        ~not_mine:(fun _ -> ())
  (* The client only consumes lookup/IP-change replies; everything else
     is enumerated so a new Messages constructor fails the manetcheck
     dispatch rule instead of being silently dropped. *)
  | Messages.Areq _ | Messages.Arep _ | Messages.Drep _ | Messages.Rreq _
  | Messages.Rrep _ | Messages.Crep _ | Messages.Rerr _ | Messages.Data _
  | Messages.Ack _ | Messages.Probe _ | Messages.Probe_reply _
  | Messages.Name_query _ | Messages.Ip_change_request _
  | Messages.Ip_change_proof _ | Messages.Aodv _ -> ()
