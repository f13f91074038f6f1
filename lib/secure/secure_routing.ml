module Address = Manet_ipv6.Address
module Cga = Manet_ipv6.Cga
module Suite = Manet_crypto.Suite
module Messages = Manet_proto.Messages
module Codec = Manet_proto.Codec
module Ctx = Manet_proto.Node_ctx
module Identity = Manet_proto.Identity
module Engine = Manet_sim.Engine
module Route_cache = Manet_dsr.Route_cache
module Sr = Manet_dsr.Source_route
module Obs = Manet_obs.Obs
module Audit = Manet_obs.Audit
module Flood = Manet_obs.Flood
module Stats = Manet_sim.Stats

(* Counter keys, bound once (see [Stats.key]); the shared data-plane
   keys live in [Source_route]. *)
module Key = struct
  let probe_last_hop_suspected = Stats.key "probe.last_hop_suspected"
  let probe_replied = Stats.key "probe.replied"
  let probe_reply_rejected = Stats.key "probe.reply_rejected"
  let probe_sent = Stats.key "probe.sent"
  let probe_suspect_found = Stats.key "probe.suspect_found"
  let secure_crep_rejected = Stats.key "secure.crep_rejected"
  let secure_hostile_suspected = Stats.key "secure.hostile_suspected"
  let secure_replayed_rreq = Stats.key "secure.replayed_rreq"
  let secure_rerr_implausible = Stats.key "secure.rerr_implausible"
  let secure_rerr_rejected = Stats.key "secure.rerr_rejected"
  let secure_rrep_rejected = Stats.key "secure.rrep_rejected"
  let secure_rreq_rejected = Stats.key "secure.rreq_rejected"
  let secure_transit_rejected = Stats.key "secure.transit_rejected"
end

type config = {
  use_cache_replies : bool;
  use_credits : bool;
  probe_on_timeout : bool;
  verify_at_destination : bool;
  salvage : bool;
  credit : Credit.config;
}

let default_config =
  {
    use_cache_replies = true;
    use_credits = true;
    probe_on_timeout = true;
    verify_at_destination = true;
    salvage = true;
    credit = Credit.default_config;
  }

(* How long a black-hole probe waits for every hop's signed reply. *)
let probe_timeout = 1.0

type endorsement = { e_sig : string; e_pk : string; e_rn : int64; e_seq : int }
(* The destination's [SIP, seq, RR]_DSK over a route this node
   discovered: replayed in CREPs as proof of provenance. *)

type probe_session = {
  pr_route : Address.t array;
  pr_replies : bool array;
  pr_packet : Sr.packet;
  mutable pr_done : bool;
  pr_span : int; (* secure.probe telemetry span *)
}

(* The agent's own state, next to the shared data plane's. *)
type state = {
  config : config;
  credits : Credit.t;
  mutable probe_seq : int;
  last_rreq_seq : int Address.Tbl.t; (* per-source replay window *)
  (* Per-destination memory of our own superseded discovery sequence
     numbers, with the time each stopped being current.  A reply whose
     signature verifies against one of these long after it was retired
     is a definite replay (§4) — an honest sibling can only trail the
     seq bump by a path latency. *)
  old_rrep_seqs : (int * float) list Address.Tbl.t;
  probes : (int, probe_session * int) Hashtbl.t;
  (* Pre-distributed (address, public key) bindings.  The paper's only
     such binding is the DNS server: its well-known address is not a CGA,
     but every host holds its public key before joining, which identifies
     it just as strongly. *)
  trusted : string Address.Tbl.t;
}

type t = (state, endorsement option) Sr.t

(* §3.4: under credits a route is as good as its weakest relay, the
   shorter route winning near-ties; otherwise the shortest route wins. *)
let route_score ~use_credits credits e =
  (* manetcheck: allow hot-list — a cached route is as long as its hop
     count, bounded by the discovery flood's hop radius. *)
  let len = float_of_int (List.length e.Route_cache.route) in
  if use_credits then
    let mc = Credit.min_credit credits e.Route_cache.route in
    let mc = if mc = infinity then 1e9 else mc in
    mc -. (0.001 *. len)
  else -.len

let address = Sr.address
let now = Sr.now
let obs (t : t) = t.Sr.ctx.Ctx.obs

let floods t = Obs.flood (obs t)
let credits (t : t) = t.Sr.ext.credits
let identity t = t.Sr.ctx.Ctx.identity
let suite t = Ctx.suite t.Sr.ctx

let verify t ~pk_bytes ~msg ~signature =
  (suite t).Suite.verify ~pk_bytes ~msg ~signature

type host_check = Host_ok | Bad_binding | Bad_sig

let verify_host_r t ~ip ~pk ~rn ~payload ~signature =
  (* The two checks of §3: the address-to-key binding and the
     challenge/sequence signature.  The binding is the CGA rule for
     ordinary hosts; for pre-distributed identities (the DNS server) it
     is exact equality with the known public key.  The split verdict
     feeds the audit stream: a failed binding is a forged identity
     (Cga_mismatch), a failed signature under a good binding points at
     stale or tampered content. *)
  let binding_ok =
    match Address.Tbl.find_opt t.Sr.ext.trusted ip with
    | Some known_pk -> String.equal known_pk pk
    | None ->
        Suite.count_hash (Ctx.suite t.Sr.ctx) ~bytes:(String.length pk + 8);
        Cga.verify ip ~pk_bytes:pk ~rn
  in
  if not binding_ok then Bad_binding
  else if verify t ~pk_bytes:pk ~msg:payload ~signature then Host_ok
  else Bad_sig

let verify_host t ~ip ~pk ~rn ~payload ~signature =
  match verify_host_r t ~ip ~pk ~rn ~payload ~signature with
  | Host_ok -> true
  | Bad_binding | Bad_sig -> false

(* How long an honest sibling reply may trail its discovery attempt's
   supersession before a match against the retired seq counts as a
   replay: generous against path latency, far below a replayer's
   capture-to-reuse gap. *)
let stale_seq_grace = 3.0

let note_superseded_seq t ~dst ~seq =
  if seq > 0 then begin
    let prior = Option.value ~default:[] (Address.Tbl.find_opt t.Sr.ext.old_rrep_seqs dst) in
    let keep l = if List.length l > 8 then List.filteri (fun i _ -> i < 8) l else l in
    Address.Tbl.replace t.Sr.ext.old_rrep_seqs dst (keep ((seq, now t) :: prior))
  end

(* Does [payload_for seq_old] verify for any retired seq of [dst]?
   Returns the retirement age when it does.  Only consulted on already
   rejected replies, so the extra verifications stay off every honest
   path. *)
let match_retired_seq t ~dst ~pk ~signature ~payload_for =
  match Address.Tbl.find_opt t.Sr.ext.old_rrep_seqs dst with
  | None -> None
  | Some seqs ->
      List.find_map
        (fun (seq, retired_at) ->
          if verify t ~pk_bytes:pk ~msg:(payload_for ~seq) ~signature then
            Some (now t -. retired_at)
          else None)
        seqs

(* --- what the data plane asks of the protocol ------------------------------ *)

(* Every retired discovery seq is remembered (see [old_rrep_seqs]); the
   source signs its own [(SIP, seq)]. *)
let rreq t ~dst ~seq ~superseded =
  note_superseded_seq t ~dst ~seq:superseded;
  let id = identity t in
  let sip = address t in
  let sig_ = Identity.sign id (Codec.rreq_source_payload ~sip ~seq) in
  Messages.Rreq
    { sip; dip = dst; seq; srr = []; sig_; spk = Identity.pk_bytes id; srn = id.Identity.rn }

(* The reporter signs the link it claims is broken. *)
let rerr t ~broken_next ~dst ~remaining =
  let me = address t in
  let id = identity t in
  Messages.Rerr
    {
      reporter = me;
      broken_next;
      dst;
      remaining;
      sig_ = Identity.sign id (Codec.rerr_payload ~reporter:me ~broken_next);
      pk = Identity.pk_bytes id;
      rn = id.Identity.rn;
    }

(* §3.4: every relay on the acknowledged route earns credit. *)
let reward_acked_route t route = Credit.reward_route t.Sr.ext.credits route

let finish_probe t session =
  if not session.pr_done then begin
    session.pr_done <- true;
    let n = Array.length session.pr_route in
    let rec first_missing i = if i >= n then None else if session.pr_replies.(i) then first_missing (i + 1) else Some i in
    (match first_missing 0 with
    | Some i ->
        let suspect = session.pr_route.(i) in
        Ctx.audit t.Sr.ctx ~kind:Audit.Blackhole_probe_result ~subject:suspect
          ~stats:[ Key.probe_suspect_found; Key.secure_hostile_suspected ]
          ~cause:
            (Printf.sprintf "hop %d of %d silent on probed route to %s" (i + 1)
               n
               (Address.to_string session.pr_packet.Sr.p_dst))
          ();
        if Obs.wants_events (obs t) then begin
          Obs.note (obs t) session.pr_span ~node:(Ctx.node_id t.Sr.ctx)
            ("suspect " ^ Address.to_string suspect);
          Ctx.log t.Sr.ctx ~event:"secure.suspect"
            ~detail:(Address.to_string suspect)
        end;
        Credit.slash t.Sr.ext.credits suspect;
        ignore (Route_cache.remove_containing t.Sr.cache suspect);
        (* The hop before the suspect may be the one silently dropping;
           under credits it simply stops earning until proven useful. *)
        if i > 0 then begin
          let before = session.pr_route.(i - 1) in
          Ctx.audit t.Sr.ctx ~kind:Audit.Credit_slash ~subject:before
            ~cause:
              ("predecessor of silent hop " ^ Address.to_string suspect)
            ();
          Credit.slash t.Sr.ext.credits before
        end
    | None ->
        (* Every hop answered the probe, yet the destination never acked
           and nobody reported a broken link.  The prime suspect is the
           last hop: it accepted the data and claims a working link to
           the destination (this is also how a one-hop forged route is
           caught — the forger happily proves its own liveness). *)
        if n > 0 then begin
          let suspect = session.pr_route.(n - 1) in
          Ctx.audit t.Sr.ctx ~kind:Audit.Blackhole_probe_result ~subject:suspect
            ~stats:[ Key.probe_last_hop_suspected; Key.secure_hostile_suspected ]
            ~cause:
              (Printf.sprintf
                 "all %d hops answered, destination %s never acked: last hop \
                  claims the dead link"
                 n
                 (Address.to_string session.pr_packet.Sr.p_dst))
            ();
          if Obs.wants_events (obs t) then begin
            Obs.note (obs t) session.pr_span ~node:(Ctx.node_id t.Sr.ctx)
              ("last-hop suspect " ^ Address.to_string suspect);
            Ctx.log t.Sr.ctx ~event:"secure.suspect"
              ~detail:(Address.to_string suspect)
          end;
          Credit.slash t.Sr.ext.credits suspect;
          ignore (Route_cache.remove_containing t.Sr.cache suspect)
        end);
    Obs.finish (obs t) session.pr_span Obs.Ok;
    Sr.retry t session.pr_packet
  end

(* §3.4: traverse the silent route and test the integrity of each host.
   One probe per hop prefix; the first hop that returns no verifiable
   signed reply is the suspect. *)
let start_probe t packet route =
  let hops = Array.of_list route in
  let session =
    {
      pr_route = hops;
      pr_replies = Array.make (Array.length hops) false;
      pr_packet = packet;
      pr_done = false;
      pr_span =
        Obs.start (obs t) ~kind:"secure.probe" ~node:(Ctx.node_id t.Sr.ctx)
          ~detail:
            (if Obs.wants_events (obs t) then
               Printf.sprintf "dst=%s hops=%d"
                 (Address.to_string packet.Sr.p_dst)
                 (Array.length hops)
             else "")
          ();
    }
  in
  Array.iteri
    (fun i target ->
      t.Sr.ext.probe_seq <- t.Sr.ext.probe_seq + 1;
      let seq = t.Sr.ext.probe_seq in
      Hashtbl.replace t.Sr.ext.probes seq (session, i);
      let prefix = Array.to_list (Array.sub hops 0 i) in
      let path = prefix @ [ target ] in
      Ctx.stat t.Sr.ctx Key.probe_sent;
      Ctx.send_along t.Sr.ctx ~path
        (Messages.Probe
           { origin = address t; target; seq; route = prefix; remaining = path }))
    hops;
  Engine.schedule t.Sr.ctx.Ctx.engine ~label:"secure" ~delay:probe_timeout
    (fun () -> finish_probe t session)

(* A silent route is probed before the packet is resent. *)
let probe_on_ack_timeout t packet route =
  if t.Sr.ext.config.probe_on_timeout && route <> [] then begin
    start_probe t packet route;
    true
  end
  else false

let create ?(config = default_config) ?(trusted = []) ctx =
  let trusted_tbl = Address.Tbl.create 4 in
  List.iter (fun (addr, pk) -> Address.Tbl.replace trusted_tbl addr pk) trusted;
  let credits = Credit.create ~config:config.credit () in
  Sr.create ctx
    ~ext:
      {
        config;
        credits;
        probe_seq = 0;
        last_rreq_seq = Address.Tbl.create 32;
        old_rrep_seqs = Address.Tbl.create 16;
        probes = Hashtbl.create 16;
        trusted = trusted_tbl;
      }
    ~hooks:
      {
        Sr.label = "secure";
        score = route_score ~use_credits:config.use_credits credits;
        rreq;
        on_ack_timeout = probe_on_ack_timeout;
        on_ack = reward_acked_route;
        rerr;
        first_hop_purge = Sr.Purge_link;
        use_acks = true;
        salvage = config.salvage;
      }

let send = Sr.send
let discover = Sr.discover
let cached_routes = Sr.cached_routes

(* --- route requests --------------------------------------------------------- *)

(* §3.3 verification at the destination: source first, then every hop. *)
let verify_rreq t ({ sip; seq; srr; sig_; spk; srn; _ } : Messages.rreq) =
  let source_ok =
    verify_host t ~ip:sip ~pk:spk ~rn:srn
      ~payload:(Codec.rreq_source_payload ~sip ~seq)
      ~signature:sig_
  in
  if not source_ok then false
  else if not t.Sr.ext.config.verify_at_destination then true
  else
    List.for_all
      (fun e ->
        verify_host t ~ip:e.Messages.ip ~pk:e.Messages.pk ~rn:e.Messages.rn
          ~payload:(Codec.srr_entry_payload ~iip:e.Messages.ip ~seq)
          ~signature:e.Messages.sig_)
      srr

let fresh_rreq_for_destination t ~sip ~seq =
  (* Monotone per-source sequence numbers close the replay window at the
     destination even across cache resets.  Copies of the *current*
     request (seq equal to the newest seen) are allowed: they arrive over
     distinct paths and earn distinct replies. *)
  match Address.Tbl.find_opt t.Sr.ext.last_rreq_seq sip with
  | Some last when seq < last ->
      (* A flood copy can outlive the next discovery's start, so the
         stale request is rejected but nobody stands accused: the radio
         transmitter of a flood copy is just the last honest relay. *)
      Ctx.audit t.Sr.ctx ~kind:Audit.Replay_rejected
        ~stats:[ Key.secure_replayed_rreq ]
        ~cause:(Printf.sprintf "rreq seq %d behind newest %d" seq last)
        ();
      false
  | _ -> true

(* A copy at the destination must be fresh and verify.  Its seq is
   recorded only after the request verified: a forger must not be able
   to burn a victim's sequence space with junk requests. *)
let accept_rreq t flood (r : Messages.rreq) =
  fresh_rreq_for_destination t ~sip:r.sip ~seq:r.seq
  && begin
       (* Each verified copy — including duplicates of a flood the
          destination already answered — is charged to the flood's
          provenance: this is the duplicate-verification work the
          item-3 cache is meant to eliminate. *)
       Flood.verified (floods t) flood ~node:(Ctx.node_id t.Sr.ctx);
       if verify_rreq t r then begin
         Address.Tbl.replace t.Sr.ext.last_rreq_seq r.sip r.seq;
         true
       end
       else begin
         (* The broken link of the signature chain is not localizable
            from here (any relay may have tampered or appended a forged
            entry), so no subject. *)
         Ctx.audit t.Sr.ctx ~kind:Audit.Sig_verify_fail
           ~stats:[ Key.secure_rreq_rejected ]
           ~cause:"rreq source or route-record signature chain" ();
         false
       end
     end

let rrep t (r : Messages.rreq) ~rr ~back =
  let dip = address t in
  Sr.reply_span t ~sip:r.sip ~seq:r.seq (Sr.Rrep { sip = r.sip; dip; rr });
  let id = identity t in
  Messages.Rrep
    {
      sip = r.sip;
      dip;
      rr;
      remaining = back;
      sig_ = Identity.sign id (Codec.rrep_payload ~sip:r.sip ~seq:r.seq ~rr);
      dpk = Identity.pk_bytes id;
      drn = id.Identity.rn;
    }

(* Only a cached route the destination endorsed may answer. *)
let crep t (r : Messages.rreq) ~rr ~back =
  match if t.Sr.ext.config.use_cache_replies then Sr.cached_entry t ~dst:r.dip else None with
  | Some { Route_cache.route; meta = Some endo; _ } when Sr.avoids r ~rr route ->
      let cacher = address t in
      Sr.reply_span t ~sip:r.sip ~seq:r.seq (Sr.Crep { cacher; seq = r.seq });
      let id = identity t in
      Some
        (Messages.Crep
           {
             requester = r.sip;
             cacher;
             dip = r.dip;
             requester_seq = r.seq;
             cacher_seq = endo.e_seq;
             rr_to_cacher = rr;
             rr_to_dest = route;
             remaining = back;
             sig_cacher =
               Identity.sign id
                 (Codec.crep_cacher_payload ~requester:r.sip ~seq:r.seq ~rr);
             cacher_pk = Identity.pk_bytes id;
             cacher_rn = id.Identity.rn;
             sig_dest = endo.e_sig;
             dest_pk = endo.e_pk;
             dest_rn = endo.e_rn;
           })
  | _ -> None

(* The relay signs its own route-record entry; the source's signature
   travels on unchanged. *)
let relay t (r : Messages.rreq) =
  let me = address t in
  let id = identity t in
  ( r,
    {
      Messages.ip = me;
      sig_ = Identity.sign id (Codec.srr_entry_payload ~iip:me ~seq:r.seq);
      pk = Identity.pk_bytes id;
      rn = id.Identity.rn;
    } )

(* --- replies ------------------------------------------------------------ *)

let consume_rrep t ~src msg =
  match msg with
  | Messages.Rrep { dip; rr; sig_; dpk; drn; _ } -> (
      (* Replies verify against the sequence number of our latest
         discovery for that destination; sibling copies of an
         already-resolved discovery still count (route diversity). *)
      match Address.Tbl.find_opt t.Sr.pending dip with
      | Some d ->
          let payload = Codec.rrep_payload ~sip:(address t) ~seq:d.Sr.d_seq ~rr in
          let reply = Sr.Rrep { sip = address t; dip; rr } in
          (match
             verify_host_r t ~ip:dip ~pk:dpk ~rn:drn ~payload ~signature:sig_
           with
          | Host_ok ->
              Sr.finish_reply t reply Obs.Ok;
              Sr.route_found t ~dst:dip ~route:rr
                ~meta:
                  (Some { e_sig = sig_; e_pk = dpk; e_rn = drn; e_seq = d.Sr.d_seq })
          | (Bad_binding | Bad_sig) as why ->
              Sr.finish_reply t reply (Obs.Rejected "signature check failed");
              let stats = [ Key.secure_rrep_rejected ] in
              (match why with
              | Bad_binding ->
                  (* The endorsement key does not bind to the claimed
                     destination address: forged identity material.  The
                     forger is not localizable from here — probes and
                     credits take over. *)
                  Ctx.audit t.Sr.ctx ~kind:Audit.Cga_mismatch ~subject:dip
                    ~stats ~cause:"rrep endorsement key/address binding" ()
              | Bad_sig | Host_ok -> (
                  match
                    match_retired_seq t ~dst:dip ~pk:dpk ~signature:sig_
                      ~payload_for:(fun ~seq ->
                        Codec.rrep_payload ~sip:(address t) ~seq ~rr)
                  with
                  | Some age when age > stale_seq_grace ->
                      (* A once-valid endorsement bound to a discovery
                         retired long ago: a replay, and whoever radioed
                         it to us either mounted it or relayed a message
                         no honest route carries. *)
                      Ctx.audit t.Sr.ctx ~kind:Audit.Replay_rejected
                        ~subject_node:src ~stats
                        ~cause:
                          (Printf.sprintf
                             "rrep bound to seq retired %.1fs ago" age)
                        ()
                  | Some _ ->
                      Ctx.audit t.Sr.ctx ~kind:Audit.Replay_rejected ~stats
                        ~cause:"late sibling of a just-superseded attempt"
                        ()
                  | None ->
                      Ctx.audit t.Sr.ctx ~kind:Audit.Sig_verify_fail ~stats
                        ~cause:"rrep endorsement signature" ())))
      | None ->
          (* No discovery ever asked for this: unsolicited or replayed,
             so reject (§4). *)
          Ctx.audit t.Sr.ctx ~kind:Audit.Replay_rejected
            ~stats:[ Key.secure_rrep_rejected ]
            ~cause:"unsolicited rrep" ())
  | _ -> ()

let consume_crep t msg =
  match msg with
  | Messages.Crep
      {
        requester = _;
        cacher;
        dip;
        requester_seq;
        cacher_seq;
        rr_to_cacher;
        rr_to_dest;
        sig_cacher;
        cacher_pk;
        cacher_rn;
        sig_dest;
        dest_pk;
        dest_rn;
        _;
      } -> (
      match Address.Tbl.find_opt t.Sr.pending dip with
      | Some d when d.Sr.d_seq = requester_seq ->
          let me = address t in
          let cacher_ok =
            verify_host t ~ip:cacher ~pk:cacher_pk ~rn:cacher_rn
              ~payload:
                (Codec.crep_cacher_payload ~requester:me ~seq:requester_seq
                   ~rr:rr_to_cacher)
              ~signature:sig_cacher
          in
          let dest_ok =
            verify_host t ~ip:dip ~pk:dest_pk ~rn:dest_rn
              ~payload:
                (Codec.rrep_payload ~sip:cacher ~seq:cacher_seq ~rr:rr_to_dest)
              ~signature:sig_dest
          in
          let reply = Sr.Crep { cacher; seq = requester_seq } in
          if cacher_ok && dest_ok then begin
            Sr.finish_reply t reply Obs.Ok;
            let route = rr_to_cacher @ (cacher :: rr_to_dest) in
            Sr.route_found t ~dst:dip ~route ~meta:None
          end
          else begin
            Sr.finish_reply t reply (Obs.Rejected "signature check failed");
            (* Either half may be at fault (cacher attestation or the
               replayed destination endorsement); neither failure
               localizes the forger from here. *)
            Ctx.audit t.Sr.ctx ~kind:Audit.Sig_verify_fail
              ~stats:[ Key.secure_crep_rejected ]
              ~cause:
                (if not cacher_ok then "crep cacher attestation signature"
                 else "crep destination endorsement signature")
              ()
          end
      | _ ->
          Ctx.audit t.Sr.ctx ~kind:Audit.Replay_rejected
            ~stats:[ Key.secure_crep_rejected ]
            ~cause:"crep for no live discovery attempt" ())
  | _ -> ()

let consume_rerr t msg =
  match msg with
  | Messages.Rerr { reporter; broken_next; sig_; pk; rn; _ } ->
      Ctx.stat t.Sr.ctx Sr.Key.rerr_received;
      let authentic =
        verify_host t ~ip:reporter ~pk ~rn
          ~payload:(Codec.rerr_payload ~reporter ~broken_next)
          ~signature:sig_
      in
      if not authentic then
        Ctx.audit t.Sr.ctx ~kind:Audit.Rerr_rejected
          ~stats:[ Key.secure_rerr_rejected ]
          ~cause:"rerr reporter binding or signature" ()
      else begin
        (* Source routing lets us check plausibility: the reported link
           must lie on a route we actually hold. *)
        let removed =
          Route_cache.remove_link t.Sr.cache ~owner:(address t) ~a:reporter
            ~b:broken_next
        in
        if removed = 0 then
          Ctx.audit t.Sr.ctx ~kind:Audit.Rerr_implausible ~subject:reporter
            ~stats:[ Key.secure_rerr_implausible ]
            ~cause:
              ("reported link to "
              ^ Address.to_string broken_next
              ^ " lies on no route we hold")
            ();
        (* Track reporting frequency; §3.4 treats chronic reporters (or
           their successors) as hostile. *)
        if Credit.record_rerr t.Sr.ext.credits reporter ~now:(now t) then begin
          Ctx.audit t.Sr.ctx ~kind:Audit.Rerr_frequency ~subject:reporter
            ~stats:[ Key.secure_hostile_suspected ]
            ~cause:"route-error reporting rate over the hostile threshold" ();
          Credit.slash t.Sr.ext.credits reporter;
          ignore (Route_cache.remove_containing t.Sr.cache reporter)
        end
      end
  | _ -> ()

(* --- probes --------------------------------------------------------------- *)

let consume_probe t msg =
  match msg with
  | Messages.Probe { origin; target; seq; route; _ } ->
      if Address.equal target (address t) then begin
        let id = identity t in
        let back = List.rev route @ [ origin ] in
        Ctx.send_along t.Sr.ctx ~path:back
          (Messages.Probe_reply
             {
               responder = address t;
               origin;
               seq;
               remaining = back;
               sig_ =
                 Identity.sign id
                   (Codec.probe_reply_payload ~responder:(address t) ~origin ~seq);
               pk = Identity.pk_bytes id;
               rn = id.Identity.rn;
             })
      end
  | _ -> ()

let consume_probe_reply t msg =
  match msg with
  | Messages.Probe_reply { responder; origin; seq; sig_; pk; rn; _ } -> (
      match Hashtbl.find_opt t.Sr.ext.probes seq with
      | Some (session, i) when not session.pr_done ->
          if
            Address.equal origin (address t)
            && Address.equal responder session.pr_route.(i)
            && verify_host t ~ip:responder ~pk ~rn
                 ~payload:
                   (Codec.probe_reply_payload ~responder ~origin:(address t) ~seq)
                 ~signature:sig_
          then begin
            session.pr_replies.(i) <- true;
            Hashtbl.remove t.Sr.ext.probes seq;
            Ctx.stat t.Sr.ctx Key.probe_replied
          end
          else
            Ctx.audit t.Sr.ctx ~kind:Audit.Sig_verify_fail
              ~stats:[ Key.probe_reply_rejected ]
              ~cause:"probe reply responder binding or signature" ()
      | _ -> ())
  | _ -> ()

let rec drop_first n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop_first (n - 1) tl

let is_addr_suffix ~of_:full part =
  let d = List.length full - List.length part in
  d >= 0 && List.for_all2 Address.equal (drop_first d full) part

let handle t ~src msg =
  match msg with
  | Messages.Rreq r ->
      Sr.handle_rreq t ~src r ~accept:accept_rreq ~rrep ~crep ~relay
  | Messages.Rrep { sip; rr; _ } ->
      Ctx.deliver_up t.Sr.ctx ~src msg ~consume:(consume_rrep t ~src)
        ~forward:(fun ~next m ->
          (* Transit consistency (§4): an honest reply only ever travels
             the reversed route record back toward its requester, so the
             hops still to visit — us included — must form a suffix of
             that path.  A reply whose forwarding state disagrees with
             its own signed route record was re-injected off-path; drop
             it here and point at the radio transmitter, before relays
             further down can be fooled into accusing each other. *)
          if is_addr_suffix ~of_:(List.rev rr @ [ sip ]) (address t :: next)
          then Sr.relay t ~next m
          else
            Ctx.audit t.Sr.ctx ~kind:Audit.Replay_rejected ~subject_node:src
              ~stats:[ Key.secure_rrep_rejected; Key.secure_transit_rejected ]
              ~cause:"rrep in transit off its own reversed route record" ())
        ~not_mine:(fun _ -> ())
  | Messages.Crep _ -> Sr.deliver t ~src msg ~consume:(consume_crep t)
  | Messages.Data _ -> Sr.deliver_data t ~src msg ~overheard:(fun _ -> ())
  | Messages.Ack _ -> Sr.deliver_ack t ~src msg
  | Messages.Rerr _ -> Sr.deliver t ~src msg ~consume:(consume_rerr t)
  | Messages.Probe _ -> Sr.deliver t ~src msg ~consume:(consume_probe t)
  | Messages.Probe_reply _ -> Sr.deliver t ~src msg ~consume:(consume_probe_reply t)
  | Messages.Name_query _ | Messages.Name_reply _ | Messages.Ip_change_request _
  | Messages.Ip_change_challenge _ | Messages.Ip_change_proof _
  | Messages.Ip_change_ack _ ->
      Ctx.forward_transit t.Sr.ctx ~src msg
  | Messages.Areq _ | Messages.Arep _ | Messages.Drep _ | Messages.Aodv _ -> ()
