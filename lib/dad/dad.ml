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
module Engine = Manet_sim.Engine
module Obs = Manet_obs.Obs
module Flood = Manet_obs.Flood
module Stats = Manet_sim.Stats

(* Counter and series keys, bound once (see [Stats.key]). *)
module Key = struct
  let dad_arep_rejected = Stats.key "dad.arep_rejected"
  let dad_collision = Stats.key "dad.collision"
  let dad_configured = Stats.key "dad.configured"
  let dad_drep_rejected = Stats.key "dad.drep_rejected"
  let dad_duplicate_detected = Stats.key "dad.duplicate_detected"
  let dad_failed = Stats.key "dad.failed"
  let dad_name_conflict = Stats.key "dad.name_conflict"
  let dad_warning_sent = Stats.key "dad.warning_sent"
end

let arep_wait = 2.0
let flood_jitter = 0.02
let max_attempts = 4

type config = { auto_rename : bool }

let default_config = { auto_rename = true }

type outcome =
  | Configured of { address : Address.t; name : string option }
  | Failed of string

type pending = {
  p_ch : int64;
  p_seq : int;
  p_dn : string option;
  p_attempt : int;
  mutable p_resolved : bool;
}

type t = {
  ctx : Ctx.t;
  config : config;
  dns_address : Address.t;
  dns_pk : string;
  mutable pending : pending option;
  mutable configured : bool;
  mutable seq : int;
  mutable on_complete : outcome -> unit;
  (* Flood dedup.  AREQ key: (sip, seq, ch) — seq alone can collide when
     two initiators contest the same address; a lookup by key returns
     the flood's provenance handle.  Warning-AREP key: the signature
     bytes, unique per (signer, sip, ch). *)
  seen_areq : Flood.Seen.t;
  seen_warning : (string, unit) Hashtbl.t;
  mutable areq_observer : Messages.t -> unit;
  mutable warning_sink : Messages.t -> unit;
  (* Telemetry: the whole-bootstrap span and the current attempt's flood
     span (a child of it).  [None] outside a run. *)
  mutable span_bootstrap : int option;
  mutable span_flood : int option;
}

(* Correlation keys (shared with [Manet_dns] responder spans): an AREQ
   flood attempt is identified by (sip, ch) — [ch] is a fresh 64-bit
   challenge per attempt — and an AREP by its signature bytes, unique
   per (signer, sip, ch). *)
let flood_key ~sip ~ch = "areq:" ^ Codec.addr sip ^ Codec.u64 ch
let arep_corr sig_ = "arep:" ^ sig_
let drep_corr sig_ = "drep:" ^ sig_

let create ?(config = default_config) ?(dns_address = Address.dns_server_1)
    ~dns_pk ctx =
  {
    ctx;
    config;
    dns_address;
    dns_pk;
    pending = None;
    configured = false;
    seq = 0;
    on_complete = (fun _ -> ());
    seen_areq = Flood.Seen.create ();
    seen_warning = Hashtbl.create 16;
    areq_observer = (fun _ -> ());
    warning_sink = (fun _ -> ());
    span_bootstrap = None;
    span_flood = None;
  }

let identity t = t.ctx.Ctx.identity
let address t = (identity t).Identity.address
let is_configured t = t.configured
let is_pending t = Option.is_some t.pending

let set_areq_observer t f = t.areq_observer <- f
let set_warning_sink t f = t.warning_sink <- f

(* The AREQ dedup key doubles as the flood-provenance key: both are pure
   functions of (sip, seq, ch), so the registry needs no wire change. *)
let areq_key ~sip ~seq ~ch =
  (* manetcheck: allow hot-alloc — the 6-word lookup key (its int64 fields
     point at the message's own boxes) is the one allocation a duplicate
     copy makes. *)
  { Flood.kind = Flood.Areq; hi = sip.Address.hi; lo = sip.Address.lo; seq; ch }

let obs t = t.ctx.Ctx.obs
let floods t = Obs.flood (obs t)

let finish_flood t outcome =
  match t.span_flood with
  | Some id ->
      Obs.finish (obs t) id outcome;
      t.span_flood <- None
  | None -> ()

(* The reply span filed under [corr sig_] was accepted.  The key is
   built only while the event log is on. *)
let finish_reply t corr sig_ =
  let o = obs t in
  if Obs.wants_events o then
    match Obs.lookup o (corr sig_) with
    | Some sid -> Obs.finish o sid Obs.Ok
    | None -> ()

let finish_bootstrap t outcome =
  match t.span_bootstrap with
  | Some id ->
      Obs.finish (obs t) id outcome;
      t.span_bootstrap <- None
  | None -> ()

let rec begin_attempt t ~attempt ~dn =
  let ctx = t.ctx in
  let o = obs t in
  let keep = Obs.wants_events o in
  t.seq <- t.seq + 1;
  let ch = Prng.bits64 ctx.Ctx.rng in
  let sip = address t in
  (* Tentative registration: stands in for the last-hop broadcast of the
     returning AREP (the initiator has no legal address yet). *)
  Directory.register ctx.Ctx.directory sip (Ctx.node_id ctx);
  let pending = { p_ch = ch; p_seq = t.seq; p_dn = dn; p_attempt = attempt; p_resolved = false } in
  t.pending <- Some pending;
  let fl =
    Obs.start o ?parent:t.span_bootstrap ~kind:"dad.flood"
      ~node:(Ctx.node_id ctx)
      ~detail:
        (if keep then Printf.sprintf "sip=%s attempt=%d" (Address.to_string sip) attempt
         else "")
      ()
  in
  t.span_flood <- Some fl;
  if keep then Obs.correlate o (flood_key ~sip ~ch) fl;
  (* Ignore echoes of our own flood. *)
  let key = areq_key ~sip ~seq:t.seq ~ch in
  let flood = Flood.handle (floods t) ~key ~origin:(Ctx.node_id ctx) in
  Flood.Seen.add t.seen_areq flood;
  if keep then
    Ctx.log ctx ~event:"dad.start"
      ~detail:
        (Printf.sprintf "sip=%s dn=%s attempt=%d" (Address.to_string sip)
           (Option.value ~default:"-" dn)
           attempt);
  Flood.sent (floods t) flood;
  Ctx.broadcast ctx (Messages.Areq { sip; seq = t.seq; dn; ch; rr = [] });
  Engine.schedule ctx.Ctx.engine ~label:"dad" ~delay:arep_wait (fun () ->
      match t.pending with
      | Some p when p == pending && not p.p_resolved ->
          p.p_resolved <- true;
          t.pending <- None;
          t.configured <- true;
          (identity t).Identity.domain_name <- dn;
          finish_flood t Obs.Ok;
          finish_bootstrap t Obs.Ok;
          Ctx.stat ctx Key.dad_configured;
          if Obs.wants_events (obs t) then
            Ctx.log ctx ~event:"dad.configured"
              ~detail:(Address.to_string (address t));
          t.on_complete (Configured { address = address t; name = dn })
      | _ -> ())

and retry_with_new_address t p =
  let ctx = t.ctx in
  p.p_resolved <- true;
  t.pending <- None;
  (* The verified owner shares our tentative address; it is honest until
     something else says otherwise, so nobody stands accused here. *)
  Ctx.audit ctx ~kind:Audit.Dad_collision
    ~stats:[ Key.dad_collision ]
    ~cause:("tentative address already owned: " ^ Address.to_string (address t))
    ();
  finish_flood t (Obs.Rejected "address collision");
  if p.p_attempt + 1 >= max_attempts then begin
    Ctx.stat ctx Key.dad_failed;
    finish_bootstrap t (Obs.Failed "address collisions exhausted retry budget");
    t.on_complete (Failed "address collisions exhausted retry budget")
  end
  else begin
    Directory.unregister ctx.Ctx.directory (address t) (Ctx.node_id ctx);
    Identity.refresh_address (identity t) ctx.Ctx.rng;
    if Obs.wants_events (obs t) then
      Ctx.log ctx ~event:"dad.retry" ~detail:(Address.to_string (address t));
    begin_attempt t ~attempt:(p.p_attempt + 1) ~dn:p.p_dn
  end

and retry_with_new_name t p =
  let ctx = t.ctx in
  p.p_resolved <- true;
  t.pending <- None;
  Ctx.audit ctx ~kind:Audit.Dns_conflict
    ~stats:[ Key.dad_name_conflict ]
    ~cause:
      ("domain name already registered: "
      ^ Option.value ~default:"-" p.p_dn)
    ();
  finish_flood t (Obs.Rejected "domain name conflict");
  if not t.config.auto_rename then begin
    finish_bootstrap t (Obs.Failed "domain name conflict");
    t.on_complete (Failed "domain name conflict")
  end
  else if p.p_attempt + 1 >= max_attempts then begin
    Ctx.stat ctx Key.dad_failed;
    finish_bootstrap t
      (Obs.Failed "domain name conflicts exhausted retry budget");
    t.on_complete (Failed "domain name conflicts exhausted retry budget")
  end
  else begin
    let dn =
      Option.map (fun n -> Printf.sprintf "%s-%d" n (p.p_attempt + 2)) p.p_dn
    in
    Ctx.log ctx ~event:"dad.rename" ~detail:(Option.value ~default:"-" dn);
    begin_attempt t ~attempt:(p.p_attempt + 1) ~dn
  end

let start t ?dn ?parent ~on_complete () =
  if t.pending <> None then invalid_arg "Dad.start: already running";
  t.on_complete <- on_complete;
  t.configured <- false;
  let sb =
    Obs.start (obs t) ?parent ~kind:"dad.bootstrap"
      ~node:(Ctx.node_id t.ctx)
      ~detail:
        (match dn with
        | Some d when Obs.wants_events (obs t) -> "dn=" ^ d
        | Some _ | None -> "")
      ()
  in
  t.span_bootstrap <- Some sb;
  begin_attempt t ~attempt:0 ~dn

let abort t =
  match t.pending with
  | Some p ->
      (* Marking the attempt resolved defuses its arep_wait timer; the
         completion callback never fires.  Used when a node crashes with
         a DAD exchange in flight, so a restart can call [start] anew. *)
      p.p_resolved <- true;
      t.pending <- None;
      finish_flood t (Obs.Failed "aborted");
      finish_bootstrap t (Obs.Failed "aborted")
  | None ->
      finish_flood t (Obs.Failed "aborted");
      finish_bootstrap t (Obs.Failed "aborted")

(* --- responder/relay side --------------------------------------------- *)

let answer_duplicate t (m : (* areq fields *) Address.t * int64 * Address.t list) =
  let sip, ch, rr = m in
  let ctx = t.ctx in
  let id = identity t in
  let sig_ = Identity.sign id (Codec.arep_payload ~sip ~ch) in
  let pk = Identity.pk_bytes id in
  let rn = id.Identity.rn in
  (* [sip] is also our address, so a directory lookup would name
     ourselves: the claimant has no resolvable identity yet. *)
  Ctx.audit ctx ~kind:Audit.Dad_collision
    ~stats:[ Key.dad_duplicate_detected ]
    ~cause:("tentative claim of our address " ^ Address.to_string sip)
    ();
  (* AREP span: child of the initiator's flood span (shared Obs), open
     from here until the initiator accepts the reply. *)
  let o = obs t in
  if not (Obs.wants_events o) then
    ignore (Obs.start o ~kind:"dad.arep" ~node:(Ctx.node_id ctx) ())
  else begin
    Ctx.log ctx ~event:"dad.duplicate" ~detail:(Address.to_string sip);
    Obs.correlate o (arep_corr sig_)
      (Obs.start o
         ?parent:(Obs.lookup o (flood_key ~sip ~ch))
         ~kind:"dad.arep" ~node:(Ctx.node_id ctx)
         ~detail:("sip=" ^ Address.to_string sip)
         ())
  end;
  (* AREP back to the initiator along the reverse route record. *)
  let back_path = List.rev rr @ [ sip ] in
  Ctx.send_along ctx ~path:back_path
    (Messages.Arep { sip; rr; remaining = back_path; sig_; pk; rn });
  (* Warning AREP to the DNS, flooded because no route to the DNS is
     known this early (DESIGN.md §4). *)
  let warning =
    Messages.Arep { sip; rr = []; remaining = [ t.dns_address ]; sig_; pk; rn }
  in
  Hashtbl.replace t.seen_warning sig_ ();
  Ctx.stat ctx Key.dad_warning_sent;
  (* manetcheck: allow flood-origin-label — the warning AREP is flooded
     towards the DNS but is not an AREQ/RREQ flood; provenance tracks
     address/route request storms only (§3.1). *)
  Ctx.broadcast ctx warning

(* First copy of a flood at this node: remember the flood, then relay.
   Every host rebroadcasts once (§3.1) — including a duplicate owner,
   which may sit on the only path to the DNS — with our address appended
   to RR, after a small jitter to de-synchronize the flood. *)
let first_areq t ~src ~key ~hops msg ~sip ~seq ~dn ~ch ~rr =
  let ctx = t.ctx in
  let flood = Flood.handle (floods t) ~key ~origin:src in
  Flood.received (floods t) flood ~node:(Ctx.node_id ctx) ~src ~hops;
  Flood.Seen.add t.seen_areq flood;
  t.areq_observer msg;
  if Address.equal sip (address t) then answer_duplicate t (sip, ch, rr);
  let rr' = rr @ [ address t ] in
  let delay = Prng.float ctx.Ctx.rng flood_jitter in
  Engine.schedule ctx.Ctx.engine ~label:"dad" ~delay (fun () ->
      Flood.sent (floods t) flood;
      Ctx.broadcast ctx (Messages.Areq { sip; seq; dn; ch; rr = rr' }))

(* Every copy of every AREQ lands here, so a duplicate — the common
   case — does one seen-table lookup and two counter updates, building
   no string. *)
let handle_areq t ~src msg =
  match msg with
  | Messages.Areq { sip; seq; dn; ch; rr } -> (
      let key = areq_key ~sip ~seq ~ch in
      (* manetcheck: allow hot-list — the route record is as long as the
         copy's hop count, bounded by the flood's hop radius. *)
      let hops = List.length rr in
      match Flood.Seen.find (floods t) t.seen_areq key with
      | flood ->
          Flood.received (floods t) flood ~node:(Ctx.node_id t.ctx) ~src ~hops;
          Flood.duplicate (floods t) flood
      | exception Not_found ->
          (* manetcheck: cold — at most once per (flood, node) *)
          first_areq t ~src ~key ~hops msg ~sip ~seq ~dn ~ch ~rr)
  | _ -> ()

(* --- initiator verification ------------------------------------------- *)

type arep_check = Arep_ok | Arep_bad_binding | Arep_bad_sig

let verify_arep_r t ~sip ~sig_ ~pk ~rn ~ch =
  let suite = Ctx.suite t.ctx in
  Suite.count_hash suite ~bytes:(String.length pk + 8);
  (* Check 1: R generated SIP by the CGA rule. *)
  if not (Cga.verify sip ~pk_bytes:pk ~rn) then Arep_bad_binding
    (* Check 2: R owns the private key — it answered our challenge. *)
  else if
    suite.Suite.verify ~pk_bytes:pk
      ~msg:(Codec.arep_payload ~sip ~ch)
      ~signature:sig_
  then Arep_ok
  else Arep_bad_sig

let consume_arep t msg =
  match msg with
  | Messages.Arep { sip; sig_; pk; rn; _ } -> (
      match t.pending with
      | Some p when (not p.p_resolved) && Address.equal sip (address t) -> (
          match verify_arep_r t ~sip ~sig_ ~pk ~rn ~ch:p.p_ch with
          | Arep_ok ->
              finish_reply t arep_corr sig_;
              retry_with_new_address t p
          | (Arep_bad_binding | Arep_bad_sig) as why ->
              (* An AREP for our pending address that fails verification
                 is a forgery or replay: ignore it (§4).  A bad CGA
                 binding means the claimed owner fabricated its identity
                 material; a bad signature, that the challenge was never
                 really answered. *)
              (match why with
              | Arep_bad_binding ->
                  Ctx.audit t.ctx ~kind:Audit.Cga_mismatch
                    ~stats:[ Key.dad_arep_rejected ]
                    ~cause:"arep owner key/address binding" ()
              | Arep_bad_sig | Arep_ok ->
                  Ctx.audit t.ctx ~kind:Audit.Sig_verify_fail
                    ~stats:[ Key.dad_arep_rejected ]
                    ~cause:"arep challenge signature" ());
              if Obs.wants_events (obs t) then
                Ctx.log t.ctx ~event:"dad.arep_rejected"
                  ~detail:(Address.to_string sip))
      | _ ->
          (* Not ours: if we host the DNS this is a duplicate warning. *)
          t.warning_sink msg)
  | _ -> ()

let consume_drep t msg =
  match msg with
  | Messages.Drep { dn; sig_; _ } -> (
      match t.pending with
      | Some p when (not p.p_resolved) && p.p_dn = Some dn ->
          let suite = Ctx.suite t.ctx in
          if
            suite.Suite.verify ~pk_bytes:t.dns_pk
              ~msg:(Codec.drep_payload ~dn ~ch:p.p_ch)
              ~signature:sig_
          then begin
            finish_reply t drep_corr sig_;
            retry_with_new_name t p
          end
          else begin
            Ctx.audit t.ctx ~kind:Audit.Sig_verify_fail
              ~stats:[ Key.dad_drep_rejected ]
              ~cause:"drep dns server signature" ();
            Ctx.log t.ctx ~event:"dad.drep_rejected" ~detail:dn
          end
      | _ -> ())
  | _ -> ()

(* --- reception dispatch ------------------------------------------------ *)

let relay_warning t msg =
  (* A flooded warning AREP overheard in transit: rebroadcast once unless
     we are its DNS target. *)
  match msg with
  | Messages.Arep { remaining = [ target ]; sig_; _ }
    when Address.equal target t.dns_address
         && not (Address.equal (address t) t.dns_address) ->
      if not (Hashtbl.mem t.seen_warning sig_) then begin
        Hashtbl.replace t.seen_warning sig_ ();
        let delay = Prng.float t.ctx.Ctx.rng flood_jitter in
        Engine.schedule t.ctx.Ctx.engine ~label:"dad" ~delay (fun () ->
            (* manetcheck: allow flood-origin-label — warning AREP relay,
               not an AREQ/RREQ flood (see answer_duplicate). *)
            Ctx.broadcast t.ctx msg)
      end
  | _ -> ()

let handle t ~src msg =
  match msg with
  | Messages.Areq _ -> handle_areq t ~src msg
  | Messages.Arep _ ->
      Ctx.deliver_up t.ctx ~src msg
        ~consume:(fun m -> consume_arep t m)
        ~forward:(fun ~next m -> Ctx.send_along t.ctx ~path:next m)
        ~not_mine:(fun m -> relay_warning t m)
  | Messages.Drep _ ->
      Ctx.deliver_up t.ctx ~src msg
        ~consume:(fun m -> consume_drep t m)
        ~forward:(fun ~next m -> Ctx.send_along t.ctx ~path:next m)
        ~not_mine:(fun _ -> ())
  (* Routing, data and DNS-service traffic is not DAD's business; the
     arms are spelled out so that adding a Messages constructor forces a
     decision here (manetcheck dispatch rule). *)
  | Messages.Rreq _ | Messages.Rrep _ | Messages.Crep _ | Messages.Rerr _
  | Messages.Data _ | Messages.Ack _ | Messages.Probe _
  | Messages.Probe_reply _ | Messages.Name_query _ | Messages.Name_reply _
  | Messages.Ip_change_request _ | Messages.Ip_change_challenge _
  | Messages.Ip_change_proof _ | Messages.Ip_change_ack _ | Messages.Aodv _ -> ()
