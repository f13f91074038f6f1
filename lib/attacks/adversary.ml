module Address = Manet_ipv6.Address
module Prng = Manet_crypto.Prng
module Messages = Manet_proto.Messages
module Codec = Manet_proto.Codec
module Ctx = Manet_proto.Node_ctx
module Directory = Manet_proto.Directory
module Identity = Manet_proto.Identity
module Audit = Manet_obs.Audit
module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Source_route = Manet_dsr.Source_route

(* Counter and series keys, bound once (see [Stats.key]). *)
module Key = struct
  let attack_data_dropped = Stats.key "attack.data_dropped"
  let attack_identity_changes = Stats.key "attack.identity_changes"
  let attack_impersonations = Stats.key "attack.impersonations"
  let attack_mitm_forwarded = Stats.key "attack.mitm_forwarded"
  let attack_probes_dropped = Stats.key "attack.probes_dropped"
  let attack_replayed = Stats.key "attack.replayed"
  let attack_rerr_forged = Stats.key "attack.rerr_forged"
  let attack_rrep_forged = Stats.key "attack.rrep_forged"
end

type behavior = {
  drop_data : [ `Never | `Always | `Prob of float ];
  forge_rrep : bool;
  impersonate : Address.t option;
  replay_rrep : bool;
  rerr_spam_interval : float option;
  churn_interval : float option;
  answer_probes : bool;
  drop_probes : bool;
  mute : bool;
}

let honest =
  {
    drop_data = `Never;
    forge_rrep = false;
    impersonate = None;
    replay_rrep = false;
    rerr_spam_interval = None;
    churn_interval = None;
    answer_probes = true;
    drop_probes = false;
    mute = false;
  }

let sleeper = { honest with mute = true }

let blackhole =
  { honest with drop_data = `Always; forge_rrep = true; drop_probes = true }

let grayhole p = { honest with drop_data = `Prob p }
let impersonator victim = { honest with impersonate = Some victim }
let replayer = { honest with replay_rrep = true }
let rerr_spammer ~every = { honest with rerr_spam_interval = Some every }

let identity_churner ~every =
  { honest with churn_interval = Some every; drop_data = `Always }

type captured_rrep = {
  c_rr : Address.t list;
  c_sig : string;
  c_dpk : string;
  c_drn : int64;
}

type t = {
  ctx : Ctx.t;
  behavior : behavior;
  secure : bool;
  delegate : src:int -> Messages.t -> unit;
  seen_rreq : unit Address.Seq_tbl.t; (* (sip, seq) *)
  captured : captured_rrep Address.Tbl.t; (* by destination address *)
  flows : Address.t list Address.Tbl.t; (* relayed data flows: source -> route *)
  mutable running : bool;
}

let create ?(behavior = honest) ~secure ctx ~delegate =
  {
    ctx;
    behavior;
    secure;
    delegate;
    seen_rreq = Address.Seq_tbl.create 64;
    captured = Address.Tbl.create 16;
    flows = Address.Tbl.create 16;
    running = false;
  }

let address t = Ctx.address t.ctx
let identity t = t.ctx.Ctx.identity

(* --- periodic behaviours ------------------------------------------------ *)

let spam_rerrs t =
  (* For every flow we relay, fabricate a break of our next hop.  We are
     genuinely on the route, so even the secure protocol must accept the
     report (§4) — until frequency tracking blames us. *)
  let flows =
    (* Deterministic emission order: iterate flows sorted by source
       address, not in hash-bucket order. *)
    List.sort
      (fun (a, _) (b, _) -> Address.compare a b)
      (Address.Tbl.fold (fun src route acc -> (src, route) :: acc) t.flows [])
  in
  List.iter
    (fun (src, route) ->
      let me = address t in
      match Source_route.split_route_at route me with
      | Some (before, after) ->
          let broken_next =
            match after with a :: _ -> a | [] -> src (* claim dst itself *)
          in
          let back = List.rev before @ [ src ] in
          let sig_, pk, rn =
            if t.secure then
              let id = identity t in
              ( Identity.sign id (Codec.rerr_payload ~reporter:me ~broken_next),
                Identity.pk_bytes id,
                id.Identity.rn )
            else ("", "", 0L)
          in
          (* Ground truth for detector scoring: every mounted attack is
             recorded under an [Attack_*] kind that the detector itself
             never weighs. *)
          Ctx.audit t.ctx ~kind:Audit.Attack_rerr
            ~stats:[ Key.attack_rerr_forged ]
            ~cause:
              ("fabricated break toward " ^ Address.to_string broken_next)
            ();
          Ctx.send_along t.ctx ~path:back
            (Messages.Rerr
               { reporter = me; broken_next; dst = src; remaining = back; sig_; pk; rn })
      | None -> ())
    flows

let churn_identity t =
  let ctx = t.ctx in
  let id = identity t in
  Directory.unregister ctx.Ctx.directory id.Identity.address (Ctx.node_id ctx);
  Identity.refresh_address id ctx.Ctx.rng;
  Directory.register ctx.Ctx.directory id.Identity.address (Ctx.node_id ctx);
  Ctx.audit ctx ~kind:Audit.Attack_churn
    ~stats:[ Key.attack_identity_changes ]
    ~cause:("identity shed for " ^ Address.to_string id.Identity.address)
    ();
  Ctx.log ctx ~event:"attack.churn" ~detail:(Address.to_string id.Identity.address)

let start t =
  if not t.running then begin
    t.running <- true;
    (* An impersonator also claims the victim's address at the link
       layer (it answers frames sent to that address), which the shared
       directory models as a second claim on the address. *)
    (match t.behavior.impersonate with
    | Some victim ->
        Directory.register t.ctx.Ctx.directory victim (Ctx.node_id t.ctx)
    | None -> ());
    (match t.behavior.rerr_spam_interval with
    | Some every ->
        let rec tick () =
          if t.running then begin
            spam_rerrs t;
            Engine.schedule t.ctx.Ctx.engine ~label:"adversary" ~delay:every
              tick
          end
        in
        Engine.schedule t.ctx.Ctx.engine ~label:"adversary" ~delay:every tick
    | None -> ());
    match t.behavior.churn_interval with
    | Some every ->
        let rec tick () =
          if t.running then begin
            churn_identity t;
            Engine.schedule t.ctx.Ctx.engine ~label:"adversary" ~delay:every
              tick
          end
        in
        Engine.schedule t.ctx.Ctx.engine ~label:"adversary" ~delay:every tick
    | None -> ()
  end

(* --- message interception ------------------------------------------------ *)

let forge_rrep t ~sip ~dip ~seq ~rr =
  (* Claim the destination is our direct neighbour: route S -> ... -> me
     -> D.  Under the secure protocol we cannot produce D's signature, so
     we attach junk; the baseline carries no signature at all. *)
  Ctx.audit t.ctx ~kind:Audit.Attack_forgery
    ~stats:[ Key.attack_rrep_forged ]
    ~cause:("forged one-hop route to " ^ Address.to_string dip)
    ();
  let claimed_rr = rr @ [ address t ] in
  let back = List.rev rr @ [ sip ] in
  ignore seq;
  let sig_, dpk, drn =
    if t.secure then
      ( Prng.bytes t.ctx.Ctx.rng 32,
        Prng.bytes t.ctx.Ctx.rng 32,
        Prng.bits64 t.ctx.Ctx.rng )
    else ("", "", 0L)
  in
  Ctx.send_along t.ctx ~path:back
    (Messages.Rrep { sip; dip; rr = claimed_rr; remaining = back; sig_; dpk; drn })

let impersonate_relay t victim ~rreq =
  match rreq with
  | Messages.Rreq { sip; dip; seq; srr; sig_; spk; srn } ->
      (* Append the victim's address instead of our own.  We cannot know
         the victim's private key, so in secure mode we sign with our own
         key and attach our own key material — the CGA check at the
         destination is what catches the mismatch. *)
      Ctx.audit t.ctx ~kind:Audit.Attack_impersonation
        ~stats:[ Key.attack_impersonations ]
        ~cause:("appended victim " ^ Address.to_string victim ^ " to rreq")
        ();
      let entry =
        if t.secure then begin
          let id = identity t in
          {
            Messages.ip = victim;
            sig_ = Identity.sign id (Codec.srr_entry_payload ~iip:victim ~seq);
            pk = Identity.pk_bytes id;
            rn = id.Identity.rn;
          }
        end
        else { Messages.ip = victim; sig_ = ""; pk = ""; rn = 0L }
      in
      Ctx.broadcast t.ctx
        (Messages.Rreq { sip; dip; seq; srr = srr @ [ entry ]; sig_; spk; srn })
  | _ -> ()

let replay_captured t ~sip ~dip ~rr =
  match Address.Tbl.find_opt t.captured dip with
  | None -> false
  | Some c ->
      (* Replay the old signed reply to the new requester, back along the
         live route record so it actually arrives.  The stale sequence
         binding is what the secure verification catches. *)
      Ctx.audit t.ctx ~kind:Audit.Attack_replay
        ~stats:[ Key.attack_replayed ]
        ~cause:("captured rrep for " ^ Address.to_string dip ^ " re-sent")
        ();
      let back = List.rev rr @ [ sip ] in
      Ctx.send_along t.ctx ~path:back
        (Messages.Rrep
           { sip; dip; rr = c.c_rr; remaining = back; sig_ = c.c_sig; dpk = c.c_dpk; drn = c.c_drn });
      true

(* AODV's black hole: an irresistibly fresh one-hop reply, unicast to
   the RREQ's link-layer sender, whose fresh reverse route carries it on.
   It cannot sign as the destination, so the SAODV fields are junk and
   the reply dies at the first SAODV verifier. *)
let forge_aodv_rrep t ~src ~origin ~dst ~dst_seq_known =
  match Directory.addresses_of t.ctx.Ctx.directory src with
  | [] -> ()
  | prev :: _ ->
      Ctx.audit t.ctx ~kind:Audit.Attack_forgery
        ~stats:[ Key.attack_rrep_forged ]
        ~cause:("forged one-hop route to " ^ Address.to_string dst)
        ();
      let g = t.ctx.Ctx.rng in
      Ctx.send_along t.ctx ~path:[ prev ]
        (Messages.Aodv
           (Messages.Aodv_rrep
              {
                requester = origin;
                dst;
                dst_seq = dst_seq_known + 1000;
                hop_count = 0;
                sig_ = Prng.bytes g 32;
                dpk = Prng.bytes g 32;
                drn = Prng.bits64 g;
                hash = Prng.bytes g 32;
                top_hash = Prng.bytes g 32;
                max_hops = Manet_aodv.Aodv.max_hops;
              }))

let should_drop t =
  match t.behavior.drop_data with
  | `Never -> false
  | `Always -> true
  | `Prob p -> Prng.float t.ctx.Ctx.rng 1.0 < p

(* Is this message transiting through us (we are the head of remaining
   and more hops follow)? *)
let transit_tail t msg =
  match Messages.remaining msg with
  | Some (head :: (_ :: _ as tail)) when Address.equal head (address t) -> Some tail
  | _ -> None

(* Frames whose next hop is the impersonated victim are processed by the
   adversary as if it were the victim: it pops the victim's address and
   forwards (subject to its drop policy) — traffic flows through the
   adversary while the route record blames the victim. *)
let impersonated_transit t msg =
  match (t.behavior.impersonate, Messages.remaining msg) with
  | Some victim, Some (head :: tail) when Address.equal head victim ->
      (match (msg, tail) with
      | _, [] -> Some `Consumed (* addressed to the victim itself: swallow *)
      | Messages.Data _, _ when should_drop t -> Some `Consumed
      | _, _ ->
          Ctx.stat t.ctx Key.attack_mitm_forwarded;
          Ctx.send_along t.ctx ~path:tail (Messages.with_remaining msg tail);
          Some `Forwarded)
  | _ -> None

(* Transit data: drop it under the drop policy, else relay honestly. *)
let drop_or_delegate t ~src msg =
  if should_drop t then
    Ctx.audit t.ctx ~kind:Audit.Attack_drop
      ~stats:[ Key.attack_data_dropped ]
      ~cause:"transit data silently dropped" ()
  else t.delegate ~src msg

let handle t ~src msg =
  if t.behavior.mute then ()
  else if impersonated_transit t msg <> None then ()
  else
  match msg with
  (* manetcheck: allow security — the adversary deliberately skips all
     verification: it consumes whatever it overhears to mount the §4
     forgery/replay attacks. *)
  | Messages.Rreq { sip; dip; seq; srr; _ } ->
      let key = { Address.addr = sip; seq } in
      if Address.Seq_tbl.mem t.seen_rreq key then ()
      else begin
        Address.Seq_tbl.replace t.seen_rreq key ();
        let me = address t in
        let rr = List.map (fun e -> e.Messages.ip) srr in
        if Address.equal dip me then t.delegate ~src msg
        else if Address.equal sip me || List.exists (Address.equal me) rr then ()
        else begin
          (* Replaying is additive: the adversary still relays so as not
             to give itself away by killing the flood. *)
          if t.behavior.replay_rrep then
            ignore (replay_captured t ~sip ~dip ~rr);
          if t.behavior.forge_rrep then forge_rrep t ~sip ~dip ~seq ~rr
          else begin
            match t.behavior.impersonate with
            | Some victim -> impersonate_relay t victim ~rreq:msg
            | None -> t.delegate ~src msg
          end
        end
      end
  (* manetcheck: allow security — captures reply signatures wholesale for
     later replay (§4). *)
  | Messages.Rrep { dip; rr; sig_; dpk; drn; _ } ->
      if t.behavior.replay_rrep then
        Address.Tbl.replace t.captured dip
          { c_rr = rr; c_sig = sig_; c_dpk = dpk; c_drn = drn };
      t.delegate ~src msg
  | Messages.Data { src = flow_src; route; _ } -> (
      match transit_tail t msg with
      | Some _ ->
          (* Transit data: remember the flow (for RERR fabrication), then
             apply the drop policy. *)
          Address.Tbl.replace t.flows flow_src route;
          drop_or_delegate t ~src msg
      | None -> t.delegate ~src msg)
  (* manetcheck: allow security — the AODV black hole answers requests
     it has no business answering; by design it verifies nothing before
     forging its reply, and does not relay: attract, don't help. *)
  | Messages.Aodv (Messages.Aodv_rreq { origin; bcast_id; dst; dst_seq_known; _ })
    when t.behavior.forge_rrep && not (Address.equal dst (address t)) ->
      let key = { Address.addr = origin; seq = bcast_id } in
      if not (Address.Seq_tbl.mem t.seen_rreq key) then begin
        Address.Seq_tbl.replace t.seen_rreq key ();
        forge_aodv_rrep t ~src ~origin ~dst ~dst_seq_known
      end
  | Messages.Aodv (Messages.Aodv_data { dst; _ })
    when not (Address.equal dst (address t)) ->
      (* AODV data reaches us only as its next hop (AODV refuses a
         promiscuous radio): transit data. *)
      drop_or_delegate t ~src msg
  | Messages.Probe { target; _ } -> (
      match transit_tail t msg with
      | Some _ ->
          if t.behavior.drop_probes then
            Ctx.audit t.ctx ~kind:Audit.Attack_drop
              ~stats:[ Key.attack_probes_dropped ]
              ~cause:"transit probe silently dropped" ()
          else t.delegate ~src msg
      | None ->
          if Address.equal target (address t) && not t.behavior.answer_probes
          then
            Ctx.audit t.ctx ~kind:Audit.Attack_drop
              ~stats:[ Key.attack_probes_dropped ]
              ~cause:("probe for " ^ Address.to_string target ^ " ignored")
              ()
          else t.delegate ~src msg)
  | _ -> t.delegate ~src msg
