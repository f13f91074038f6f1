module Address = Manet_ipv6.Address
module Cga = Manet_ipv6.Cga
module Prng = Manet_crypto.Prng
module Suite = Manet_crypto.Suite
module Messages = Manet_proto.Messages
module Codec = Manet_proto.Codec
module Ctx = Manet_proto.Node_ctx
module Identity = Manet_proto.Identity
module Audit = Manet_obs.Audit
module Engine = Manet_sim.Engine
module Obs = Manet_obs.Obs
module Dad = Manet_dad.Dad
module Stats = Manet_sim.Stats

(* Counter and series keys, bound once (see [Stats.key]). *)
module Key = struct
  let dns_drep_sent = Stats.key "dns.drep_sent"
  let dns_ip_change_challenged = Stats.key "dns.ip_change_challenged"
  let dns_ip_change_rejected = Stats.key "dns.ip_change_rejected"
  let dns_ip_changed = Stats.key "dns.ip_changed"
  let dns_pending = Stats.key "dns.pending"
  let dns_queries = Stats.key "dns.queries"
  let dns_registered = Stats.key "dns.registered"
  let dns_registration_cancelled = Stats.key "dns.registration_cancelled"
  let dns_warning_rejected = Stats.key "dns.warning_rejected"
  let dns_warning_stashed = Stats.key "dns.warning_stashed"
end

(* Seconds a registration stays pending, waiting for warnings. *)
let commit_wait = 1.5

type pending_reg = {
  reg_dn : string;
  reg_sip : Address.t;
  reg_ch : int64;
  mutable reg_cancelled : bool;
  reg_span : int option; (* dns.registration telemetry span *)
}

type pending_change = { chg_ch : int64; chg_old : Address.t; chg_new : Address.t }

type t = {
  ctx : Ctx.t;
  table : (string, Address.t) Hashtbl.t;
  permanent : (string, unit) Hashtbl.t;
  (* pending registrations, indexed both ways *)
  pending_by_sip : pending_reg Address.Tbl.t;
  pending_by_dn : (string, pending_reg) Hashtbl.t;
  pending_changes : (string, pending_change) Hashtbl.t;
  (* Duplicate warnings can outrun the flooded AREQ they refer to (the
     warning travels point-to-point while the AREQ sits in relay jitter
     queues), so unmatched warnings are stashed briefly and re-checked
     when the AREQ arrives. *)
  stashed_warnings : (float * Messages.t) Address.Tbl.t;
}

let create ctx =
  {
    ctx;
    table = Hashtbl.create 64;
    permanent = Hashtbl.create 16;
    pending_by_sip = Address.Tbl.create 16;
    pending_by_dn = Hashtbl.create 16;
    pending_changes = Hashtbl.create 16;
    stashed_warnings = Address.Tbl.create 16;
  }

let preload t ~name addr =
  Hashtbl.replace t.table name addr;
  Hashtbl.replace t.permanent name ()

let lookup t name = Hashtbl.find_opt t.table name

let entries t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let obs t = t.ctx.Ctx.obs

let finish_reg_span t reg outcome =
  match reg.reg_span with
  | Some id -> Obs.finish (obs t) id outcome
  | None -> ()

let send_drep t ~sip ~dn ~ch ~rr =
  let ctx = t.ctx in
  let sig_ = Identity.sign ctx.Ctx.identity (Codec.drep_payload ~dn ~ch) in
  let back_path = List.rev rr @ [ sip ] in
  Ctx.stat ctx Key.dns_drep_sent;
  Ctx.log ctx ~event:"dns.name_conflict" ~detail:dn;
  (* DREP span: child of the initiator's AREQ flood span (the DN rides
     the AREQ), open until the initiator verifies the reply. *)
  let o = obs t in
  if not (Obs.wants_events o) then
    ignore (Obs.start o ~kind:"dns.drep" ~node:(Ctx.node_id ctx) ())
  else
    Obs.correlate o (Dad.drep_corr sig_)
      (Obs.start o
         ?parent:(Obs.lookup o (Dad.flood_key ~sip ~ch))
         ~kind:"dns.drep" ~node:(Ctx.node_id ctx)
         ~detail:("dn=" ^ dn) ());
  Ctx.send_along ctx ~path:back_path
    (Messages.Drep { sip; dn; rr; remaining = back_path; sig_ })

let drop_pending t reg =
  Address.Tbl.remove t.pending_by_sip reg.reg_sip;
  Hashtbl.remove t.pending_by_dn reg.reg_dn

let commit_pending t reg =
  if not reg.reg_cancelled then begin
    Hashtbl.replace t.table reg.reg_dn reg.reg_sip;
    Ctx.stat t.ctx Key.dns_registered;
    finish_reg_span t reg Obs.Ok;
    if Obs.wants_events (obs t) then
      Ctx.log t.ctx ~event:"dns.registered"
        ~detail:
          (Printf.sprintf "%s -> %s" reg.reg_dn (Address.to_string reg.reg_sip))
  end;
  drop_pending t reg

(* --- §3.1 integration: AREQ observation and duplicate warnings -------- *)

let verify_warning t ~sip ~sig_ ~pk ~rn ~ch =
  let suite = Ctx.suite t.ctx in
  Suite.count_hash suite ~bytes:(String.length pk + 8);
  Cga.verify sip ~pk_bytes:pk ~rn
  && suite.Suite.verify ~pk_bytes:pk
       ~msg:(Codec.arep_payload ~sip ~ch)
       ~signature:sig_

let stash_window = 4.0 *. commit_wait

let stash_warning t ~sip msg =
  let now = Engine.now t.ctx.Ctx.engine in
  (* Prune expired stashes opportunistically. *)
  let expired =
    List.sort Address.compare
      (Address.Tbl.fold
         (fun k (when_, _) acc ->
           if now -. when_ > stash_window then k :: acc else acc)
         t.stashed_warnings [])
  in
  List.iter (Address.Tbl.remove t.stashed_warnings) expired;
  Address.Tbl.replace t.stashed_warnings sip (now, msg)

let stashed_warning_applies t ~sip ~ch =
  match Address.Tbl.find_opt t.stashed_warnings sip with
  | None -> false
  | Some (when_, Messages.Arep { sip = wsip; sig_; pk; rn; _ })
    when Engine.now t.ctx.Ctx.engine -. when_ <= stash_window
         && Address.equal wsip sip ->
      verify_warning t ~sip ~sig_ ~pk ~rn ~ch
  | Some _ -> false

let observe_areq t msg =
  match msg with
  | Messages.Areq { sip; dn = Some dn; ch; rr; _ } -> (
      let conflict_with other = not (Address.equal other sip) in
      match (Hashtbl.find_opt t.table dn, Hashtbl.find_opt t.pending_by_dn dn) with
      | Some bound, _ when conflict_with bound -> send_drep t ~sip ~dn ~ch ~rr
      | None, Some reg when conflict_with reg.reg_sip ->
          (* An earlier, still-pending claimant wins: first come first
             served. *)
          send_drep t ~sip ~dn ~ch ~rr
      | Some _, _ -> () (* same host re-registering *)
      | None, Some _ -> () (* same host's own pending retry *)
      | None, None when stashed_warning_applies t ~sip ~ch ->
          (* A verified duplicate warning already arrived for this
             address: refuse the registration outright. *)
          Address.Tbl.remove t.stashed_warnings sip;
          Ctx.audit t.ctx ~kind:Audit.Dns_conflict ~subject:sip
            ~stats:[ Key.dns_registration_cancelled ]
            ~cause:"registration refused: verified duplicate warning on file"
            ();
          if Obs.wants_events (obs t) then
            Ctx.log t.ctx ~event:"dns.warning"
              ~detail:
                (Printf.sprintf "stashed duplicate %s" (Address.to_string sip))
      | None, None ->
          let span =
            let o = obs t in
            let node = Ctx.node_id t.ctx in
            Some
              (if Obs.wants_events o then
                 Obs.start o
                   ?parent:(Obs.lookup o (Dad.flood_key ~sip ~ch))
                   ~kind:"dns.registration" ~node ~detail:("dn=" ^ dn) ()
               else Obs.start o ~kind:"dns.registration" ~node ())
          in
          let reg =
            {
              reg_dn = dn;
              reg_sip = sip;
              reg_ch = ch;
              reg_cancelled = false;
              reg_span = span;
            }
          in
          Address.Tbl.replace t.pending_by_sip sip reg;
          Hashtbl.replace t.pending_by_dn dn reg;
          Ctx.stat t.ctx Key.dns_pending;
          Engine.schedule t.ctx.Ctx.engine ~label:"dns"
            ~delay:commit_wait (fun () ->
              (* Only commit if this exact registration is still current. *)
              match Hashtbl.find_opt t.pending_by_dn dn with
              | Some r when r == reg -> commit_pending t reg
              | _ -> ()))
  | _ -> ()

let consume_warning t msg =
  match msg with
  | Messages.Arep { sip; sig_; pk; rn; _ } -> (
      match Address.Tbl.find_opt t.pending_by_sip sip with
      | None ->
          (* Possibly ahead of its AREQ: keep it for a while. *)
          (* The stash is quarantine, not trust: a stashed warning only
             affects a registration decision after stashed_warning_applies
             re-checks its CGA binding and signature against the later
             AREQ's challenge. *)
          stash_warning t ~sip msg;
          Ctx.stat t.ctx Key.dns_warning_stashed
      | Some reg ->
          let valid = verify_warning t ~sip ~sig_ ~pk ~rn ~ch:reg.reg_ch in
          if valid then begin
            reg.reg_cancelled <- true;
            drop_pending t reg;
            finish_reg_span t reg (Obs.Rejected "duplicate warning");
            Ctx.audit t.ctx ~kind:Audit.Dns_conflict ~subject:sip
              ~stats:[ Key.dns_registration_cancelled ]
              ~cause:"pending registration cancelled by duplicate warning" ();
            if Obs.wants_events (obs t) then
              Ctx.log t.ctx ~event:"dns.warning"
                ~detail:(Printf.sprintf "duplicate %s" (Address.to_string sip))
          end
          else
            Ctx.audit t.ctx ~kind:Audit.Sig_verify_fail
              ~stats:[ Key.dns_warning_rejected ]
              ~cause:"duplicate-warning arep binding or signature" ())
  | _ -> ()

let attach t dad =
  Manet_dad.Dad.set_areq_observer dad (observe_areq t);
  Manet_dad.Dad.set_warning_sink dad (consume_warning t)

(* --- §3.2: routed services -------------------------------------------- *)

let reply_path ~route ~requester = List.rev route @ [ requester ]

let serve_name_query t ~requester ~name ~ch ~route =
  let ctx = t.ctx in
  let result = lookup t name in
  let sig_ =
    Identity.sign ctx.Ctx.identity (Codec.name_reply_payload ~name ~result ~ch)
  in
  Ctx.stat ctx Key.dns_queries;
  let path = reply_path ~route ~requester in
  Ctx.send_along ctx ~path
    (Messages.Name_reply { requester; name; result; ch; remaining = path; sig_ })

let change_key ~old_ip ~new_ip = Codec.addr old_ip ^ Codec.addr new_ip

let serve_ip_change_request t ~old_ip ~new_ip ~route =
  let ctx = t.ctx in
  let ch = Prng.bits64 ctx.Ctx.rng in
  Hashtbl.replace t.pending_changes (change_key ~old_ip ~new_ip)
    { chg_ch = ch; chg_old = old_ip; chg_new = new_ip };
  Ctx.stat ctx Key.dns_ip_change_challenged;
  let path = reply_path ~route ~requester:old_ip in
  Ctx.send_along ctx ~path
    (Messages.Ip_change_challenge { old_ip; new_ip; ch; remaining = path })

let serve_ip_change_proof t ~old_ip ~new_ip ~old_rn ~new_rn ~pk ~sig_ ~route =
  let ctx = t.ctx in
  let key = change_key ~old_ip ~new_ip in
  let accepted =
    match Hashtbl.find_opt t.pending_changes key with
    | None -> false
    | Some chg ->
        let suite = Ctx.suite ctx in
        let cga_ok ip rn =
          Suite.count_hash suite ~bytes:(String.length pk + 8);
          Cga.verify ip ~pk_bytes:pk ~rn
        in
        cga_ok old_ip old_rn
        && cga_ok new_ip new_rn
        && suite.Suite.verify ~pk_bytes:pk
             ~msg:(Codec.ip_change_payload ~old_ip ~new_ip ~ch:chg.chg_ch)
             ~signature:sig_
  in
  Hashtbl.remove t.pending_changes key;
  if accepted then begin
    (* Rebind every name mapped to the old address. *)
    let renames =
      List.sort String.compare
        (Hashtbl.fold
           (fun dn addr acc ->
             if Address.equal addr old_ip then dn :: acc else acc)
           t.table [])
    in
    List.iter (fun dn -> Hashtbl.replace t.table dn new_ip) renames;
    Ctx.stat ctx Key.dns_ip_changed;
    if Obs.wants_events (obs t) then
      Ctx.log ctx ~event:"dns.ip_changed"
        ~detail:
          (Printf.sprintf "%s -> %s (%d names)" (Address.to_string old_ip)
             (Address.to_string new_ip) (List.length renames))
  end
  else
    Ctx.audit ctx ~kind:Audit.Sig_verify_fail
      ~stats:[ Key.dns_ip_change_rejected ]
      ~cause:
        ("ip-change proof for "
        ^ Address.to_string old_ip
        ^ ": CGA bindings or challenge signature")
      ();
  (* The ack goes back to whoever holds the *old* address' return route;
     the proof's route field is the requester's path to us. *)
  let path = reply_path ~route ~requester:old_ip in
  Ctx.send_along ctx ~path
    (Messages.Ip_change_ack { old_ip; new_ip; accepted; remaining = path })

let handle t ~src msg =
  match msg with
  | Messages.Name_query _ | Messages.Ip_change_request _
  | Messages.Ip_change_proof _ ->
      Ctx.deliver_up t.ctx ~src msg
        ~consume:(fun m ->
          match m with
          | Messages.Name_query { requester; name; ch; route; _ } ->
              serve_name_query t ~requester ~name ~ch ~route
          | Messages.Ip_change_request { old_ip; new_ip; route; _ } ->
              serve_ip_change_request t ~old_ip ~new_ip ~route
          | Messages.Ip_change_proof { old_ip; new_ip; old_rn; new_rn; pk; sig_; route; _ } ->
              serve_ip_change_proof t ~old_ip ~new_ip ~old_rn ~new_rn ~pk ~sig_
                ~route
          | _ -> ())
        ~forward:(fun ~next m -> Ctx.send_along t.ctx ~path:next m)
        ~not_mine:(fun _ -> ())
  (* AREQ observation and duplicate warnings arrive through observe_areq
     and consume_warning (wired by Scenario), not this dispatch; the
     rest is enumerated so new constructors fail the manetcheck
     dispatch rule rather than vanish here. *)
  | Messages.Areq _ | Messages.Arep _ | Messages.Drep _ | Messages.Rreq _
  | Messages.Rrep _ | Messages.Crep _ | Messages.Rerr _ | Messages.Data _
  | Messages.Ack _ | Messages.Probe _ | Messages.Probe_reply _
  | Messages.Name_reply _ | Messages.Ip_change_challenge _
  | Messages.Ip_change_ack _ | Messages.Aodv _ -> ()
