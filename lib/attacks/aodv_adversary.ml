module Address = Manet_ipv6.Address
module Prng = Manet_crypto.Prng
module Aodv = Manet_aodv.Aodv
module Net = Manet_sim.Net
module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats

(* Counter and series keys, bound once (see [Stats.key]). *)
module Key = struct
  let attack_data_dropped = Stats.key "attack.data_dropped"
  let attack_rrep_forged = Stats.key "attack.rrep_forged"
end

type behavior = { forge_rrep : bool; drop_data : bool }

let blackhole = { forge_rrep = true; drop_data = true }
let silent_dropper = { forge_rrep = false; drop_data = true }

type t = {
  behavior : behavior;
  delegate : Aodv.t;
  rng : Prng.t;
  seen_rreq : unit Address.Seq_tbl.t; (* (origin, bcast_id) *)
}

let create ?(behavior = blackhole) ~delegate ~rng () =
  { behavior; delegate; rng; seen_rreq = Address.Seq_tbl.create 64 }

let address t = Aodv.address t.delegate
let stat t name = Stats.incr (Engine.stats (Net.engine (Aodv.net t.delegate))) name

(* Unicast to the link-layer sender of the RREQ; its freshly installed
   reverse route carries the reply onward. *)
let send_rrep_back t ~src forged =
  let net = Aodv.net t.delegate in
  let size = Aodv.msg_size ~sig_size:32 ~pk_size:32 forged in
  Net.unicast net ~src:(Aodv.node_id t.delegate) ~dst:src ~size forged

let handle t ~src msg =
  match msg with
  (* manetcheck: allow security — the adversary answers requests it has no
     business answering; by design it verifies nothing before forging its
     reply. *)
  | Aodv.Rreq { src = origin; bcast_id; dst; dst_seq_known; _ }
    when t.behavior.forge_rrep && not (Address.equal dst (address t)) ->
      let key = { Address.addr = origin; seq = bcast_id } in
      if not (Address.Seq_tbl.mem t.seen_rreq key) then begin
        Address.Seq_tbl.replace t.seen_rreq key ();
        (* Fabricate an irresistibly fresh one-hop reply.  We cannot sign
           as the destination, so under SAODV the sig/hash fields are
           junk and the reply dies at the first verifier. *)
        let forged =
          Aodv.Rrep
            {
              rep_src = origin;
              rep_dst = dst;
              dst_seq = dst_seq_known + 1000;
              hop_count = 0;
              sig_ = Prng.bytes t.rng 32;
              dpk = Prng.bytes t.rng 32;
              drn = Prng.bits64 t.rng;
              hash = Prng.bytes t.rng 32;
              top_hash = Prng.bytes t.rng 32;
              max_hops = 16;
            }
        in
        stat t Key.attack_rrep_forged;
        send_rrep_back t ~src forged
      end
      (* Do not relay: attract, don't help. *)
  | Aodv.Data { d_dst; _ }
    when t.behavior.drop_data && not (Address.equal d_dst (address t)) ->
      stat t Key.attack_data_dropped
  | _ -> Aodv.handle t.delegate ~src msg
