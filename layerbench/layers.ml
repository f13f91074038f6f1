(* Per-layer metrics of one traced repetition.

   Counts come from the finished scenario.  Costs come from replays: each
   layer's public functions are called on their own, outside the
   simulation, with inputs taken from the workload (its queue depth, its
   final node positions, its identities, its message mix), and timed with
   the probe normalisation of probe.ml.  The replays are then multiplied
   by the run's counts and compared with the measured simulation time;
   what they do not explain (protocol handlers, garbage collection, cache
   effects) is reported as the residual. *)

module Scenario = Manetsec.Scenario
module Engine = Manetsec.Sim.Engine
module Net = Manetsec.Sim.Net
module Hist = Manetsec.Sim.Hist
module Stats = Manetsec.Sim.Stats
module Topology = Manetsec.Sim.Topology
module Ctx = Manetsec.Proto.Node_ctx
module Messages = Manetsec.Proto.Messages
module Directory = Manetsec.Proto.Directory
module Suite = Manetsec.Crypto.Suite
module Prng = Manetsec.Crypto.Prng
module Sha256 = Manetsec.Crypto.Sha256
module Cga = Manetsec.Ipv6.Cga
module Obs = Manetsec.Obs
module Flood = Manetsec.Flood

let batches = 5

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Normalised ns and minor words per call of [f], each the median of
   [batches] batches of [iters] calls; [between] runs untimed after each
   batch (to drain queued events). *)
let per_call ?(between = ignore) ~iters f =
  let samples =
    List.init batches (fun _ ->
        let w0 = Gc.minor_words () in
        let (), raw =
          Probe.segment (fun () ->
              for i = 0 to iters - 1 do
                f i
              done)
        in
        let words = Gc.minor_words () -. w0 in
        between ();
        (Probe.norm raw *. 1e9 /. float_of_int iters, words /. float_of_int iters))
  in
  (median (List.map fst samples), median (List.map snd samples))

let ns ?between ~iters f = fst (per_call ?between ~iters f)

(* Bare engine dispatch at a fixed queue depth: every event reschedules
   itself, so the queue holds [depth] events throughout. *)
let engine_dispatch_ns ~depth =
  let e = Engine.create ~seed:1 () in
  let g = Random.State.make [| 7 |] in
  let delays = Array.init 4096 (fun _ -> Random.State.float g 1.0) in
  let k = ref 0 in
  let rec tick () =
    incr k;
    Engine.schedule e ~label:"net" ~delay:delays.(!k land 4095) tick
  in
  for i = 1 to max 1 depth do
    Engine.schedule e ~label:"net" ~delay:delays.(i land 4095) tick
  done;
  let chunk = 20_000 in
  ns ~iters:1 (fun _ -> Engine.run e ~max_events:chunk) /. float_of_int chunk

let net_config s =
  let p = Scenario.params s in
  {
    Net.default_config with
    range = p.Scenario.range;
    loss = p.Scenario.loss;
    promiscuous = p.Scenario.promiscuous;
  }

(* For every node with a neighbour at the end of the run, one of them. *)
let neighbour_pairs s =
  let topo = Net.topology (Scenario.net s) in
  let range = (Scenario.params s).Scenario.range in
  List.init (Topology.size topo) (fun i ->
      match Topology.neighbors topo ~range i with [] -> None | j :: _ -> Some (i, j))
  |> List.filter_map Fun.id |> Array.of_list

let net_replay s =
  let e = Engine.create ~seed:1 () in
  let topo = Net.topology (Scenario.net s) in
  let net : unit Net.t = Net.create ~config:(net_config s) e topo in
  let n = Topology.size topo in
  let pairs = neighbour_pairs s in
  let drain () = Engine.run e in
  let bcast = ns ~between:drain ~iters:2000 (fun i -> Net.broadcast net ~src:(i mod n) ~size:100 ()) in
  let ucast =
    ns ~between:drain ~iters:2000 (fun i ->
        let src, dst = pairs.(i mod Array.length pairs) in
        Net.unicast net ~src ~dst ~size:600 ())
  in
  (bcast, ucast)

let sample_messages s =
  let a i = Scenario.address_of s i in
  let route = [ a 1; a 2; a 3 ] in
  let entry i =
    { Messages.ip = a i; sig_ = String.make 64 's'; pk = String.make 74 'k'; rn = 7L }
  in
  [
    ( "data",
      Messages.Data
        { src = a 0; dst = a 4; seq = 1; route; remaining = route; payload_size = 512; sent_at = 0.0 } );
    ( "ack",
      Messages.Ack { src = a 4; dst = a 0; data_seq = 1; route; remaining = route; sent_at = 0.0 } );
    ("areq", Messages.Areq { sip = a 5; seq = 1; dn = Some "node5"; ch = 9L; rr = route });
    ( "rreq",
      Messages.Rreq
        {
          sip = a 0;
          dip = a 4;
          seq = 1;
          srr = List.map entry [ 1; 2; 3 ];
          sig_ = String.make 64 's';
          spk = String.make 74 'k';
          srn = 3L;
        } );
    ( "rrep",
      Messages.Rrep
        {
          sip = a 0;
          dip = a 4;
          rr = route;
          remaining = route;
          sig_ = String.make 64 's';
          dpk = String.make 74 'k';
          drn = 3L;
        } );
  ]

(* The protocol-send layer: Node_ctx.broadcast and send_along on a fresh
   engine and radio with every telemetry sink off, minus the radio calls
   they make (timed the same way by [net_replay]). *)
let proto_replay s ~bcast_ns ~ucast_ns ~bcast_share =
  let e = Engine.create ~seed:1 () in
  let net = Net.create ~config:(net_config s) e (Net.topology (Scenario.net s)) in
  let dir = Directory.create () in
  let nodes = Scenario.nodes s in
  Array.iter (fun nd -> Directory.register dir (Scenario.address_of s nd.Scenario.index) nd.Scenario.index) nodes;
  let obs = Obs.create e in
  let ctxs =
    Array.map
      (fun nd -> Ctx.create ~obs net dir nd.Scenario.identity (Prng.create ~seed:nd.Scenario.index))
      nodes
  in
  let pairs = neighbour_pairs s in
  let msgs = sample_messages s in
  let data = List.assoc "data" msgs and areq = List.assoc "areq" msgs in
  let drain () = Engine.run e in
  let b_ns, b_words =
    per_call ~between:drain ~iters:2000 (fun i -> Ctx.broadcast ctxs.(i mod Array.length ctxs) areq)
  in
  let u_ns, u_words =
    per_call ~between:drain ~iters:2000 (fun i ->
        let src, dst = pairs.(i mod Array.length pairs) in
        Ctx.send_along ctxs.(src) ~path:[ Scenario.address_of s dst ] data)
  in
  let mix a b = (bcast_share *. a) +. ((1.0 -. bcast_share) *. b) in
  let send_ns = mix (b_ns -. bcast_ns) (u_ns -. ucast_ns) in
  let send_words = mix b_words u_words in
  let stats = Scenario.stats s in
  let weighted =
    List.map
      (fun (tag, m) ->
        let c = float_of_int (Stats.get stats ("tx." ^ tag)) in
        (c, c *. ns ~iters:5000 (fun _ -> ignore (Sys.opaque_identity (Ctx.size_of ctxs.(0) m)))))
      msgs
  in
  let total = List.fold_left (fun acc (c, _) -> acc +. c) 0.0 weighted in
  let size_of_ns =
    if total = 0.0 then 0.0 else List.fold_left (fun acc (_, x) -> acc +. x) 0.0 weighted /. total
  in
  (send_ns, send_words, size_of_ns)

(* ns per operation of every crypto primitive the protocols use, and the
   time of one RSA-512 key generation. *)
let crypto_replay () =
  let msg = String.make 64 'm' in
  let rsa = Suite.rsa ~bits:512 (Prng.create ~seed:42) in
  let keygen_ms = ns ~iters:2 (fun _ -> ignore (rsa.Suite.generate ())) /. 1e6 in
  let kp = rsa.Suite.generate () in
  let rsa_sig = kp.Suite.sign msg in
  let mock = Suite.mock (Prng.create ~seed:42) in
  let mkp = mock.Suite.generate () in
  let mock_sig = mkp.Suite.sign msg in
  let rn = 11L in
  let addr = Cga.generate ~pk_bytes:kp.Suite.pk_bytes ~rn in
  let data_1k = String.make 1024 'd' in
  [
    ("crypto.rsa_keygen_ms", keygen_ms);
    ("crypto.rsa512_sign_ns", ns ~iters:20 (fun _ -> ignore (kp.Suite.sign msg)));
    ( "crypto.rsa512_verify_ns",
      ns ~iters:100 (fun _ ->
          ignore (rsa.Suite.verify ~pk_bytes:kp.Suite.pk_bytes ~msg ~signature:rsa_sig)) );
    ("crypto.mock_sign_ns", ns ~iters:2000 (fun _ -> ignore (mkp.Suite.sign msg)));
    ( "crypto.mock_verify_ns",
      ns ~iters:2000 (fun _ ->
          ignore (mock.Suite.verify ~pk_bytes:mkp.Suite.pk_bytes ~msg ~signature:mock_sig)) );
    ( "crypto.cga_verify_ns",
      ns ~iters:2000 (fun _ -> ignore (Cga.verify addr ~pk_bytes:kp.Suite.pk_bytes ~rn)) );
    ("crypto.sha256_1k_ns", ns ~iters:1000 (fun _ -> ignore (Sha256.digest data_1k)));
  ]

let labels = [ "net"; "traffic"; "dad"; "secure"; "dsr"; "mobility" ]
let streams = [ "spans"; "audit"; "metrics"; "timeline"; "perf" ]

let measure s ~spans ~root ~events ~sim_s ~raw_sim_s ~boot_s ~gc:(gc0, gc1) ~exports =
  let replay name f =
    let t = Probe.now () in
    let r = f () in
    ignore (Spans.add spans ~parent:root ("replay." ^ name) ~start:t ~stop:(Probe.now ()));
    r
  in
  let engine = Scenario.engine s and net = Scenario.net s in
  let stats = Scenario.stats s in
  let stat name = float_of_int (Stats.get stats name) in
  let fevents = float_of_int (max 1 events) in
  let delivered = Float.max 1.0 (stat "data.delivered") in
  let dispatch_ns =
    replay "engine" (fun () -> engine_dispatch_ns ~depth:(Engine.max_pending engine))
  in
  let bcast_ns, ucast_ns = replay "net" (fun () -> net_replay s) in
  let broadcasts = Hist.count (Net.fanout_hist net) in
  let transmissions = Net.transmissions net in
  let unicasts = max 0 (transmissions - broadcasts) in
  let bcast_share = float_of_int broadcasts /. float_of_int (max 1 transmissions) in
  let send_ns, send_words, size_of_ns =
    replay "proto" (fun () -> proto_replay s ~bcast_ns ~ucast_ns ~bcast_share)
  in
  let crypto = replay "crypto" crypto_replay in
  let suite = Scenario.suite s in
  let scheme = match (Scenario.params s).Scenario.suite with Scenario.Rsa_suite _ -> "rsa512" | _ -> "mock" in
  let sign_ns = List.assoc ("crypto." ^ scheme ^ "_sign_ns") crypto in
  let verify_ns = List.assoc ("crypto." ^ scheme ^ "_verify_ns") crypto in
  let signs = float_of_int suite.Suite.sign_count and verifies = float_of_int suite.Suite.verify_count in
  let sends =
    List.fold_left
      (fun acc (k, v) -> if String.starts_with ~prefix:"tx." k then acc +. float_of_int v else acc)
      0.0 (Stats.counters stats)
  in
  let engine_est = fevents *. dispatch_ns *. 1e-9 in
  let net_est = ((float_of_int broadcasts *. bcast_ns) +. (float_of_int unicasts *. ucast_ns)) *. 1e-9 in
  let proto_est = sends *. send_ns *. 1e-9 in
  let crypto_est = ((signs *. sign_ns) +. (verifies *. verify_ns)) *. 1e-9 in
  let layer_sum = engine_est +. net_est +. proto_est +. crypto_est in
  (* Engine.profile reads the raw clock; rescale with the probe ratio of
     the bootstrap and traffic segments. *)
  let speed = sim_s /. raw_sim_s in
  let profile = Engine.profile engine in
  let profiled = List.fold_left (fun acc (_, e) -> acc +. e.Engine.p_wall_s) 0.0 profile in
  let label_metrics =
    List.concat_map
      (fun l ->
        let count, wall =
          match List.assoc_opt l profile with
          | Some e -> (e.Engine.p_count, e.Engine.p_wall_s)
          | None -> (0, 0.0)
        in
        [
          ( Printf.sprintf "engine.label.%s.ns_per_event" l,
            if count = 0 then 0.0 else wall *. speed *. 1e9 /. float_of_int count );
          (Printf.sprintf "engine.label.%s.share" l, if profiled > 0.0 then wall /. profiled else 0.0);
        ])
      labels
  in
  let hist_mean h = Option.value ~default:0.0 (Hist.mean h) in
  let p99 h = match Hist.percentile h 0.99 with Some v -> float_of_int v | None -> 0.0 in
  let fl = Obs.flood (Scenario.obs s) in
  let export_metrics =
    List.concat_map
      (fun stream ->
        let text, secs =
          match List.find_opt (fun (name, _, _) -> name = stream) exports with
          | Some (_, text, secs) -> (text, secs)
          | None -> ("", 0.0)
        in
        [
          ("obs.export_s." ^ stream, secs);
          ("obs.export_bytes." ^ stream, float_of_int (String.length text));
        ])
      streams
  in
  [
    ("engine.events", fevents);
    ("engine.max_pending", float_of_int (Engine.max_pending engine));
    ("engine.dispatch_ns", dispatch_ns);
  ]
  @ label_metrics
  @ [
      ("net.transmissions", float_of_int transmissions);
      ("net.deliveries", float_of_int (Net.deliveries net));
      ("net.retries", float_of_int (Net.retries net));
      ("net.unicast_failures", float_of_int (Net.unicast_failures net));
      ("net.scan_mean", hist_mean (Net.scan_hist net));
      ("net.scan_p99", p99 (Net.scan_hist net));
      ("net.fanout_mean", hist_mean (Net.fanout_hist net));
      ("net.broadcast_ns", bcast_ns);
      ("net.unicast_ns", ucast_ns);
      ("proto.send_ns", send_ns);
      ("proto.send_minor_words", send_words);
      ("proto.size_of_ns", size_of_ns);
      ("proto.control_bytes_per_delivered", float_of_int (Scenario.control_bytes s) /. delivered);
      ("crypto.sign", signs);
      ("crypto.verify", verifies);
      ("crypto.sha256_blocks", float_of_int suite.Suite.sha256_blocks);
      ("crypto.verifies_per_delivered", verifies /. delivered);
    ]
  @ crypto
  @ [
      ("crypto.est_share", crypto_est /. sim_s);
      ("dad.bootstrap_s", boot_s);
      ("flood.duplicate_verifies_per_flood", Flood.duplicate_verifies_per_flood fl);
      ("flood.redundancy_ratio", Flood.flood_redundancy_ratio fl);
      ("routing.rreq_tx", stat "tx.rreq");
      ("routing.rerr_tx", stat "tx.rerr");
    ]
  @ export_metrics
  @ [
      ("obs.captured_events", float_of_int (List.length (Obs.events (Scenario.obs s))));
      ("obs.events_dropped", float_of_int (Obs.events_dropped (Scenario.obs s)));
      ("gc.minor_words_per_event", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. fevents);
      ("gc.promoted_words_per_event", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. fevents);
      ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("layers.engine_s", engine_est);
      ("layers.net_s", net_est);
      ("layers.proto_s", proto_est);
      ("layers.crypto_s", crypto_est);
      ("layers.sum_frac", layer_sum /. sim_s);
      ("layers.residual_s", sim_s -. layer_sum);
    ]
