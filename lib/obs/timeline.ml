module Engine = Manet_sim.Engine
module Net = Manet_sim.Net
module Mono_clock = Manet_sim.Mono_clock
module Suite = Manet_crypto.Suite

module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.hash
end)

let schema = "manetsim-timeline"
let schema_version = 1
let default_width = 1.0

(* A closed bucket: deltas of the always-on cumulative counters between
   two bucket boundaries.  Buckets are half-open [i*w, (i+1)*w) windows
   of sim time; only windows that saw activity are materialised. *)
type bucket = {
  b_index : int;
  b_events : int;
  b_pending : int; (* queue depth at close *)
  b_labels : (string * int) list; (* nonzero per-label event deltas *)
  b_deliveries : int;
  b_transmissions : int;
  b_drops : int; (* unicast failures *)
  b_signs : int;
  b_verifies : int;
  b_hash_blocks : int;
  b_kinds : (string * (int * int * int)) list; (* per-kind crypto deltas *)
  b_audit : int;
}

(* The cumulative sources diffed at bucket close.  [Net.t] is
   message-polymorphic, so its counters are captured as closures when
   the (polymorphic) {!attach} runs. *)
type sources = {
  s_deliveries : unit -> int;
  s_transmissions : unit -> int;
  s_drops : unit -> int;
  s_suite : Suite.t;
  s_perf : Perf.t;
  s_audit : Audit.t;
}

(* Wall-clock heartbeat state.  Lives entirely outside the
   deterministic domain: it reads {!Mono_clock} every [pr_every]
   events and emits through a caller-supplied sink (bin/ wires stderr),
   never into any export. *)
type progress = {
  pr_emit : string -> unit;
  pr_interval : float;
  pr_horizon : float option;
  pr_every : int;
  mutable pr_countdown : int;
  mutable pr_last_wall : float;
  mutable pr_last_events : int;
  mutable pr_last_sim : float;
}

type t = {
  engine : Engine.t;
  width : float;
  mutable enabled : bool;
  mutable sources : sources option;
  mutable cur : int;
  mutable rev_buckets : bucket list;
  (* cumulative snapshots at the last close *)
  mutable last_events : int;
  last_labels : int Stbl.t;
  last_kinds : (int * int * int) Stbl.t;
  mutable last_deliveries : int;
  mutable last_transmissions : int;
  mutable last_drops : int;
  mutable last_signs : int;
  mutable last_verifies : int;
  mutable last_hash_blocks : int;
  mutable last_audit : int;
  mutable progress : progress option;
}

let create ?(width = default_width) engine =
  if width <= 0.0 then invalid_arg "Timeline.create: width must be positive";
  {
    engine;
    width;
    enabled = true;
    sources = None;
    cur = 0;
    rev_buckets = [];
    last_events = 0;
    last_labels = Stbl.create 16;
    last_kinds = Stbl.create 16;
    last_deliveries = 0;
    last_transmissions = 0;
    last_drops = 0;
    last_signs = 0;
    last_verifies = 0;
    last_hash_blocks = 0;
    last_audit = 0;
    progress = None;
  }

let set_enabled t on = t.enabled <- on

let attach t ~net ~suite ~perf ~audit =
  t.sources <-
    Some
      {
        s_deliveries = (fun () -> Net.deliveries net);
        s_transmissions = (fun () -> Net.transmissions net);
        s_drops = (fun () -> Net.unicast_failures net);
        s_suite = suite;
        s_perf = perf;
        s_audit = audit;
      }

(* --- bucket close ------------------------------------------------------- *)

(* Diff the engine's sorted per-label totals against the last snapshot,
   updating the snapshot in place.  Labels only ever grow, so a missing
   snapshot entry reads as 0. *)
let label_deltas t =
  List.filter_map
    (fun (l, c) ->
      let prev = match Stbl.find_opt t.last_labels l with Some v -> v | None -> 0 in
      if c > prev then begin
        Stbl.replace t.last_labels l c;
        Some (l, c - prev)
      end
      else None)
    (Engine.label_counts t.engine)

let kind_deltas t perf =
  List.filter_map
    (fun (k, (s, v, h)) ->
      let ps, pv, ph =
        match Stbl.find_opt t.last_kinds k with
        | Some c -> c
        | None -> (0, 0, 0)
      in
      if s > ps || v > pv || h > ph then begin
        Stbl.replace t.last_kinds k (s, v, h);
        Some (k, (s - ps, v - pv, h - ph))
      end
      else None)
    (Perf.kind_totals perf)

let close t =
  let events = Engine.events_processed t.engine in
  let d_events = events - t.last_events in
  let labels = label_deltas t in
  let dv, dx, dd, ds, dver, dh, dk, da =
    match t.sources with
    | None -> (0, 0, 0, 0, 0, 0, [], 0)
    | Some s ->
        let deliv = s.s_deliveries () in
        let trans = s.s_transmissions () in
        let drops = s.s_drops () in
        let signs = s.s_suite.Suite.sign_count in
        let verifies = s.s_suite.Suite.verify_count in
        let blocks = s.s_suite.Suite.sha256_blocks in
        let audit = Audit.count s.s_audit in
        let r =
          ( deliv - t.last_deliveries,
            trans - t.last_transmissions,
            drops - t.last_drops,
            signs - t.last_signs,
            verifies - t.last_verifies,
            blocks - t.last_hash_blocks,
            kind_deltas t s.s_perf,
            audit - t.last_audit )
        in
        t.last_deliveries <- deliv;
        t.last_transmissions <- trans;
        t.last_drops <- drops;
        t.last_signs <- signs;
        t.last_verifies <- verifies;
        t.last_hash_blocks <- blocks;
        t.last_audit <- audit;
        r
  in
  t.last_events <- events;
  if
    d_events > 0 || labels <> [] || dv > 0 || dx > 0 || dd > 0 || ds > 0
    || dver > 0 || dh > 0 || dk <> [] || da > 0
  then begin
    let b =
      {
        b_index = t.cur;
        b_events = d_events;
        b_pending = Engine.pending t.engine;
        b_labels = labels;
        b_deliveries = dv;
        b_transmissions = dx;
        b_drops = dd;
        b_signs = ds;
        b_verifies = dver;
        b_hash_blocks = dh;
        b_kinds = dk;
        b_audit = da;
      }
    in
    t.rev_buckets <- b :: t.rev_buckets
  end

(* --- the per-event hook -------------------------------------------------- *)

(* Fired by the engine with the event's timestamp before the event is
   counted or run, so a close at event [e] snapshots state that excludes
   [e]: bucket [i] holds exactly the events with [i*w <= time < (i+1)*w].
   The fast path (same bucket, no heartbeat due) is an option match, a
   float divide and two compares — no allocation. *)
let tick t time =
  (match t.progress with
  | Some p ->
      p.pr_countdown <- p.pr_countdown - 1;
      if p.pr_countdown <= 0 then begin
        p.pr_countdown <- p.pr_every;
        let w = Mono_clock.now_s () in
        let dt = w -. p.pr_last_wall in
        if dt >= p.pr_interval then begin
          let events = Engine.events_processed t.engine in
          let rate = float_of_int (events - p.pr_last_events) /. dt in
          let sim_rate = (time -. p.pr_last_sim) /. dt in
          let line =
            if time <= p.pr_last_sim then
              Printf.sprintf
                "[progress] t=%.3fs STALL: sim clock unchanged for %.1fs wall \
                 (%d events, %.0f ev/s, pending %d)"
                time dt events rate
                (Engine.pending t.engine)
            else
              let eta =
                match p.pr_horizon with
                | Some h when sim_rate > 0.0 && h > time ->
                    Printf.sprintf ", eta %.0fs" ((h -. time) /. sim_rate)
                | _ -> ""
              in
              Printf.sprintf
                "[progress] t=%.3fs  %d events  %.0f ev/s  %.2f sim-s/s  \
                 pending %d%s"
                time events rate sim_rate
                (Engine.pending t.engine)
                eta
          in
          p.pr_emit line;
          p.pr_last_wall <- w;
          p.pr_last_events <- events;
          p.pr_last_sim <- time
        end
      end
  | None -> ());
  if t.enabled then begin
    let idx = int_of_float (time /. t.width) in
    if idx > t.cur then begin
      close t;
      t.cur <- idx
    end
  end

let install t = Engine.set_on_event t.engine (Some (fun time -> tick t time))

let enable_progress ?horizon ?(interval = 2.0) ?(check_every = 4096) t ~emit ()
    =
  let now = Mono_clock.now_s () in
  t.progress <-
    Some
      {
        pr_emit = emit;
        pr_interval = interval;
        pr_horizon = horizon;
        pr_every = check_every;
        pr_countdown = 1;
        pr_last_wall = now;
        pr_last_events = Engine.events_processed t.engine;
        pr_last_sim = Engine.now t.engine;
      }

(* --- read side / export ------------------------------------------------- *)

(* Close the trailing partial bucket.  Idempotent: a second flush with
   no new activity produces only zero deltas, which materialise no
   bucket — so exporting twice yields identical bytes. *)
let flush t = if t.enabled then close t

let bucket_json b =
  Json.Obj
    [
      ("type", Json.String "bucket");
      ("i", Json.Int b.b_index);
      ("events", Json.Int b.b_events);
      ("pending", Json.Int b.b_pending);
      ("labels", Json.Obj (List.map (fun (l, c) -> (l, Json.Int c)) b.b_labels));
      ("deliveries", Json.Int b.b_deliveries);
      ("transmissions", Json.Int b.b_transmissions);
      ("drops", Json.Int b.b_drops);
      ("signs", Json.Int b.b_signs);
      ("verifies", Json.Int b.b_verifies);
      ("hash_blocks", Json.Int b.b_hash_blocks);
      ( "kinds",
        Json.Obj
          (List.map
             (fun (k, (s, v, h)) ->
               ( k,
                 Json.Obj
                   [
                     ("signs", Json.Int s);
                     ("verifies", Json.Int v);
                     ("hash_blocks", Json.Int h);
                   ] ))
             b.b_kinds) );
      ("audit", Json.Int b.b_audit);
    ]

let header ?(meta = []) t =
  Json.Obj
    ([
       ("schema", Json.String schema);
       ("version", Json.Int schema_version);
       ("width", Json.Float t.width);
     ]
    @ meta)

(* One header line, one line per materialised bucket oldest-first, then
   the flood provenance tail.  Every byte is a pure function of the
   seeded event sequence — the CI cmp-gates same-seed replays and sweep
   domain counts on this. *)
let to_jsonl ?meta t ~flood =
  flush t;
  let buf = Buffer.create 4096 in
  Json.to_buffer buf (header ?meta t);
  Buffer.add_char buf '\n';
  List.iter
    (fun b ->
      Json.to_buffer buf (bucket_json b);
      Buffer.add_char buf '\n')
    (List.rev t.rev_buckets);
  Flood.append_jsonl buf flood;
  Buffer.contents buf
