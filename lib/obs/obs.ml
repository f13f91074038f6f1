module Engine = Manet_sim.Engine

let schema = "manetsim-trace"
let schema_version = 1

type outcome = Ok | Timeout | Rejected of string | Failed of string

let outcome_label = function
  | Ok -> "ok"
  | Timeout -> "timeout"
  | Rejected _ -> "rejected"
  | Failed _ -> "failed"

let outcome_reason = function
  | Ok | Timeout -> None
  | Rejected r | Failed r -> Some r

type span = {
  id : int;
  parent : int option;
  kind : string;
  node : int;
  detail : string;
  start_time : float;
  mutable end_time : float option;
  mutable outcome : outcome option;
  mutable notes : (float * int * string) list; (* newest first *)
}

type event = { time : float; node : int; name : string; detail : string }

(* Monomorphic tables: [lookup]/[note] run on every RREQ first-copy
   relay, so neither may hash through the polymorphic primitive.  No
   iteration order reaches an export ([spans] is read by id). *)
module Itbl = Hashtbl.Make (Int)
module Stbl = Hashtbl.Make (String)

type t = {
  engine : Engine.t;
  spans : span Itbl.t;
  mutable next_id : int;
  corr : int Stbl.t;
  mutable capture : bool;
  events : event Queue.t;
  event_capacity : int;
  mutable events_dropped : int;
  audit : Audit.t;
  metrics : Metrics.t;
  perf : Perf.t;
  timeline : Timeline.t;
  flood : Flood.t;
}

let create ?(event_capacity = 200_000) engine =
  let audit = Audit.create engine in
  let metrics = Metrics.create engine in
  (* Every audit event also feeds the windowed metrics: once under the
     emitter's node and, when someone stands accused, once under the
     subject's.  Metrics themselves gate on their enabled switch. *)
  Audit.on_emit audit (fun e ->
      let label = Audit.kind_label e.Audit.kind in
      Metrics.record metrics ~node:e.Audit.node ("audit." ^ label);
      match e.Audit.subject_node with
      | Some s -> Metrics.record metrics ~node:s ("accused." ^ label)
      | None -> ());
  {
    engine;
    spans = Itbl.create 256;
    next_id = 1;
    corr = Stbl.create 256;
    capture = false;
    events = Queue.create ();
    event_capacity;
    events_dropped = 0;
    audit;
    metrics;
    perf = Perf.create ();
    timeline = Timeline.create engine;
    flood = Flood.create engine;
  }

let audit t = t.audit
let metrics t = t.metrics
let perf t = t.perf
let timeline t = t.timeline
let flood t = t.flood


(* --- spans -------------------------------------------------------------- *)

let start t ?parent ~kind ~node ?(detail = "") () =
  let id = t.next_id in
  t.next_id <- id + 1;
  let span =
    {
      id;
      parent;
      kind;
      node;
      detail;
      start_time = Engine.now t.engine;
      end_time = None;
      outcome = None;
      notes = [];
    }
  in
  Itbl.replace t.spans id span;
  id


let finish t id outcome =
  match Itbl.find_opt t.spans id with
  | Some span when span.outcome = None ->
      span.end_time <- Some (Engine.now t.engine);
      span.outcome <- Some outcome
  | Some _ | None -> () (* double finish / unknown id: first verdict wins *)

let note t id ~node text =
  match Itbl.find_opt t.spans id with
  | Some span -> span.notes <- (Engine.now t.engine, node, text) :: span.notes
  | None -> ()

let span_count t = t.next_id - 1

let spans t =
  List.filter_map (fun id -> Itbl.find_opt t.spans id)
    (List.init (span_count t) (fun i -> i + 1))

(* --- correlation registry ----------------------------------------------- *)

let correlate t key id = Stbl.replace t.corr key id

let lookup t key = Stbl.find_opt t.corr key

(* --- event sink --------------------------------------------------------- *)

let set_capture t on = t.capture <- on

let wants_events t =
  t.capture || Manet_sim.Trace.is_enabled (Engine.trace t.engine)

let log t ~node ~event ~detail =
  (* The ring-buffer Trace stays one sink (honouring its own enable
     switch); capture adds the JSONL sink on top. *)
  Engine.log t.engine ~node ~event ~detail;
  if t.capture then begin
    if Queue.length t.events >= t.event_capacity then begin
      ignore (Queue.pop t.events);
      t.events_dropped <- t.events_dropped + 1
    end;
    Queue.push
      { time = Engine.now t.engine; node; name = event; detail }
      t.events
  end

let events t = List.of_seq (Queue.to_seq t.events)
let events_dropped t = t.events_dropped

(* --- JSONL export ------------------------------------------------------- *)

let json_of_span s =
  let base =
    [
      ("type", Json.String "span");
      ("id", Json.Int s.id);
      ( "parent",
        match s.parent with Some p -> Json.Int p | None -> Json.Null );
      ("kind", Json.String s.kind);
      ("node", Json.Int s.node);
      ("detail", Json.String s.detail);
      ("start", Json.Float s.start_time);
      ( "end",
        match s.end_time with Some e -> Json.Float e | None -> Json.Null );
      ( "outcome",
        match s.outcome with
        | Some o -> Json.String (outcome_label o)
        | None -> Json.Null );
    ]
  in
  let reason =
    match s.outcome with
    | Some o -> (
        match outcome_reason o with
        | Some r -> [ ("reason", Json.String r) ]
        | None -> [])
    | None -> []
  in
  let notes =
    match s.notes with
    | [] -> []
    | l ->
        [
          ( "notes",
            Json.List
              (List.rev_map
                 (fun (time, node, text) ->
                   Json.Obj
                     [
                       ("t", Json.Float time);
                       ("node", Json.Int node);
                       ("text", Json.String text);
                     ])
                 l) );
        ]
  in
  Json.Obj (base @ reason @ notes)

let json_of_event (e : event) =
  Json.Obj
    [
      ("type", Json.String "event");
      ("t", Json.Float e.time);
      ("node", Json.Int e.node);
      ("name", Json.String e.name);
      ("detail", Json.String e.detail);
    ]

(* Typical bytes per JSONL line: event lines carry a rendered message
   detail (~180 bytes), span lines run a little longer.  Sizing the
   buffer up front spares a large export its doubling copies. *)
let jsonl_line_bytes = 192

let to_jsonl ?(meta = []) t =
  let lines = span_count t + Queue.length t.events in
  let buf = Buffer.create (256 + (jsonl_line_bytes * lines)) in
  let line v =
    Json.to_buffer buf v;
    Buffer.add_char buf '\n'
  in
  line
    (Json.Obj
       ([
          ("schema", Json.String schema);
          ("version", Json.Int schema_version);
          ("spans", Json.Int (span_count t));
          ("events", Json.Int (Queue.length t.events));
          ("events_dropped", Json.Int t.events_dropped);
        ]
       @ meta));
  List.iter (fun s -> line (json_of_span s)) (spans t);
  Queue.iter (fun e -> line (json_of_event e)) t.events;
  Buffer.contents buf
