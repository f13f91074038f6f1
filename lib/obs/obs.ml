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
  detail : Buffer.t;
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
    detail = Buffer.create 160;
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

let detail_buffer t =
  Buffer.clear t.detail;
  t.detail

let events t = List.of_seq (Queue.to_seq t.events)
let events_dropped t = t.events_dropped

(* --- JSONL export ------------------------------------------------------- *)

(* Span and event lines are written field by field straight into the
   export buffer: the bytes are those [Json.to_buffer] gives the object
   with the same fields in the same order, with no tree built per
   line. *)

let add_note buf (time, node, text) =
  Buffer.add_string buf {|{"t":|};
  Json.add_float buf time;
  Buffer.add_string buf {|,"node":|};
  Json.add_int buf node;
  Buffer.add_string buf {|,"text":|};
  Json.escape_to buf text;
  Buffer.add_char buf '}'

(* [notes] is newest first; the line lists them oldest first. *)
let rec add_notes buf = function
  | [] -> ()
  | [ n ] -> add_note buf n
  | n :: older ->
      add_notes buf older;
      Buffer.add_char buf ',';
      add_note buf n

let add_span_line buf s =
  Buffer.add_string buf {|{"type":"span","id":|};
  Json.add_int buf s.id;
  Buffer.add_string buf {|,"parent":|};
  (match s.parent with
  | Some p -> Json.add_int buf p
  | None -> Buffer.add_string buf "null");
  Buffer.add_string buf {|,"kind":|};
  Json.escape_to buf s.kind;
  Buffer.add_string buf {|,"node":|};
  Json.add_int buf s.node;
  Buffer.add_string buf {|,"detail":|};
  Json.escape_to buf s.detail;
  Buffer.add_string buf {|,"start":|};
  Json.add_float buf s.start_time;
  Buffer.add_string buf {|,"end":|};
  (match s.end_time with
  | Some e -> Json.add_float buf e
  | None -> Buffer.add_string buf "null");
  Buffer.add_string buf {|,"outcome":|};
  (match s.outcome with
  | None -> Buffer.add_string buf "null"
  | Some o -> (
      Json.escape_to buf (outcome_label o);
      match outcome_reason o with
      | Some r ->
          Buffer.add_string buf {|,"reason":|};
          Json.escape_to buf r
      | None -> ()));
  (match s.notes with
  | [] -> ()
  | notes ->
      Buffer.add_string buf {|,"notes":[|};
      add_notes buf notes;
      Buffer.add_char buf ']');
  Buffer.add_string buf "}\n"

let add_event_line buf (e : event) =
  Buffer.add_string buf {|{"type":"event","t":|};
  Json.add_float buf e.time;
  Buffer.add_string buf {|,"node":|};
  Json.add_int buf e.node;
  Buffer.add_string buf {|,"name":|};
  Json.escape_to buf e.name;
  Buffer.add_string buf {|,"detail":|};
  Json.escape_to buf e.detail;
  Buffer.add_string buf "}\n"

(* Typical bytes per JSONL line: event lines carry a rendered message
   detail (~180 bytes), span lines run a little longer.  Sizing the
   buffer up front spares a large export its doubling copies. *)
let jsonl_line_bytes = 192

let to_jsonl ?(meta = []) t =
  let lines = span_count t + Queue.length t.events in
  let buf = Buffer.create (256 + (jsonl_line_bytes * lines)) in
  Json.to_buffer buf
    (Json.Obj
       ([
          ("schema", Json.String schema);
          ("version", Json.Int schema_version);
          ("spans", Json.Int (span_count t));
          ("events", Json.Int (Queue.length t.events));
          ("events_dropped", Json.Int t.events_dropped);
        ]
       @ meta));
  Buffer.add_char buf '\n';
  for id = 1 to span_count t do
    match Itbl.find_opt t.spans id with
    | Some s -> add_span_line buf s
    | None -> ()
  done;
  Queue.iter (add_event_line buf) t.events;
  Buffer.contents buf
