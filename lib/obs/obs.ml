module Address = Manet_ipv6.Address
module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Trace = Manet_sim.Trace

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

(* Bound on the address-text memo; reset when full, so addresses an
   adversary makes up cannot grow it without limit.  A scenario's own
   addresses (one or a few per node) fit many times over. *)
let max_address_texts = 4096

(* The metric keys every audit kind counts under: ["audit.<kind>"] for
   the emitter and ["accused.<kind>"] for the subject. *)
let audit_keys =
  List.map
    (fun k ->
      let label = Audit.kind_label k in
      (k, Stats.key ("audit." ^ label), Stats.key ("accused." ^ label)))
    Audit.all_kinds

let rec audit_keys_of kind = function
  | [] -> invalid_arg "Obs: audit kind missing from Audit.all_kinds"
  | ((k, _, _) as keys) :: rest ->
      if k == kind then keys else audit_keys_of kind rest

type t = {
  engine : Engine.t;
  spans : span Itbl.t;
  mutable next_id : int;
  corr : int Stbl.t;
  trace : Trace.t; (* the engine's; its capture view is the event sink *)
  audit : Audit.t;
  metrics : Metrics.t;
  perf : Perf.t;
  timeline : Timeline.t;
  flood : Flood.t;
  detail : Buffer.t;
  address_texts : string Address.Tbl.t;
  add_address : Buffer.t -> Address.t -> unit;
}

(* [Address.to_string], memoised.  The text is a pure function of the
   address, so an entry never goes stale; the memo is only ever emptied
   to bound it. *)
let memo_text texts a =
  match Address.Tbl.find texts a with
  | s -> s
  | exception Not_found ->
      (* manetcheck: cold — an address's first rendering since the memo
         was last emptied. *)
      if Address.Tbl.length texts >= max_address_texts then
        Address.Tbl.reset texts;
      let s = Address.to_string a in
      Address.Tbl.add texts a s;
      s

let create ?event_capacity engine =
  let trace = Engine.trace engine in
  Option.iter (Trace.set_capture_capacity trace) event_capacity;
  let audit = Audit.create engine in
  let metrics = Metrics.create engine in
  (* Every audit event also feeds the windowed metrics: once under the
     emitter's node and, when someone stands accused, once under the
     subject's.  Metrics themselves gate on their enabled switch. *)
  Audit.on_emit audit (fun e ->
      let _, emitted, accused = audit_keys_of e.Audit.kind audit_keys in
      Metrics.record metrics ~node:e.Audit.node ~by:1 emitted;
      match e.Audit.subject_node with
      | Some s -> Metrics.record metrics ~node:s ~by:1 accused
      | None -> ());
  let address_texts = Address.Tbl.create 64 in
  {
    engine;
    spans = Itbl.create 256;
    next_id = 1;
    corr = Stbl.create 256;
    trace;
    audit;
    metrics;
    perf = Perf.create ();
    timeline = Timeline.create engine;
    flood = Flood.create engine;
    detail = Buffer.create 160;
    address_texts;
    add_address = (fun buf a -> Buffer.add_string buf (memo_text address_texts a));
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

(* manetcheck: allow hot-string-key — correlation keys are built per
   flood or discovery from message content (an address, a challenge, a
   signature), not fixed names, so there is no key to bind once. *)
let correlate t key id = Stbl.replace t.corr key id

(* manetcheck: allow hot-string-key — the same registry, read once per
   first copy of a reply or flood. *)
let lookup t key = Stbl.find_opt t.corr key

(* --- event sink --------------------------------------------------------- *)

let set_capture t on = Trace.set_capture t.trace on
let wants_events t = Trace.is_enabled t.trace || Trace.is_capturing t.trace

let log t ~node ~event ~detail =
  Trace.log_shared t.trace ~time:(Engine.now t.engine) ~node ~event ~detail

let detail_buffer t =
  Buffer.clear t.detail;
  t.detail

let address_text t a = memo_text t.address_texts a
let address_writer t = t.add_address

let events t =
  List.rev
    (Trace.fold_captured t.trace ~init:[] ~f:(fun acc (e : Trace.entry) ->
         { time = e.time; node = e.node; name = e.event; detail = e.detail } :: acc))

let events_dropped t = Trace.captured_dropped t.trace

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

let add_event_line buf (e : Trace.entry) =
  Buffer.add_string buf {|{"type":"event","t":|};
  Json.add_float buf e.time;
  Buffer.add_string buf {|,"node":|};
  Json.add_int buf e.node;
  Buffer.add_string buf {|,"name":|};
  Json.escape_to buf e.event;
  Buffer.add_string buf {|,"detail":|};
  Json.escape_to buf e.detail;
  Buffer.add_string buf "}\n"

(* The byte count of each line above, computed without rendering it:
   literal runs by their length, ints, floats and strings by the
   {!Json} length helpers. *)

let note_length (time, node, text) =
  String.length {|{"t":|} + Json.float_length time
  + String.length {|,"node":|} + Json.int_length node
  + String.length {|,"text":|} + Json.escaped_length text + 1

let rec notes_length = function
  | [] -> 0
  | [ n ] -> note_length n
  | n :: older -> note_length n + 1 + notes_length older

let null_length = String.length "null"

let span_line_length s =
  String.length {|{"type":"span","id":|} + Json.int_length s.id
  + String.length {|,"parent":|}
  + (match s.parent with Some p -> Json.int_length p | None -> null_length)
  + String.length {|,"kind":|} + Json.escaped_length s.kind
  + String.length {|,"node":|} + Json.int_length s.node
  + String.length {|,"detail":|} + Json.escaped_length s.detail
  + String.length {|,"start":|} + Json.float_length s.start_time
  + String.length {|,"end":|}
  + (match s.end_time with Some e -> Json.float_length e | None -> null_length)
  + String.length {|,"outcome":|}
  + (match s.outcome with
    | None -> null_length
    | Some o -> (
        Json.escaped_length (outcome_label o)
        +
        match outcome_reason o with
        | Some r -> String.length {|,"reason":|} + Json.escaped_length r
        | None -> 0))
  + (match s.notes with
    | [] -> 0
    | notes -> String.length {|,"notes":[|} + notes_length notes + 1)
  + String.length "}\n"

let event_line_length (e : Trace.entry) =
  String.length {|{"type":"event","t":|} + Json.float_length e.time
  + String.length {|,"node":|} + Json.int_length e.node
  + String.length {|,"name":|} + Json.escaped_length e.event
  + String.length {|,"detail":|} + Json.escaped_length e.detail
  + String.length "}\n"

(* Two passes: the length pass sizes the output exactly, then each line
   is rendered into one scratch buffer and copied into place, so the
   export allocates its result and nothing else of its size.  Raises
   [Invalid_argument] if the lines do not fill the result exactly. *)
let to_jsonl ?(meta = []) t =
  let header =
    Json.to_string
      (Json.Obj
         ([
            ("schema", Json.String schema);
            ("version", Json.Int schema_version);
            ("spans", Json.Int (span_count t));
            ("events", Json.Int (Trace.captured_length t.trace));
            ("events_dropped", Json.Int (events_dropped t));
          ]
         @ meta))
  in
  let scratch = Buffer.create 512 in
  let total = ref (String.length header + 1) in
  for id = 1 to span_count t do
    match Itbl.find_opt t.spans id with
    | Some s -> total := !total + span_line_length s
    | None -> ()
  done;
  Trace.fold_captured t.trace ~init:() ~f:(fun () e ->
      total := !total + event_line_length e);
  let total = !total in
  let out = Bytes.create total in
  let pos = ref 0 in
  let put () =
    let n = Buffer.length scratch in
    if !pos + n > total then
      invalid_arg "Obs.to_jsonl: lines outgrew the length pass";
    Buffer.blit scratch 0 out !pos n;
    pos := !pos + n
  in
  Buffer.clear scratch;
  Buffer.add_string scratch header;
  Buffer.add_char scratch '\n';
  put ();
  for id = 1 to span_count t do
    match Itbl.find_opt t.spans id with
    | Some s ->
        Buffer.clear scratch;
        add_span_line scratch s;
        put ()
    | None -> ()
  done;
  Trace.fold_captured t.trace ~init:() ~f:(fun () e ->
      Buffer.clear scratch;
      add_event_line scratch e;
      put ());
  if !pos <> total then invalid_arg "Obs.to_jsonl: lines fell short of the length pass";
  Bytes.unsafe_to_string out
