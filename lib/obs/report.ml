module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats

let report_schema = "manetsim-report"
let report_version = 1

(* --- neutral span representation ---------------------------------------- *)

(* Both live [Obs.span] values and spans re-read from a JSONL file are
   folded into this one shape so the aggregation and rendering code is
   written once. *)
type span_info = {
  i_id : int;
  i_parent : int option;
  i_kind : string;
  i_node : int;
  i_detail : string;
  i_start : float;
  i_end : float option;
  i_outcome : string option;
  i_reason : string option;
  i_notes : (float * int * string) list; (* oldest first *)
}

let info_of_span (s : Obs.span) =
  {
    i_id = s.id;
    i_parent = s.parent;
    i_kind = s.kind;
    i_node = s.node;
    i_detail = s.detail;
    i_start = s.start_time;
    i_end = s.end_time;
    i_outcome = Option.map Obs.outcome_label s.outcome;
    i_reason = Option.join (Option.map Obs.outcome_reason s.outcome);
    i_notes = List.rev s.notes;
  }

let duration s = Option.map (fun e -> e -. s.i_start) s.i_end

(* --- percentiles over duration samples ----------------------------------- *)

(* Exact nearest-rank order statistic; these sample sets are small
   (one entry per span), so no reservoir is needed. *)
let pctl sorted q =
  let n = Array.length sorted in
  if n = 0 then None
  else begin
    let i = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    let i = if i < 0 then 0 else if i > n - 1 then n - 1 else i in
    Some sorted.(i)
  end

let sorted_durations spans pred =
  let d =
    List.filter_map (fun s -> if pred s then duration s else None) spans
  in
  let a = Array.of_list d in
  Array.sort Float.compare a;
  a

(* --- phase extraction ----------------------------------------------------- *)

let phase_durations spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.i_id s) spans;
  let parent_kind s =
    match s.i_parent with
    | None -> None
    | Some p -> Option.map (fun ps -> ps.i_kind) (Hashtbl.find_opt by_id p)
  in
  let ok s = s.i_outcome = Some "ok" in
  let after_outage s = parent_kind s = Some "fault.outage" in
  [
    ( "dad.convergence",
      sorted_durations spans (fun s ->
          String.equal s.i_kind "dad.bootstrap" && ok s && not (after_outage s)) );
    ( "re_dad.convergence",
      sorted_durations spans (fun s ->
          String.equal s.i_kind "dad.bootstrap" && ok s && after_outage s) );
    ( "route.discovery_rtt",
      sorted_durations spans (fun s ->
          String.equal s.i_kind "route.discovery" && ok s) );
  ]

(* --- JSON run report ------------------------------------------------------ *)

let pctl_fields sorted =
  let f q =
    match pctl sorted q with Some x -> Json.Float x | None -> Json.Null
  in
  [ ("p50", f 0.5); ("p90", f 0.9); ("p99", f 0.99) ]

let span_aggregates spans =
  let kinds =
    List.sort_uniq String.compare (List.map (fun s -> s.i_kind) spans)
  in
  List.map
    (fun kind ->
      let of_kind = List.filter (fun s -> String.equal s.i_kind kind) spans in
      let count_outcome o =
        List.length
          (List.filter (fun s -> s.i_outcome = Some o) of_kind)
      in
      let opened =
        List.length (List.filter (fun s -> s.i_outcome = None) of_kind)
      in
      let sorted = sorted_durations of_kind (fun _ -> true) in
      let max_d =
        let n = Array.length sorted in
        if n = 0 then Json.Null else Json.Float sorted.(n - 1)
      in
      ( kind,
        Json.Obj
          ([
             ("count", Json.Int (List.length of_kind));
             ("ok", Json.Int (count_outcome "ok"));
             ("timeout", Json.Int (count_outcome "timeout"));
             ("rejected", Json.Int (count_outcome "rejected"));
             ("failed", Json.Int (count_outcome "failed"));
             ("open", Json.Int opened);
           ]
          @ pctl_fields sorted
          @ [ ("max", max_d) ]) ))
    kinds

let phases_json spans =
  Json.Obj
    (List.map
       (fun (name, sorted) ->
         ( name,
           Json.Obj
             (("count", Json.Int (Array.length sorted)) :: pctl_fields sorted)
         ))
       (phase_durations spans))

let profile_json engine =
  Json.Obj
    [
      ("enabled", Json.Bool (Engine.profiling engine));
      ("wall_s", Json.Float (Engine.wall_in_run engine));
      ("events_per_sec", Json.Float (Engine.events_per_sec engine));
      ( "classes",
        Json.Obj
          (List.map
             (fun (label, (e : Engine.profile_entry)) ->
               ( label,
                 Json.Obj
                   [
                     ("count", Json.Int e.p_count);
                     ("wall_s", Json.Float e.p_wall_s);
                   ] ))
             (Engine.profile engine)) );
    ]

let run_report ~engine ~obs ?(extra = []) () =
  let stats = Engine.stats engine in
  let counters =
    Json.Obj
      (List.map (fun (k, v) -> (k, Json.Int v)) (Stats.counters stats))
  in
  let summaries =
    Json.Obj
      (List.map
         (fun (name, (s : Stats.summary)) ->
           let p q =
             match Stats.percentile stats name q with
             | Some x -> Json.Float x
             | None -> Json.Null
           in
           ( name,
             Json.Obj
               [
                 ("count", Json.Int s.count);
                 ("mean", Json.Float s.mean);
                 ("stddev", Json.Float s.stddev);
                 ("min", Json.Float s.min);
                 ("max", Json.Float s.max);
                 ("p50", p 0.5);
                 ("p90", p 0.9);
                 ("p99", p 0.99);
               ] ))
         (Stats.summaries stats))
  in
  let spans = List.map info_of_span (Obs.spans obs) in
  Json.Obj
    ([
       ("schema", Json.String report_schema);
       ("version", Json.Int report_version);
     ]
    @ extra
    @ [
        ("sim_time", Json.Float (Engine.now engine));
        ("events_processed", Json.Int (Engine.events_processed engine));
        ("span_count", Json.Int (Obs.span_count obs));
        ("counters", counters);
        ("summaries", summaries);
        ("span_aggregates", Json.Obj (span_aggregates spans));
        ("phases", phases_json spans);
        ("profile", profile_json engine);
      ])

(* --- JSONL parsing -------------------------------------------------------- *)

type parsed = {
  header : Json.t;
  spans : span_info list;
  events : Obs.event list;
}

let req what v =
  match v with
  | Some x -> x
  | None -> raise (Json.Parse_error ("missing or ill-typed " ^ what))

let get_int j key = req key (Option.bind (Json.member key j) Json.to_int_opt)

let get_float j key =
  req key (Option.bind (Json.member key j) Json.to_float_opt)

let get_string j key =
  req key (Option.bind (Json.member key j) Json.to_string_opt)

let opt get j key =
  match Json.member key j with
  | None | Some Json.Null -> None
  | Some v -> Some (req key (get v))

let parse_note j =
  (get_float j "t", get_int j "node", get_string j "text")

let parse_span_line j =
  {
    i_id = get_int j "id";
    i_parent = opt Json.to_int_opt j "parent";
    i_kind = get_string j "kind";
    i_node = get_int j "node";
    i_detail = get_string j "detail";
    i_start = get_float j "start";
    i_end = opt Json.to_float_opt j "end";
    i_outcome = opt Json.to_string_opt j "outcome";
    i_reason = opt Json.to_string_opt j "reason";
    i_notes =
      (match Json.member "notes" j with
      | None -> []
      | Some l -> List.map parse_note (req "notes" (Json.to_list_opt l)));
  }

let parse_event_line j : Obs.event =
  {
    time = get_float j "t";
    node = get_int j "node";
    name = get_string j "name";
    detail = get_string j "detail";
  }

let parse_jsonl text =
  let lines =
    List.filter
      (fun l -> String.length (String.trim l) > 0)
      (String.split_on_char '\n' text)
  in
  match lines with
  | [] -> raise (Json.Parse_error "empty trace file")
  | header_line :: rest ->
      let header = Json.parse header_line in
      let schema = get_string header "schema" in
      if not (String.equal schema Obs.schema) then
        raise
          (Json.Parse_error
             (Printf.sprintf "unexpected schema %S (want %S)" schema Obs.schema));
      let version = get_int header "version" in
      if version <> Obs.schema_version then
        raise
          (Json.Parse_error
             (Printf.sprintf "unsupported trace version %d (support %d)"
                version Obs.schema_version));
      let spans = ref [] and events = ref [] in
      List.iter
        (fun line ->
          let j = Json.parse line in
          match get_string j "type" with
          | "span" -> spans := parse_span_line j :: !spans
          | "event" -> events := parse_event_line j :: !events
          | other ->
              raise
                (Json.Parse_error ("unknown trace line type " ^ other)))
        rest;
      { header; spans = List.rev !spans; events = List.rev !events }

(* --- text rendering ------------------------------------------------------- *)

let describe s =
  let dur =
    match duration s with
    | Some d -> Printf.sprintf "%.3fs" d
    | None -> "open"
  in
  let outcome =
    match (s.i_outcome, s.i_reason) with
    | Some o, Some r -> Printf.sprintf "%s (%s)" o r
    | Some o, None -> o
    | None, _ -> "-"
  in
  let detail = if String.equal s.i_detail "" then "" else " " ^ s.i_detail in
  Printf.sprintf "#%d %s [n%d]%s · %s · %s" s.i_id s.i_kind s.i_node detail
    dur outcome

let render_tree parsed =
  let buf = Buffer.create 1024 in
  let ids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ids s.i_id ()) parsed.spans;
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.i_parent with
      | Some p when Hashtbl.mem ids p ->
          let l = Option.value ~default:[] (Hashtbl.find_opt children p) in
          Hashtbl.replace children p (s :: l)
      | Some _ | None -> ())
    parsed.spans;
  let is_root s =
    match s.i_parent with
    | None -> true
    | Some p -> not (Hashtbl.mem ids p)
  in
  let rec emit indent s =
    Buffer.add_string buf indent;
    Buffer.add_string buf (describe s);
    Buffer.add_char buf '\n';
    List.iter
      (fun (t, node, text) ->
        Buffer.add_string buf
          (Printf.sprintf "%s  · t=%.3f n%d %s\n" indent t node text))
      s.i_notes;
    let kids =
      List.sort
        (fun a b -> Int.compare a.i_id b.i_id)
        (Option.value ~default:[] (Hashtbl.find_opt children s.i_id))
    in
    List.iter (emit (indent ^ "  ")) kids
  in
  List.iter (fun s -> if is_root s then emit "" s) parsed.spans;
  Buffer.contents buf

let render_phases parsed =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-24s %6s %9s %9s %9s %9s %9s\n" "phase" "count" "min"
       "p50" "p90" "p99" "max");
  List.iter
    (fun (name, sorted) ->
      let n = Array.length sorted in
      if n = 0 then
        Buffer.add_string buf
          (Printf.sprintf "%-24s %6d %9s %9s %9s %9s %9s\n" name 0 "-" "-" "-"
             "-" "-")
      else begin
        let f q =
          match pctl sorted q with Some x -> x | None -> Float.nan
        in
        Buffer.add_string buf
          (Printf.sprintf "%-24s %6d %9.3f %9.3f %9.3f %9.3f %9.3f\n" name n
             sorted.(0) (f 0.5) (f 0.9) (f 0.99)
             sorted.(n - 1))
      end)
    (phase_durations parsed.spans);
  Buffer.contents buf

let render_top ?(k = 10) parsed =
  let finished =
    List.filter_map
      (fun s -> Option.map (fun d -> (d, s)) (duration s))
      parsed.spans
  in
  let sorted =
    List.sort
      (fun (da, a) (db, b) ->
        match Float.compare db da with
        | 0 -> Int.compare a.i_id b.i_id
        | c -> c)
      finished
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (d, s) ->
      Buffer.add_string buf (Printf.sprintf "%9.3fs  " d);
      Buffer.add_string buf (describe s);
      Buffer.add_char buf '\n')
    (take k sorted);
  Buffer.contents buf
