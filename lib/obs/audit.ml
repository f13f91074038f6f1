module Engine = Manet_sim.Engine

let schema = "manetsim-audit"
let schema_version = 1

type kind =
  | Sig_verify_fail
  | Cga_mismatch
  | Replay_rejected
  | Credit_slash
  | Rerr_rejected
  | Rerr_implausible
  | Rerr_frequency
  | Blackhole_probe_result
  | Dns_conflict
  | Dad_collision
  | Unverified_accept
  | Fault_crash
  | Fault_restart
  | Attack_forgery
  | Attack_replay
  | Attack_drop
  | Attack_impersonation
  | Attack_rerr
  | Attack_churn

let all_kinds =
  [
    Sig_verify_fail; Cga_mismatch; Replay_rejected; Credit_slash;
    Rerr_rejected; Rerr_implausible; Rerr_frequency; Blackhole_probe_result;
    Dns_conflict; Dad_collision; Unverified_accept; Fault_crash;
    Fault_restart; Attack_forgery; Attack_replay; Attack_drop;
    Attack_impersonation; Attack_rerr; Attack_churn;
  ]

let kind_label = function
  | Sig_verify_fail -> "sig_verify_fail"
  | Cga_mismatch -> "cga_mismatch"
  | Replay_rejected -> "replay_rejected"
  | Credit_slash -> "credit_slash"
  | Rerr_rejected -> "rerr_rejected"
  | Rerr_implausible -> "rerr_implausible"
  | Rerr_frequency -> "rerr_frequency"
  | Blackhole_probe_result -> "blackhole_probe_result"
  | Dns_conflict -> "dns_conflict"
  | Dad_collision -> "dad_collision"
  | Unverified_accept -> "unverified_accept"
  | Fault_crash -> "fault_crash"
  | Fault_restart -> "fault_restart"
  | Attack_forgery -> "attack_forgery"
  | Attack_replay -> "attack_replay"
  | Attack_drop -> "attack_drop"
  | Attack_impersonation -> "attack_impersonation"
  | Attack_rerr -> "attack_rerr"
  | Attack_churn -> "attack_churn"

let kind_of_label l =
  List.find_opt (fun k -> String.equal (kind_label k) l) all_kinds

type event = {
  seq : int;
  time : float;
  kind : kind;
  node : int;
  subject_node : int option;
  subject_addr : string option;
  cause : string;
}

type t = {
  engine : Engine.t;
  events : event Queue.t;
  capacity : int;
  mutable recording : bool;
  mutable next_seq : int;
  mutable dropped : int;
  mutable subscribers : (event -> unit) list; (* reverse subscription order *)
}

let create ?(capacity = 200_000) engine =
  {
    engine;
    events = Queue.create ();
    capacity;
    recording = true;
    next_seq = 1;
    dropped = 0;
    subscribers = [];
  }

let on_emit t f = t.subscribers <- f :: t.subscribers

let set_recording t on = t.recording <- on
let count t = t.next_seq - 1

let emit t ~kind ~node ?subject_node ?subject_addr ~cause () =
  let e =
    {
      seq = t.next_seq;
      time = Engine.now t.engine;
      kind;
      node;
      subject_node;
      subject_addr;
      cause;
    }
  in
  t.next_seq <- t.next_seq + 1;
  if t.recording then begin
    if Queue.length t.events >= t.capacity then begin
      ignore (Queue.pop t.events);
      t.dropped <- t.dropped + 1
    end;
    Queue.push e t.events
  end;
  List.iter (fun f -> f e) (List.rev t.subscribers)


let counts_by_kind evs =
  List.filter_map
    (fun k ->
      match List.length (List.filter (fun e -> e.kind = k) evs) with
      | 0 -> None
      | n -> Some (k, n))
    all_kinds

(* --- export / import ----------------------------------------------------- *)

let json_of_event e =
  let base =
    [
      ("type", Json.String "audit");
      ("seq", Json.Int e.seq);
      ("t", Json.Float e.time);
      ("kind", Json.String (kind_label e.kind));
      ("node", Json.Int e.node);
      ( "subject",
        match e.subject_node with Some n -> Json.Int n | None -> Json.Null );
    ]
  in
  let addr =
    match e.subject_addr with
    | Some a -> [ ("subject_addr", Json.String a) ]
    | None -> []
  in
  Json.Obj (base @ addr @ [ ("cause", Json.String e.cause) ])

let to_jsonl ?(meta = []) t =
  let buf = Buffer.create 4096 in
  let line v =
    Json.to_buffer buf v;
    Buffer.add_char buf '\n'
  in
  line
    (Json.Obj
       ([
          ("schema", Json.String schema);
          ("version", Json.Int schema_version);
          ("events", Json.Int (Queue.length t.events));
          ("dropped", Json.Int t.dropped);
        ]
       @ meta));
  Queue.iter (fun e -> line (json_of_event e)) t.events;
  Buffer.contents buf

type parsed = { header : Json.t; parsed_events : event list }

let parse_jsonl text =
  let bad msg = raise (Json.Parse_error msg) in
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' text)
  in
  match lines with
  | [] -> bad "empty audit stream"
  | header_line :: rest ->
      let header = Json.parse header_line in
      (match Json.member "schema" header with
      | Some (Json.String s) when String.equal s schema -> ()
      | _ -> bad "not a manetsim-audit stream");
      (match Json.member "version" header with
      | Some (Json.Int v) when v = schema_version -> ()
      | _ -> bad "unsupported audit schema version");
      let event_of line =
        let j = Json.parse line in
        let str field =
          match Json.member field j with
          | Some (Json.String s) -> s
          | _ -> bad (Printf.sprintf "audit line missing string %S" field)
        in
        let int field =
          match Json.member field j with
          | Some (Json.Int i) -> i
          | _ -> bad (Printf.sprintf "audit line missing int %S" field)
        in
        let kind =
          let l = str "kind" in
          match kind_of_label l with
          | Some k -> k
          | None -> bad (Printf.sprintf "unknown audit kind %S" l)
        in
        {
          seq = int "seq";
          time =
            (match Option.bind (Json.member "t" j) Json.to_float_opt with
            | Some x -> x
            | None -> bad "audit line missing time");
          kind;
          node = int "node";
          subject_node =
            (match Json.member "subject" j with
            | Some (Json.Int n) -> Some n
            | _ -> None);
          subject_addr =
            Option.bind (Json.member "subject_addr" j) Json.to_string_opt;
          cause = str "cause";
        }
      in
      { header; parsed_events = List.map event_of rest }

(* --- rendering ----------------------------------------------------------- *)

let render_timeline evs =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%10.3f  node %-3d %-22s%s  %s\n" e.time e.node
           (kind_label e.kind)
           (match (e.subject_node, e.subject_addr) with
           | Some n, _ -> Printf.sprintf "  subject node %d" n
           | None, Some a -> Printf.sprintf "  subject %s" a
           | None, None -> "")
           e.cause))
    evs;
  Buffer.contents buf

let render_scorecards evs =
  let nodes =
    List.sort_uniq Int.compare
      (List.concat_map
         (fun e -> e.node :: Option.to_list e.subject_node)
         evs)
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun n ->
      let emitted = List.filter (fun e -> e.node = n) evs in
      let accused = List.filter (fun e -> e.subject_node = Some n) evs in
      Buffer.add_string buf
        (Printf.sprintf "node %d: %d emitted, %d accusations\n" n
           (List.length emitted) (List.length accused));
      let breakdown label l =
        match counts_by_kind l with
        | [] -> ()
        | counts ->
            Buffer.add_string buf
              (Printf.sprintf "  %-9s %s\n" label
                 (String.concat ", "
                    (List.map
                       (fun (k, c) ->
                         Printf.sprintf "%s=%d" (kind_label k) c)
                       counts)))
      in
      breakdown "emitted" emitted;
      breakdown "accused" accused)
    nodes;
  Buffer.contents buf
