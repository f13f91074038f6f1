type config = {
  window : float;
  ewma_alpha : float;
  ewma_threshold : float;
  evidence_threshold : float;
}

let default_config =
  { window = 5.0; ewma_alpha = 0.3; ewma_threshold = 0.5; evidence_threshold = 1.0 }

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

let weight (e : Audit.event) =
  match e.Audit.subject_node with
  | None -> 0.0
  | Some _ -> (
      match e.Audit.kind with
      | Audit.Blackhole_probe_result -> 1.0
      | Audit.Replay_rejected -> 1.0
      | Audit.Rerr_frequency -> 1.0
      | Audit.Credit_slash ->
          if contains_sub e.Audit.cause "predecessor" then 0.2 else 0.6
      | Audit.Rerr_implausible -> 0.3
      | Audit.Sig_verify_fail | Audit.Cga_mismatch | Audit.Rerr_rejected
      | Audit.Dns_conflict | Audit.Dad_collision | Audit.Unverified_accept
      | Audit.Fault_crash | Audit.Fault_restart | Audit.Attack_forgery
      | Audit.Attack_replay | Audit.Attack_drop | Audit.Attack_impersonation
      | Audit.Attack_rerr | Audit.Attack_churn ->
          0.0)

type state = {
  mutable s_window : int;  (* index of the window being accumulated *)
  mutable s_in_window : float;
  mutable s_ewma : float;
  mutable s_ewma_peak : float;
  mutable s_evidence : float;
  mutable s_events : int;
  mutable s_flagged_at : float option;
}

type t = { config : config; states : (int, state) Hashtbl.t }

let create ?(config = default_config) () =
  if config.window <= 0.0 then invalid_arg "Detector.create: window";
  if config.ewma_alpha <= 0.0 || config.ewma_alpha > 1.0 then
    invalid_arg "Detector.create: ewma_alpha";
  { config; states = Hashtbl.create 16 }

let state_of t node =
  match Hashtbl.find_opt t.states node with
  | Some s -> s
  | None ->
      let s =
        {
          s_window = 0;
          s_in_window = 0.0;
          s_ewma = 0.0;
          s_ewma_peak = 0.0;
          s_evidence = 0.0;
          s_events = 0;
          s_flagged_at = None;
        }
      in
      Hashtbl.add t.states node s;
      s

(* Lazily advance [s] to window [w]: fold the accumulated window into
   the EWMA, then decay through any empty windows in between. *)
let roll t s w =
  let a = t.config.ewma_alpha in
  while s.s_window < w do
    s.s_ewma <- (a *. s.s_in_window) +. ((1.0 -. a) *. s.s_ewma);
    if s.s_ewma > s.s_ewma_peak then s.s_ewma_peak <- s.s_ewma;
    s.s_in_window <- 0.0;
    s.s_window <- s.s_window + 1
  done

let feed t (e : Audit.event) =
  let w = weight e in
  if w > 0.0 then
    match e.Audit.subject_node with
    | None -> ()
    | Some node ->
        let s = state_of t node in
        roll t s (int_of_float (e.Audit.time /. t.config.window));
        s.s_in_window <- s.s_in_window +. w;
        s.s_evidence <- s.s_evidence +. w;
        s.s_events <- s.s_events + 1;
        (* The EWMA the current window would close at, so a burst flags
           online rather than one window late. *)
        let prospective =
          (t.config.ewma_alpha *. s.s_in_window)
          +. ((1.0 -. t.config.ewma_alpha) *. s.s_ewma)
        in
        if prospective > s.s_ewma_peak then s.s_ewma_peak <- prospective;
        if
          s.s_flagged_at = None
          && (s.s_evidence >= t.config.evidence_threshold
             || prospective >= t.config.ewma_threshold)
        then s.s_flagged_at <- Some e.Audit.time

let attach t audit = Audit.on_emit audit (feed t)

(* Every node that ever had evidence, with its state, sorted by node. *)
let states t =
  Hashtbl.fold (fun node s acc -> (node, s) :: acc) t.states []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let suspects t =
  List.filter_map
    (fun (node, s) -> if s.s_flagged_at <> None then Some node else None)
    (states t)

type assessment = {
  tp : int;
  fp : int;
  fn : int;
  precision : float;
  recall : float;
}

let score t ~truth =
  let truth = List.sort_uniq Int.compare truth in
  let flagged = suspects t in
  let tp = List.length (List.filter (fun n -> List.mem n truth) flagged) in
  let fp = List.length flagged - tp in
  let fn = List.length truth - tp in
  let ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den in
  { tp; fp; fn; precision = ratio tp (tp + fp); recall = ratio tp (tp + fn) }

let render_verdicts t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "node   suspect  evidence  events  ewma-peak  flagged-at\n";
  List.iter
    (fun (node, s) ->
      Buffer.add_string buf
        (Printf.sprintf "%-6d %-8s %8.2f  %6d  %9.3f  %s\n" node
           (if s.s_flagged_at <> None then "YES" else "-")
           s.s_evidence s.s_events s.s_ewma_peak
           (match s.s_flagged_at with
           | Some time -> Printf.sprintf "%.3f" time
           | None -> "-")))
    (states t);
  Buffer.contents buf
