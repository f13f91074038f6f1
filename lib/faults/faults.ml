open Manet_sim
module Prng = Manet_crypto.Prng

type event =
  | Crash of int
  | Restart of int
  | Link_down of int * int
  | Link_up of int * int
  | Partition of int list
  | Heal
  | Channel of Net.channel

type step = { at : float; event : event }
type plan = step list

(* --- builders ----------------------------------------------------------- *)

let crash ~at node = [ { at; event = Crash node } ]
let restart ~at node = [ { at; event = Restart node } ]
let link_down ~at a b = [ { at; event = Link_down (a, b) } ]
let link_up ~at a b = [ { at; event = Link_up (a, b) } ]

let outage ~from ~until node =
  if until <= from then invalid_arg "Faults.outage: until <= from";
  [ { at = from; event = Crash node }; { at = until; event = Restart node } ]

let flap ~from ~until ~period a b =
  if period <= 0.0 then invalid_arg "Faults.flap: period <= 0";
  if until <= from then invalid_arg "Faults.flap: until <= from";
  let rec go t down acc =
    if t >= until then
      (* Always leave the link up at the end of the window. *)
      List.rev
        (if down then { at = until; event = Link_up (a, b) } :: acc else acc)
    else
      let event = if down then Link_up (a, b) else Link_down (a, b) in
      go (t +. period) (not down) ({ at = t; event } :: acc)
  in
  go from false []

let partition ~from ~until group =
  if until <= from then invalid_arg "Faults.partition: until <= from";
  [ { at = from; event = Partition group }; { at = until; event = Heal } ]

let gilbert_elliott ?(loss_good = 0.01) ?(loss_bad = 0.8) ~p_good_to_bad
    ~p_bad_to_good () =
  Net.Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad }

let degrade ~from ~until ~channel ~baseline =
  if until <= from then invalid_arg "Faults.degrade: until <= from";
  [ { at = from; event = Channel channel }; { at = until; event = Channel baseline } ]

(* Seeded churn: each node alternates exponentially-distributed up and
   down periods over [0, horizon).  Nodes are processed in index order
   and each gets its own split stream, so the plan depends only on
   (seed, arguments) — not on evaluation order. *)
let churn ~seed ~nodes ~horizon ~mean_up ~mean_down =
  if horizon <= 0.0 then invalid_arg "Faults.churn: horizon <= 0";
  if mean_up <= 0.0 || mean_down <= 0.0 then
    invalid_arg "Faults.churn: means must be positive";
  let root = Prng.create ~seed in
  let steps = ref [] in
  List.iter
    (fun node ->
      let rng = Prng.split root in
      let rec go t =
        let up = Prng.exponential rng ~mean:mean_up in
        let down_at = t +. up in
        if down_at < horizon then begin
          steps := { at = down_at; event = Crash node } :: !steps;
          let down = Prng.exponential rng ~mean:mean_down in
          let up_at = down_at +. down in
          if up_at < horizon then begin
            steps := { at = up_at; event = Restart node } :: !steps;
            go up_at
          end
          else
            (* Bring the node back at the horizon so churn plans leave
               the network whole for post-fault measurement. *)
            steps := { at = horizon; event = Restart node } :: !steps
        end
      in
      go 0.0)
    (List.sort_uniq Int.compare nodes);
  List.rev !steps

let seq plans = List.concat plans

(* --- validation --------------------------------------------------------- *)

let check_node ~n i what =
  if i < 0 || i >= n then
    invalid_arg (Printf.sprintf "Faults.validate: %s node %d outside [0,%d)" what i n)

let validate ~n plan =
  List.iter
    (fun { at; event } ->
      if at < 0.0 then invalid_arg "Faults.validate: negative time";
      match event with
      | Crash i -> check_node ~n i "crash"
      | Restart i -> check_node ~n i "restart"
      | Link_down (a, b) | Link_up (a, b) ->
          check_node ~n a "link";
          check_node ~n b "link";
          if a = b then invalid_arg "Faults.validate: self-link"
      | Partition group ->
          List.iter (fun i -> check_node ~n i "partition") group
      | Heal | Channel _ -> ())
    plan

(* --- rendering ---------------------------------------------------------- *)

let event_name = function
  | Crash _ -> "fault.crash"
  | Restart _ -> "fault.restart"
  | Link_down _ -> "fault.link_down"
  | Link_up _ -> "fault.link_up"
  | Partition _ -> "fault.partition"
  | Heal -> "fault.heal"
  | Channel _ -> "fault.channel"

(* [event_name]'s counter keys, bound once (see [Stats.key]). *)
module Key = struct
  let crash = Stats.key "fault.crash"
  let restart = Stats.key "fault.restart"
  let link_down = Stats.key "fault.link_down"
  let link_up = Stats.key "fault.link_up"
  let partition = Stats.key "fault.partition"
  let heal = Stats.key "fault.heal"
  let channel = Stats.key "fault.channel"
end

let event_key = function
  | Crash _ -> Key.crash
  | Restart _ -> Key.restart
  | Link_down _ -> Key.link_down
  | Link_up _ -> Key.link_up
  | Partition _ -> Key.partition
  | Heal -> Key.heal
  | Channel _ -> Key.channel

let event_node = function
  | Crash i | Restart i -> i
  | Link_down _ | Link_up _ | Partition _ | Heal | Channel _ -> -1

let channel_detail = function
  | Net.Uniform { loss } -> Printf.sprintf "uniform loss=%.3f" loss
  | Net.Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad }
    ->
      Printf.sprintf "gilbert-elliott g2b=%.3f b2g=%.3f lg=%.3f lb=%.3f"
        p_good_to_bad p_bad_to_good loss_good loss_bad

let event_detail = function
  | Crash i -> Printf.sprintf "node %d down" i
  | Restart i -> Printf.sprintf "node %d up" i
  | Link_down (a, b) -> Printf.sprintf "link %d-%d severed" a b
  | Link_up (a, b) -> Printf.sprintf "link %d-%d restored" a b
  | Partition group ->
      Printf.sprintf "cut {%s}"
        (String.concat "," (List.map string_of_int group))
  | Heal -> "partition healed"
  | Channel c -> channel_detail c

(* --- scheduling --------------------------------------------------------- *)

type hooks = {
  crash : int -> unit;
  restart : int -> unit;
  set_link : int -> int -> up:bool -> unit;
  partition : int list -> unit;
  heal : unit -> unit;
  set_channel : Net.channel -> unit;
}

let net_hooks net =
  {
    crash = (fun i -> Net.set_down net i true);
    restart = (fun i -> Net.set_down net i false);
    set_link = (fun a b ~up -> Net.set_link net a b ~up);
    partition = (fun group -> Net.set_partition net group);
    heal = (fun () -> Net.clear_partition net);
    set_channel = (fun c -> Net.set_channel net c);
  }

let apply hooks = function
  | Crash i -> hooks.crash i
  | Restart i -> hooks.restart i
  | Link_down (a, b) -> hooks.set_link a b ~up:false
  | Link_up (a, b) -> hooks.set_link a b ~up:true
  | Partition group -> hooks.partition group
  | Heal -> hooks.heal ()
  | Channel c -> hooks.set_channel c

module Obs = Manet_obs.Obs
module Audit = Manet_obs.Audit

let outage_key i = "outage:" ^ string_of_int i
let partition_key = "partition"

(* Span bookkeeping for the fault domain: a Crash..Restart pair becomes
   one [fault.outage] span (correlated under [outage_key], so a restart
   hook can parent the node's re-DAD to it) and a Partition..Heal pair
   one [fault.partition] span. *)
let record_span o = function
  | Crash i ->
      let sid =
        Obs.start o ~kind:"fault.outage" ~node:i
          ~detail:(Printf.sprintf "node %d" i)
          ()
      in
      Obs.correlate o (outage_key i) sid
  | Restart i -> (
      match Obs.lookup o (outage_key i) with
      | Some sid -> Obs.finish o sid Obs.Ok
      | None -> ())
  | Partition group ->
      let sid =
        Obs.start o ~kind:"fault.partition" ~node:(-1)
          ~detail:
            (String.concat "," (List.map string_of_int group))
          ()
      in
      Obs.correlate o partition_key sid
  | Heal -> (
      match Obs.lookup o partition_key with
      | Some sid -> Obs.finish o sid Obs.Ok
      | None -> ())
  | Link_down _ | Link_up _ | Channel _ -> ()

let schedule ?obs engine hooks plan =
  let stats = Engine.stats engine in
  (* Stable sort: steps sharing a timestamp fire in plan order. *)
  let sorted = List.stable_sort (fun a b -> Float.compare a.at b.at) plan in
  List.iter
    (fun { at; event } ->
      Engine.schedule_at engine ~label:"fault" ~time:at (fun () ->
          Stats.incr stats (event_key event);
          (* The ring drops the detail while it is off: build it only
             when it is kept. *)
          if Trace.is_enabled (Engine.trace engine) then
            Engine.log engine ~node:(event_node event) ~event:(event_name event)
              ~detail:(event_detail event);
          (match obs with Some o -> record_span o event | None -> ());
          (* Injected outages land in the audit stream too: the detector
             must not mistake a crashed relay's silence for hostility,
             and the ground truth for that distinction lives here. *)
          (match (obs, event) with
          | Some o, Crash i ->
              Audit.emit (Obs.audit o) ~kind:Audit.Fault_crash ~node:i
                ~cause:"injected crash" ()
          | Some o, Restart i ->
              Audit.emit (Obs.audit o) ~kind:Audit.Fault_restart ~node:i
                ~cause:"injected restart" ()
          | _ -> ());
          apply hooks event))
    sorted
