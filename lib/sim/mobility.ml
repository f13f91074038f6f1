module Prng = Manet_crypto.Prng

type model =
  | Static
  | Random_waypoint of { min_speed : float; max_speed : float; pause : float }
  | Random_walk of { speed : float; turn_interval : float }

type waypoint_state = {
  mutable tx : float; (* target *)
  mutable ty : float;
  mutable speed : float;
  mutable pause_until : float;
}

type walk_state = { mutable heading : float; mutable next_turn : float }

type node_state = Wp of waypoint_state | Walk of walk_state | Still

type t = {
  engine : Engine.t;
  topo : Topology.t;
  rng : Prng.t;
  model : model;
  tick : float;
  nodes : node_state array;
  mutable running : bool;
}

let create ?(tick = 0.5) engine topo rng model =
  let n = Topology.size topo in
  let init _ =
    match model with
    | Static -> Still
    | Random_waypoint _ ->
        Wp { tx = 0.0; ty = 0.0; speed = 0.0; pause_until = -1.0 }
    | Random_walk _ -> Walk { heading = 0.0; next_turn = 0.0 }
  in
  { engine; topo; rng; model; tick; nodes = Array.init n init; running = false }

let pick_waypoint t st ~min_speed ~max_speed =
  st.tx <- Prng.float t.rng (Topology.width t.topo);
  st.ty <- Prng.float t.rng (Topology.height t.topo);
  st.speed <- min_speed +. Prng.float t.rng (max_speed -. min_speed)

let step_waypoint t i st ~min_speed ~max_speed ~pause =
  let now = Engine.now t.engine in
  if now < st.pause_until then ()
  else begin
    if st.pause_until < 0.0 then begin
      (* first tick: choose an initial destination *)
      pick_waypoint t st ~min_speed ~max_speed;
      st.pause_until <- 0.0
    end;
    let x, y = Topology.position t.topo i in
    let dx = st.tx -. x and dy = st.ty -. y in
    let dist = sqrt ((dx *. dx) +. (dy *. dy)) in
    let step = st.speed *. t.tick in
    if dist <= step then begin
      Topology.set_position t.topo i (st.tx, st.ty);
      st.pause_until <- now +. pause;
      pick_waypoint t st ~min_speed ~max_speed
    end
    else
      Topology.set_position t.topo i
        (x +. (dx /. dist *. step), y +. (dy /. dist *. step))
  end

let step_walk t i st ~speed ~turn_interval =
  let now = Engine.now t.engine in
  if now >= st.next_turn then begin
    st.heading <- Prng.float t.rng (2.0 *. Float.pi);
    st.next_turn <- now +. turn_interval
  end;
  let x, y = Topology.position t.topo i in
  let step = speed *. t.tick in
  let nx = x +. (cos st.heading *. step) and ny = y +. (sin st.heading *. step) in
  (* Reflect off the field boundary. *)
  let w = Topology.width t.topo and h = Topology.height t.topo in
  let reflect v limit =
    if v < 0.0 then -.v else if v > limit then (2.0 *. limit) -. v else v
  in
  let rx = reflect nx w and ry = reflect ny h in
  if rx <> nx || ry <> ny then st.heading <- st.heading +. Float.pi;
  Topology.set_position t.topo i (rx, ry)

let rec tick t =
  (match t.model with
  | Static -> ()
  | Random_waypoint { min_speed; max_speed; pause } ->
      Array.iteri
        (fun i st ->
          match st with
          | Wp wp -> step_waypoint t i wp ~min_speed ~max_speed ~pause
          | Walk _ | Still -> ())
        t.nodes
  | Random_walk { speed; turn_interval } ->
      Array.iteri
        (fun i st ->
          match st with
          | Walk w -> step_walk t i w ~speed ~turn_interval
          | Wp _ | Still -> ())
        t.nodes);
  Engine.schedule t.engine ~label:"mobility" ~delay:t.tick (fun () -> tick t)

let start t =
  if not t.running then begin
    t.running <- true;
    match t.model with
    | Static -> ()
    | Random_waypoint _ | Random_walk _ ->
        Engine.schedule t.engine ~label:"mobility" ~delay:t.tick (fun () ->
            tick t)
  end

