module Prng = Manet_crypto.Prng

type channel =
  | Uniform of { loss : float }
  | Gilbert_elliott of {
      p_good_to_bad : float;
      p_bad_to_good : float;
      loss_good : float;
      loss_bad : float;
    }

type config = {
  range : float;
  loss : float;
  bit_rate : float;
  prop_delay : float;
  jitter : float;
  mac_retries : int;
  promiscuous : bool;
}

let default_config =
  {
    range = 250.0;
    loss = 0.0;
    bit_rate = 2_000_000.0;
    prop_delay = 5e-6;
    jitter = 1e-4;
    mac_retries = 3;
    promiscuous = false;
  }

(* A link is keyed by the packed pair (min lsl 20) lor max — node
   indices are bounded far below 2^20 — so looking one up neither
   allocates a tuple nor hashes through the polymorphic primitives. *)
module Link = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x9E3779B1) land max_int
end)

let link_key a b = if a <= b then (a lsl 20) lor b else (b lsl 20) lor a

type 'msg t = {
  engine : Engine.t;
  topo : Topology.t;
  cfg : config;
  rng : Prng.t;
  handlers : (src:int -> 'msg -> unit) array;
  down : bool array;
  (* Fault state (see lib/faults): administratively severed links, an
     optional partition cut, and the pluggable channel model. *)
  blocked : unit Link.t;
  mutable partition : bool array option; (* node -> side of the cut *)
  mutable channel : channel;
  ge_bad : bool Link.t; (* per-link Gilbert-Elliott state: true = bad *)
  mutable bytes_sent : int;
  mutable transmissions : int;
  mutable deliveries : int;
  mutable unicast_failures : int;
  (* Deterministic cost accounting for the perf registry: the index
     block size behind each neighbour lookup (the nodes of the 3x3
     cells around the sender, so it follows node degree), how
     many deliveries each broadcast fanned out to, and how many
     MAC-level retries unicast needed. *)
  scan_hist : Hist.t;
  fanout_hist : Hist.t;
  mutable retries : int;
  (* The frame being drawn: its first [rx_len] receivers and their
     delays, in draw order, handed to the engine as one frame. *)
  rx : int array;
  rx_delay : float array;
  mutable rx_len : int;
  scan : int array; (* candidate buffer of one fill, [size] entries *)
  (* Neighbour cache, one slot per node, filled at the node's first
     lookup after a move: the first [nbr_len.(i)] entries of [nbrs.(i)]
     are the nodes within range of [i], ascending, as of topology move
     epoch [nbr_epoch.(i)] (-1: never filled), and [nbr_scan.(i)] is
     the size of the 3x3 index block that fill examined. *)
  nbrs : int array array;
  nbr_len : int array;
  nbr_scan : int array;
  nbr_epoch : int array;
}

let create ?(config = default_config) engine topo =
  let n = Topology.size topo in
  {
    engine;
    topo;
    cfg = config;
    rng = Prng.split (Engine.rng engine);
    handlers = Array.make n (fun ~src:_ _ -> ());
    down = Array.make n false;
    blocked = Link.create 16;
    partition = None;
    channel = Uniform { loss = config.loss };
    ge_bad = Link.create 64;
    bytes_sent = 0;
    transmissions = 0;
    deliveries = 0;
    unicast_failures = 0;
    scan_hist = Hist.create ();
    fanout_hist = Hist.create ();
    retries = 0;
    rx = Array.make n 0;
    rx_delay = Array.make n 0.0;
    rx_len = 0;
    scan = Array.make n 0;
    nbrs = Array.make n [||];
    nbr_len = Array.make n 0;
    nbr_scan = Array.make n 0;
    nbr_epoch = Array.make n (-1);
  }

let topology t = t.topo
let engine t = t.engine
let size t = Array.length t.handlers
let set_handler t i f = t.handlers.(i) <- f
let set_down t i b = t.down.(i) <- b

(* --- fault state -------------------------------------------------------- *)

let set_link t a b ~up =
  if a = b then invalid_arg "Net.set_link: a = b";
  if up then Link.remove t.blocked (link_key a b)
  else Link.replace t.blocked (link_key a b) ()

let set_partition t group =
  let side = Array.make (size t) false in
  List.iter
    (fun i ->
      if i < 0 || i >= size t then invalid_arg "Net.set_partition: node index";
      side.(i) <- true)
    group;
  t.partition <- Some side

let clear_partition t = t.partition <- None

(* Most runs sever no link, so the table probe is skipped while it is
   empty. *)
let link_up t a b =
  (Link.length t.blocked = 0 || not (Link.mem t.blocked (link_key a b)))
  && match t.partition with None -> true | Some side -> side.(a) = side.(b)

let set_channel t c = t.channel <- c

(* One loss draw for a frame crossing link (a, b).  The uniform model is
   memoryless; Gilbert-Elliott keeps a per-link two-state Markov chain
   whose state advances once per frame on that link. *)
let channel_pass t a b =
  match t.channel with
  | Uniform { loss } -> Prng.float t.rng 1.0 >= loss
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
      let k = link_key a b in
      let was_bad =
        match Link.find t.ge_bad k with
        | b -> b
        | exception Not_found -> false
      in
      let flip = Prng.float t.rng 1.0 in
      let bad =
        if was_bad then flip >= p_bad_to_good else flip < p_good_to_bad
      in
      Link.replace t.ge_bad k bad;
      let loss = if bad then loss_bad else loss_good in
      Prng.float t.rng 1.0 >= loss

(* --- transmission ------------------------------------------------------- *)

let tx_time t size = float_of_int (size * 8) /. t.cfg.bit_rate

let[@inline] add_receiver t dst delay =
  t.rx.(t.rx_len) <- dst;
  t.rx_delay.(t.rx_len) <- delay;
  t.rx_len <- t.rx_len + 1

(* One delivery: a receiver that went down while the frame was in the
   air hears nothing. *)
let hear t ~src msg dst =
  if not t.down.(dst) then begin
    t.deliveries <- t.deliveries + 1;
    t.handlers.(dst) ~src msg
  end

(* Every delivery is scheduled here, the receivers in draw order.  Two
   or more become one engine frame with one closure; a lone receiver
   is one ordinary event, because a one-receiver frame cost the
   unicast data plane about 7% of its event rate against a closure
   that captures the receiver.  Both take the same sequence numbers,
   so the order of events is the same either way. *)
let send_frame t ~src msg =
  if t.rx_len = 1 then begin
    let dst = t.rx.(0) in
    (* manetcheck: allow hot-alloc — the delivery event of a lone
       receiver is its closure, as one frame's closure is for many. *)
    Engine.schedule t.engine ~label:"net" ~delay:t.rx_delay.(0) (fun () ->
        hear t ~src msg dst)
  end
  else if t.rx_len > 1 then
    (* manetcheck: allow hot-alloc — one delivery closure per frame,
       shared by all its receivers; the engine drops it after the
       last one. *)
    Engine.schedule_frame t.engine ~label:"net" t.rx_len t.rx t.rx_delay (fun dst ->
        hear t ~src msg dst)

(* Compact the in-range candidates among [t.scan.(k)] ..
   [t.scan.(m - 1)] to the front of [t.scan] from [d] on, keeping their
   ascending order; return how many there are. *)
let rec keep_in_range t src m k d =
  if k = m then d
  else
    let j = t.scan.(k) in
    if Topology.in_range t.topo ~range:t.cfg.range src j then begin
      t.scan.(d) <- j;
      keep_in_range t src m (k + 1) (d + 1)
    end
    else keep_in_range t src m (k + 1) d

(* Refill [src]'s slot from the index at move epoch [epoch]. *)
let fill t src epoch =
  let m = Topology.candidates t.topo ~range:t.cfg.range src t.scan in
  let d = keep_in_range t src m 0 0 in
  if Array.length t.nbrs.(src) < d then
    (* manetcheck: cold — a node's buffer only grows, doubling, so it is
       reallocated a handful of times per run, not per frame. *)
    t.nbrs.(src) <- Array.make (max d (2 * Array.length t.nbrs.(src))) 0;
  Array.blit t.scan 0 t.nbrs.(src) 0 d;
  t.nbr_len.(src) <- d;
  t.nbr_scan.(src) <- m;
  t.nbr_epoch.(src) <- epoch

(* One neighbour lookup: returns [d] such that the first [d] entries
   of [t.nbrs.(src)] are the nodes within range of [src], in ascending
   id order.  The callers test them in that order, so each loss and
   jitter draw lands on the same frame as in a scan over all N ids.
   The set is recomputed from the index only after a move; the scan
   histogram records the block size of that fill at every lookup. *)
let neighbours t src =
  let epoch = Topology.epoch t.topo in
  if t.nbr_epoch.(src) <> epoch then fill t src epoch;
  Hist.add t.scan_hist t.nbr_scan.(src);
  t.nbr_len.(src)

let broadcast t ~src ~size msg =
  if not t.down.(src) then begin
    t.bytes_sent <- t.bytes_sent + size;
    t.transmissions <- t.transmissions + 1;
    let base = tx_time t size +. t.cfg.prop_delay in
    t.rx_len <- 0;
    let d = neighbours t src in
    let nbrs = t.nbrs.(src) in
    for k = 0 to d - 1 do
      let dst = nbrs.(k) in
      if
        (not t.down.(dst))
        && link_up t src dst
        && channel_pass t src dst
      then add_receiver t dst (base +. Prng.float t.rng t.cfg.jitter)
    done;
    Hist.add t.fanout_hist t.rx_len;
    send_frame t ~src msg
  end

let no_fail () = ()

let unicast t ~src ~dst ~size ?(on_fail = no_fail) msg =
  let attempts = 1 + t.cfg.mac_retries in
  (* Both times are invariant across retries (frame size and
     propagation delay do not change mid-exchange), so they are
     computed once here rather than once per attempt.  No link-layer
     ack: after a failed attempt the sender waits one transmission +
     ack-timeout's worth of time, then retries or gives up. *)
  let tx = tx_time t size in
  let ack_wait = tx +. (2.0 *. t.cfg.prop_delay) in
  (* Each attempt inspects the world at its own transmission time, so a
     node crash or link fault landing mid-retry is honoured and the
     counters account exactly the frames that actually went on the air.
     A sender that goes down mid-retry falls silent: no further
     transmissions, and no [on_fail] either -- its MAC state died with
     it. *)
  (* manetcheck: allow hot-alloc — the retry state machine is one closure
     per unicast transmission, not per event; flattening it would mean
     threading every capture through each scheduled retry. *)
  let rec attempt k =
    if not t.down.(src) then begin
      t.bytes_sent <- t.bytes_sent + size;
      t.transmissions <- t.transmissions + 1;
      let reachable =
        (not t.down.(dst))
        && link_up t src dst
        && Topology.in_range t.topo ~range:t.cfg.range src dst
      in
      if reachable && channel_pass t src dst then begin
        let delay = tx +. t.cfg.prop_delay +. Prng.float t.rng t.cfg.jitter in
        t.rx_len <- 0;
        add_receiver t dst delay;
        (* Promiscuous radios overhear unicast frames addressed to
           others (each overhearing subject to its own channel draw). *)
        if t.cfg.promiscuous then begin
          let d = neighbours t src in
          let nbrs = t.nbrs.(src) in
          for c = 0 to d - 1 do
            let other = nbrs.(c) in
            if
              other <> dst
              && (not t.down.(other))
              && link_up t src other
              && channel_pass t src other
            then add_receiver t other (delay +. Prng.float t.rng t.cfg.jitter)
          done
        end;
        send_frame t ~src msg
      end
      else if k + 1 < attempts then begin
        t.retries <- t.retries + 1;
        (* manetcheck: allow hot-alloc — the scheduled closure carries the
           retry continuation; one per failed attempt by design. *)
        Engine.schedule t.engine ~label:"net" ~delay:ack_wait (fun () ->
            attempt (k + 1))
      end
      else begin
        t.unicast_failures <- t.unicast_failures + 1;
        Engine.schedule t.engine ~label:"net"
          ~delay:(ack_wait +. Prng.float t.rng t.cfg.jitter)
          on_fail
      end
    end
  in
  attempt 0

let bytes_sent t = t.bytes_sent
let transmissions t = t.transmissions
let deliveries t = t.deliveries
let unicast_failures t = t.unicast_failures
let scan_hist t = t.scan_hist
let fanout_hist t = t.fanout_hist
let retries t = t.retries

