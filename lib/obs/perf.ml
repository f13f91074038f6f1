module Engine = Manet_sim.Engine
module Net = Manet_sim.Net
module Hist = Manet_sim.Hist
module Suite = Manet_crypto.Suite

(* Name-keyed registries use a monomorphic string hash: the generic
   [Hashtbl] would hash and compare through the polymorphic primitives
   on every recorded op. *)
module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.hash
end)

let schema = "manetsim-perf"
let schema_version = 1

type kind_ops = {
  mutable k_signs : int;
  mutable k_verifies : int;
  mutable k_hash_blocks : int;
}

type gc_phase = {
  mutable ph_events : int;
  mutable ph_minor_words : float;
  mutable ph_major_words : float;
  mutable ph_promoted_words : float;
  mutable ph_minor_collections : int;
  mutable ph_major_collections : int;
}

(* The kind/node a crypto op is attributed to while a message is being
   dispatched.  Outside any dispatch (key generation, originating a new
   message from a timer) ops land under [no_kind] / node -1. *)
let no_kind = "none"

type t = {
  counters : int ref Stbl.t;
  by_kind : kind_ops Stbl.t;
  mutable node_signs : int array;
  mutable node_verifies : int array;
  mutable max_node : int;
  mutable cur_kind : string;
  mutable cur_node : int;
  phases : gc_phase Stbl.t;
}

let create () =
  {
    counters = Stbl.create 16;
    by_kind = Stbl.create 16;
    node_signs = Array.make 16 0;
    node_verifies = Array.make 16 0;
    max_node = -1;
    cur_kind = no_kind;
    cur_node = -1;
    phases = Stbl.create 4;
  }

(* --- generic counters --------------------------------------------------- *)

let incr ?(n = 1) t name =
  match Stbl.find t.counters name with
  | r -> r := !r + n
  | exception Not_found ->
      (* manetcheck: allow hot-alloc — one ref per distinct counter name
         over the whole run, not per recorded op. *)
      Stbl.add t.counters name (ref n)

let counters t =
  Stbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- crypto attribution ------------------------------------------------- *)

let ensure_node t n =
  let len = Array.length t.node_signs in
  if n >= len then begin
    let nlen = if n + 1 > 2 * len then n + 1 else 2 * len in
    (* manetcheck: allow hot-alloc — per-node counter arrays double
       O(log n) times over a run, amortized to nothing per op. *)
    let signs = Array.make nlen 0 and verifies = Array.make nlen 0 in
    Array.blit t.node_signs 0 signs 0 len;
    Array.blit t.node_verifies 0 verifies 0 len;
    t.node_signs <- signs;
    t.node_verifies <- verifies
  end;
  if n > t.max_node then t.max_node <- n

let kind_cell t kind =
  match Stbl.find t.by_kind kind with
  | c -> c
  | exception Not_found ->
      (* manetcheck: allow hot-alloc — one cell per distinct message kind
         over the whole run, not per crypto op. *)
      let c = { k_signs = 0; k_verifies = 0; k_hash_blocks = 0 } in
      Stbl.add t.by_kind kind c;
      c

let crypto_op t ~op ~bytes =
  let c = kind_cell t t.cur_kind in
  c.k_hash_blocks <- c.k_hash_blocks + Manet_crypto.Sha256.blocks_of_len bytes;
  match op with
  | Suite.Sign ->
      c.k_signs <- c.k_signs + 1;
      if t.cur_node >= 0 then begin
        ensure_node t t.cur_node;
        t.node_signs.(t.cur_node) <- t.node_signs.(t.cur_node) + 1
      end
  | Suite.Verify ->
      c.k_verifies <- c.k_verifies + 1;
      if t.cur_node >= 0 then begin
        ensure_node t t.cur_node;
        t.node_verifies.(t.cur_node) <- t.node_verifies.(t.cur_node) + 1
      end
  | Suite.Hash -> ()

(* Runs once per delivery, so the previous attribution is kept in
   locals and restored by a plain match rather than [Fun.protect]: no
   closure is built per call. *)
let dispatch t ~kind ~node handler ~src msg =
  let saved_kind = t.cur_kind and saved_node = t.cur_node in
  t.cur_kind <- kind;
  t.cur_node <- node;
  match handler ~src msg with
  | () ->
      t.cur_kind <- saved_kind;
      t.cur_node <- saved_node
  | exception e ->
      t.cur_kind <- saved_kind;
      t.cur_node <- saved_node;
      raise e

let subscribe t suite =
  Suite.set_on_op suite (Some (fun ~op ~bytes -> crypto_op t ~op ~bytes))

(* --- GC phase accounting ------------------------------------------------ *)

let phase_cell t name =
  match Stbl.find_opt t.phases name with
  | Some p -> p
  | None ->
      let p =
        {
          ph_events = 0;
          ph_minor_words = 0.0;
          ph_major_words = 0.0;
          ph_promoted_words = 0.0;
          ph_minor_collections = 0;
          ph_major_collections = 0;
        }
      in
      Stbl.add t.phases name p;
      p

let phase t ~engine name f =
  let s0 = Gc.quick_stat () in
  let e0 = Engine.events_processed engine in
  Fun.protect
    ~finally:(fun () ->
      let s1 = Gc.quick_stat () in
      let p = phase_cell t name in
      p.ph_events <- p.ph_events + (Engine.events_processed engine - e0);
      p.ph_minor_words <-
        p.ph_minor_words +. (s1.Gc.minor_words -. s0.Gc.minor_words);
      p.ph_major_words <-
        p.ph_major_words +. (s1.Gc.major_words -. s0.Gc.major_words);
      p.ph_promoted_words <-
        p.ph_promoted_words +. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
      p.ph_minor_collections <-
        p.ph_minor_collections + (s1.Gc.minor_collections - s0.Gc.minor_collections);
      p.ph_major_collections <-
        p.ph_major_collections + (s1.Gc.major_collections - s0.Gc.major_collections))
    f

let phases t =
  Stbl.fold (fun name p acc -> (name, p) :: acc) t.phases []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- export ------------------------------------------------------------- *)

let hist_json h =
  Json.Obj
    [
      ("count", Json.Int (Hist.count h));
      ("sum", Json.Int (Hist.sum h));
      ( "min",
        match Hist.min_value h with Some v -> Json.Int v | None -> Json.Null );
      ( "max",
        match Hist.max_value h with Some v -> Json.Int v | None -> Json.Null );
      ( "mean",
        match Hist.mean h with Some m -> Json.Float m | None -> Json.Null );
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, hi, c) ->
               Json.List [ Json.Int lo; Json.Int hi; Json.Int c ])
             (Hist.nonzero_buckets h)) );
    ]

let hist_of_array a n =
  let h = Hist.create () in
  for i = 0 to n - 1 do
    Hist.add h a.(i)
  done;
  h

let kind_totals t =
  Stbl.fold
    (fun kind c acc -> (kind, (c.k_signs, c.k_verifies, c.k_hash_blocks)) :: acc)
    t.by_kind []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let by_kind_json t =
  let kinds =
    Stbl.fold (fun kind c acc -> (kind, c) :: acc) t.by_kind []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Json.Obj
    (List.map
       (fun (kind, c) ->
         ( kind,
           Json.Obj
             [
               ("signs", Json.Int c.k_signs);
               ("verifies", Json.Int c.k_verifies);
               ("hash_blocks", Json.Int c.k_hash_blocks);
             ] ))
       kinds)

(* Every value below is a pure function of the deterministic sim domain
   (event sequence, seeded PRNG) — no wall clock, no GC.  Allocation
   counters looked deterministic on paper (OCaml counts words
   allocated, not collections performed) but empirically drift by a few
   words between same-process replays on the multicore runtime — the
   runtime's own internal allocations leak into [Gc.minor_words] — so
   every [Gc.quick_stat]-derived quantity is quarantined in
   {!wall_json}; only the per-phase *event* counts stay here. *)
(* [extra_det] lets callers append further deterministic members (the
   flood-provenance summary) without coupling this registry to the
   modules that compute them; every appended value must obey the same
   purity contract as the section it joins. *)
let deterministic_json ?(extra_det = []) t ~engine ~net ~suite =
  let n = t.max_node + 1 in
  let ints a k = Json.List (List.init k (fun i -> Json.Int a.(i))) in
  Json.Obj
    ([
      ( "events",
        Json.Obj
          [
            ("total", Json.Int (Engine.events_processed engine));
            ("max_pending", Json.Int (Engine.max_pending engine));
            ( "labels",
              Json.Obj
                (List.map
                   (fun (l, c) -> (l, Json.Int c))
                   (Engine.label_counts engine)) );
          ] );
      ( "occupancy",
        Json.Obj
          [
            ("stride", Json.Int (Engine.occupancy_stride engine));
            ( "samples",
              Json.List
                (List.map
                   (fun (i, p) -> Json.List [ Json.Int i; Json.Int p ])
                   (Engine.occupancy engine)) );
          ] );
      ( "net",
        Json.Obj
          [
            ("neighbour_scan", hist_json (Net.scan_hist net));
            ("fanout", hist_json (Net.fanout_hist net));
            ("retries", Json.Int (Net.retries net));
            ("transmissions", Json.Int (Net.transmissions net));
            ("deliveries", Json.Int (Net.deliveries net));
            ("unicast_failures", Json.Int (Net.unicast_failures net));
            ("bytes_sent", Json.Int (Net.bytes_sent net));
          ] );
      ( "crypto",
        Json.Obj
          [
            ("scheme", Json.String suite.Suite.scheme_name);
            ("signs", Json.Int suite.Suite.sign_count);
            ("verifies", Json.Int suite.Suite.verify_count);
            ("sha256_blocks", Json.Int suite.Suite.sha256_blocks);
            ("by_kind", by_kind_json t);
            ("per_node_signs", ints t.node_signs n);
            ("per_node_verifies", ints t.node_verifies n);
            ("node_signs_hist", hist_json (hist_of_array t.node_signs n));
            ("node_verifies_hist", hist_json (hist_of_array t.node_verifies n));
          ] );
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)) );
      ( "phases",
        Json.Obj
          (List.map
             (fun (name, p) -> (name, Json.Obj [ ("events", Json.Int p.ph_events) ]))
             (phases t)) );
    ]
    @ extra_det)

let wall_json t ~engine =
  let g = Gc.quick_stat () in
  Json.Obj
    [
      ( "profile",
        Json.List
          (List.map
             (fun (label, e) ->
               Json.Obj
                 [
                   ("label", Json.String label);
                   ("events", Json.Int e.Engine.p_count);
                   ("wall_s", Json.Float e.Engine.p_wall_s);
                 ])
             (Engine.profile engine)) );
      ("wall_in_run_s", Json.Float (Engine.wall_in_run engine));
      ("events_per_sec", Json.Float (Engine.events_per_sec engine));
      ( "gc",
        Json.Obj
          [
            ("heap_words", Json.Int g.Gc.heap_words);
            ("top_heap_words", Json.Int g.Gc.top_heap_words);
            ("minor_collections", Json.Int g.Gc.minor_collections);
            ("major_collections", Json.Int g.Gc.major_collections);
            ( "phases",
              Json.Obj
                (List.map
                   (fun (name, p) ->
                     ( name,
                       Json.Obj
                         [
                           ("minor_words", Json.Float p.ph_minor_words);
                           ("major_words", Json.Float p.ph_major_words);
                           ("promoted_words", Json.Float p.ph_promoted_words);
                           ( "minor_collections",
                             Json.Int p.ph_minor_collections );
                           ( "major_collections",
                             Json.Int p.ph_major_collections );
                         ] ))
                   (phases t)) );
          ] );
    ]

let header ?(meta = []) () =
  Json.Obj
    ([ ("schema", Json.String schema); ("version", Json.Int schema_version) ]
    @ meta)

let to_json ?(meta = []) ?extra_det t ~engine ~net ~suite =
  Json.Obj
    ([ ("schema", Json.String schema); ("version", Json.Int schema_version) ]
    @ meta
    @ [
        ("deterministic", deterministic_json ?extra_det t ~engine ~net ~suite);
        ("wall_clock", wall_json t ~engine);
      ])

(* The sweep-mergeable form: one header line then one record holding
   only the deterministic section, so the merged stream stays
   byte-identical across domain counts and CI can cmp it directly. *)
let det_jsonl ?meta ?extra_det t ~engine ~net ~suite =
  let buf = Buffer.create 1024 in
  Json.to_buffer buf (header ?meta ());
  Buffer.add_char buf '\n';
  Json.to_buffer buf
    (Json.Obj
       [
         ("type", Json.String "det");
         ("deterministic", deterministic_json ?extra_det t ~engine ~net ~suite);
       ]);
  Buffer.add_char buf '\n';
  Buffer.contents buf
