(* In-memory spans recorded by the benchmark around its calls into each
   layer: name, start, end, parent, and the run id all spans of one
   repetition share.  Times are host seconds since the recorder was
   created.  Written out only when the run ends. *)

module Json = Manetsec.Obs_json

type span = { id : int; name : string; parent : int; start : float; mutable stop : float }
type t = { run : string; origin : float; mutable spans : span list }

let create run = { run; origin = Unix.gettimeofday (); spans = [] }

(* Record a finished span; [parent] 0 is the root.  Returns its id. *)
let add t ?(parent = 0) name ~start ~stop =
  let id = List.length t.spans + 1 in
  t.spans <- { id; name; parent; start; stop } :: t.spans;
  id

(* Close a span recorded with a provisional end. *)
let finish t id ~stop = List.iter (fun s -> if s.id = id then s.stop <- stop) t.spans

let spans t = List.rev t.spans

let to_json t =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("run", Json.String t.run);
             ("id", Json.Int s.id);
             ("name", Json.String s.name);
             ("parent", Json.Int s.parent);
             ("start", Json.Float (s.start -. t.origin));
             ("end", Json.Float (s.stop -. t.origin));
           ])
       (spans t))
