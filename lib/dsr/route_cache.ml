module Address = Manet_ipv6.Address

type 'a entry = {
  route : Address.t list;
  meta : 'a;
  added_at : float;
  mutable last_used : float;
}

type 'a t = { by_dst : 'a entry list ref Address.Tbl.t; capacity_per_dst : int }

let create ?(capacity_per_dst = 4) () =
  { by_dst = Address.Tbl.create 32; capacity_per_dst }

let same_route r1 r2 =
  List.length r1 = List.length r2 && List.for_all2 Address.equal r1 r2

let insert t ~dst ~route ~meta ~now =
  let entries =
    match Address.Tbl.find_opt t.by_dst dst with
    | Some l -> l
    | None ->
        let l = ref [] in
        Address.Tbl.add t.by_dst dst l;
        l
  in
  match List.find_opt (fun e -> same_route e.route route) !entries with
  | Some e -> e.last_used <- now
  | None ->
      let e = { route; meta; added_at = now; last_used = now } in
      let kept =
        if List.length !entries >= t.capacity_per_dst then begin
          (* Evict the least recently used. *)
          let sorted =
            List.sort (fun a b -> Float.compare b.last_used a.last_used) !entries
          in
          List.filteri (fun i _ -> i < t.capacity_per_dst - 1) sorted
        end
        else !entries
      in
      entries := e :: kept

let entries t ~dst =
  match Address.Tbl.find_opt t.by_dst dst with
  | None -> []
  | Some l -> List.sort (fun a b -> Float.compare b.last_used a.last_used) !l

(* One pass over the stored order, picking what a stable sort by
   [last_used] (newest first) followed by a strict-[>] left fold over
   the scores would: the highest score; on equal scores the larger
   [last_used]; on equal [last_used] the entry stored first.  A
   top-level loop, so the only allocations are [score]'s results and
   the returned option. *)
let rec best_from ~score b bs = function
  | [] -> Some b
  | e :: rest ->
      let s = score e in
      if s > bs || (s = bs && e.last_used > b.last_used) then best_from ~score e s rest
      else best_from ~score b bs rest

let best t ~dst ~score =
  match Address.Tbl.find t.by_dst dst with
  | exception Not_found -> None
  | l -> (
      match !l with [] -> None | e :: rest -> best_from ~score e (score e) rest)

let filter_entries t keep =
  (* Apply [keep dst entry] to every entry; count removals.
     Order-insensitive: each bucket's ref cell is rewritten
     independently and the removal count is a commutative sum, so
     visiting order cannot leak anywhere. *)
  Address.Tbl.fold
    (fun dst l removed ->
      let before = List.length !l in
      l := List.filter (fun e -> keep dst e) !l;
      removed + (before - List.length !l))
    t.by_dst 0

let path_has_link ~owner ~dst route ~a ~b =
  let full = (owner :: route) @ [ dst ] in
  let rec scan = function
    | x :: (y :: _ as rest) ->
        if Address.equal x a && Address.equal y b then true else scan rest
    | _ -> false
  in
  scan full

let remove_link t ~owner ~a ~b =
  filter_entries t (fun dst e -> not (path_has_link ~owner ~dst e.route ~a ~b))

let remove_containing t addr =
  filter_entries t (fun dst e ->
      not (Address.equal dst addr || List.exists (Address.equal addr) e.route))

let remove_route t ~dst ~route =
  match Address.Tbl.find_opt t.by_dst dst with
  | None -> ()
  | Some l -> l := List.filter (fun e -> not (same_route e.route route)) !l


