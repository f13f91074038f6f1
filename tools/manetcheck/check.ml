(* The rule registry and the one analysis pass.  See check.mli. *)

module C = Analyzer_common.Common

let rules = Sem.rules @ Dom.rules @ Hot.rules @ Conv.rules @ [ "parse" ]

let units ?(uses = []) files =
  List.map (C.mk_unit ~rules ~analyzed:true) files
  @ List.map (C.mk_unit ~rules ~analyzed:false) uses

let analyze ?uses ?(tests = []) ?(roster = ("", "")) files =
  let tests = List.map (C.mk_unit ~rules ~analyzed:true) tests in
  let units = units ?uses files @ tests in
  let analyzed = List.filter (fun u -> u.C.u_analyzed) units in
  let lib = List.filter C.in_lib units in
  let hot_findings, hot = Hot.findings ~roster lib in
  C.finish analyzed
    (C.parse_failures analyzed
    @ Sem.findings ~lib ~tests ~units
    @ Dom.findings lib
    @ hot_findings
    @ Conv.findings ~hot analyzed)

let hot_set ~roster files =
  let _, hot, _ = Hot.hot_set ~roster:("", roster) (units files) in
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) hot [])
