(* The benchmark harness: regenerates every table and figure of the
   paper (T1, T2, F1, F2, F3), runs the simulation evaluation (E1-E6)
   described in DESIGN.md, and finishes with the bechamel
   microbenchmarks.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- e1 e4     # a selection
*)

let sections =
  [
    ("t1", fun () -> Tables.table1 ());
    ("t2", fun () -> Tables.table2 ());
    ("f1", fun () -> Figures.fig1 ());
    ("f2", fun () -> Figures.fig2 ());
    ("f3", fun () -> Figures.fig3 ());
    ("e1", fun () -> Experiments.e1 ());
    ("e2", fun () -> Experiments.e2 ());
    ("e3", fun () -> Experiments.e3 ());
    ("e4", fun () -> Experiments.e4 ());
    ("e5", fun () -> Experiments.e5 ());
    ("e6", fun () -> Experiments.e6 ());
    ("e7", fun () -> Experiments.e7 ());
    ("resilience", fun () -> Resilience_bench.run ());
    ("micro", fun () -> Micro.run ());
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> List.map String.lowercase_ascii names
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %S (have: %s)\n" name
            (String.concat ", " (List.map fst sections)))
    requested
