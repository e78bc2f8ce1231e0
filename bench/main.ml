(** Benchmark harness entry point: regenerates every table and figure of
    the paper's evaluation (see DESIGN.md's per-experiment index).

    {v
    dune exec bench/main.exe             # everything (a few minutes)
    dune exec bench/main.exe -- table2 --scale 2 --programs bzip2,mcf
    dune exec bench/main.exe -- fig1 fig2 fig3 table1 dispatch caa \
                                transtab loc
    dune exec bench/main.exe -- chainjson --out F   # the cycle gate
    v}

    [chainjson] writes the simulated-cycle metrics to F, prints their
    tables and claims ({!Cycle_gate}), and makes the exit status 1 if a
    claim fails. *)

let usage () =
  print_endline
    "usage: main.exe \
     [fig1|fig2|fig3|table1|table2|dispatch|chainjson|caa|transtab|loc|all]*";
  print_endline "       table2 options: --scale N --programs a,b,c";
  print_endline "       chainjson options: --out FILE";
  exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref 1 in
  let programs = ref [] in
  let out = ref "BENCH_pr.json" in
  let cmds = ref [] in
  let failed = ref false in
  let rec parse = function
    | [] -> ()
    | "--scale" :: n :: rest ->
        scale := int_of_string n;
        parse rest
    | "--programs" :: ps :: rest ->
        programs := String.split_on_char ',' ps;
        parse rest
    | "--out" :: p :: rest ->
        out := p;
        parse rest
    | "--help" :: _ | "-h" :: _ -> usage ()
    | cmd :: rest ->
        cmds := cmd :: !cmds;
        parse rest
  in
  parse args;
  let cmds = match List.rev !cmds with [] -> [ "all" ] | l -> l in
  let rec run_cmd = function
    | "fig1" -> Figures.fig1 ()
    | "fig2" -> Figures.fig2 ()
    | "fig3" -> Figures.fig3 ()
    | "table1" -> Table1.run ()
    | "table2" -> Table2.run ~scale:!scale ~programs:!programs ()
    | "dispatch" -> Dispatch_bench.run ()
    | "chainjson" -> if not (Cycle_gate.run ~out:!out) then failed := true
    | "caa" -> Caa_bench.run ()
    | "transtab" -> Transtab_bench.run ()
    | "loc" -> Loc_bench.run ()
    | "all" ->
        List.iter run_cmd
          [ "fig1"; "fig2"; "fig3"; "table1"; "table2"; "dispatch";
            "chainjson"; "caa"; "transtab"; "loc" ]
    | c ->
        Printf.printf "unknown command '%s'\n" c;
        usage ()
  in
  List.iter run_cmd cmds;
  if !failed then exit 1
