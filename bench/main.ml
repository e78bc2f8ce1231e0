(** Benchmark harness entry point: regenerates every table and figure of
    the paper's evaluation (see DESIGN.md's per-experiment index).

    {v
    dune exec bench/main.exe             # everything (a few minutes)
    dune exec bench/main.exe -- table2 --scale 2 --programs bzip2,mcf
    dune exec bench/main.exe -- fig1 fig2 fig3 table1 dispatch caa \
                                transtab loc
    v} *)

let usage () =
  print_endline
    "usage: main.exe \
     [fig1|fig2|fig3|table1|table2|dispatch|chain|tier|aot|cores|replay|chainjson|tiercheck|aotcheck|replaycheck|caa|transtab|loc|all]*";
  print_endline "       table2 options: --scale N --programs a,b,c";
  print_endline "       chainjson/tiercheck/aotcheck/replaycheck options: --out FILE";
  exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref 1 in
  let programs = ref [] in
  let out = ref "BENCH_pr.json" in
  let cmds = ref [] in
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
  let run_cmd = function
    | "fig1" -> Figures.fig1 ()
    | "fig2" -> Figures.fig2 ()
    | "fig3" -> Figures.fig3 ()
    | "table1" -> Table1.run ()
    | "table2" -> Table2.run ~scale:!scale ~programs:!programs ()
    | "dispatch" -> Dispatch_bench.run ()
    | "chain" -> Chain_bench.run ~scale:!scale ()
    | "tier" -> Tier_bench.run ~scale:!scale ()
    | "aot" -> Aot_bench.run ~scale:!scale ()
    | "cores" -> Cores_bench.run ()
    | "replay" -> Replay_bench.run ~scale:!scale ()
    | "chainjson" ->
        Chain_bench.write_json ~path:!out ~scale:!scale
          ~extra:
            (Tier_bench.metrics ~scale:!scale ()
            @ Aot_bench.metrics ~scale:!scale ()
            @ Cores_bench.metrics ()
            @ Replay_bench.metrics ~scale:!scale ())
          ()
    | "tiercheck" -> Tier_bench.check_current ~current:!out
    | "aotcheck" -> Aot_bench.check_current ~current:!out
    | "replaycheck" -> Replay_bench.check_current ~current:!out
    | "caa" -> Caa_bench.run ()
    | "transtab" -> Transtab_bench.run ()
    | "loc" -> Loc_bench.run ()
    | "all" ->
        Figures.fig1 ();
        Figures.fig2 ();
        Figures.fig3 ();
        Table1.run ();
        Table2.run ~scale:!scale ~programs:!programs ();
        Dispatch_bench.run ();
        Chain_bench.run ~scale:!scale ();
        Tier_bench.run ~scale:!scale ();
        Aot_bench.run ~scale:!scale ();
        Cores_bench.run ();
        Replay_bench.run ~scale:!scale ();
        Caa_bench.run ();
        Transtab_bench.run ();
        Loc_bench.run ()
    | c ->
        Printf.printf "unknown command '%s'\n" c;
        usage ()
  in
  List.iter run_cmd cmds
