(** Regenerate Table 2: slow-down factors of Nulgrind, ICntI, ICntC and
    Memcheck over the SPEC-shaped suite, with geometric means, against
    the paper's published factors.

    Native "time" is the native engine's deterministic cycle count;
    each tool's time is the Valgrind engine's total cycles (host code +
    dispatch + JIT + SMC checks).  Absolute numbers are simulator
    artefacts; the claims under test are the ordering and rough
    magnitudes: Nulgrind a few x, inline counting cheaper than C-call
    counting, Memcheck ~5x Nulgrind (paper: 4.3 / 8.8 / 13.5 / 22.1).

    All runs here pin [chaining = false]: the paper's Valgrind does not
    chain translations (§3.9), so Table 2's published slow-downs were
    measured with every block transfer going through the dispatcher.
    The chaining extension is measured separately by the cycle gate
    ({!Cycle_gate}). *)

(* the paper's dispatcher configuration, without the chaining extension *)
let paper_options = { Vg_core.Session.default_options with chaining = false }

(* the paper's Table 2 per-program slow-downs, for side-by-side output *)
let paper_numbers =
  [
    ("bzip2", (3.5, 7.2, 10.5, 16.1));
    ("crafty", (6.9, 12.3, 22.5, 36.0));
    ("eon", (7.5, 11.8, 21.0, 51.4));
    ("gap", (4.0, 9.1, 13.5, 25.5));
    ("gcc", (5.3, 9.0, 14.1, 39.0));
    ("gzip", (3.2, 5.9, 9.0, 14.7));
    ("mcf", (2.0, 3.5, 5.4, 7.0));
    ("parser", (3.6, 7.0, 10.4, 17.8));
    ("perlbmk", (4.8, 9.6, 14.6, 27.1));
    ("twolf", (3.1, 6.5, 10.7, 16.0));
    ("vortex", (6.5, 11.4, 17.8, 38.7));
    ("vpr", (4.1, 7.7, 11.3, 16.4));
    ("ammp", (3.4, 6.5, 9.1, 32.7));
    ("applu", (5.2, 14.1, 28.1, 19.7));
    ("apsi", (3.4, 8.2, 12.5, 16.4));
    ("art", (4.7, 9.4, 13.7, 24.0));
    ("equake", (3.8, 8.4, 12.4, 17.1));
    ("lucas", (3.7, 7.1, 10.8, 24.8));
    ("mesa", (5.9, 10.3, 15.9, 57.9));
    ("mgrid", (3.5, 9.8, 14.4, 16.9));
    ("swim", (3.2, 11.9, 15.3, 10.7));
    ("wupwise", (7.4, 11.8, 17.3, 26.7));
  ]

type row = {
  r_name : string;
  r_native : int64;
  r_nulg : float;
  r_icnti : float;
  r_icntc : float;
  r_memc : float;
}

let tools () = Tools.Catalog.pick [ "nulgrind"; "icnti"; "icntc"; "memcheck" ]

let run_program ?(scale = 1) (w : Workloads.workload) : row =
  let img = Workloads.compile ~scale w in
  let native = Harness.run_native img in
  let sd tool =
    let tr = Harness.run_tool ~options:paper_options tool img in
    if tr.tr_stdout <> native.nr_stdout then
      Printf.printf "!! %s under %s produced different output\n" w.w_name
        tool.Vg_core.Tool.name;
    Harness.slowdown native tr
  in
  let factors = List.map (fun (_, t) -> sd t) (tools ()) in
  match factors with
  | [ n; i; c; m ] ->
      {
        r_name = w.w_name;
        r_native = native.nr_cycles;
        r_nulg = n;
        r_icnti = i;
        r_icntc = c;
        r_memc = m;
      }
  | _ -> assert false

let run ?(scale = 1) ?(programs = []) () =
  Harness.section
    "Table 2: slow-down factors on the SPEC-shaped suite (ours vs paper)";
  let suite =
    match programs with
    | [] -> Workloads.all
    | names -> List.filter_map Workloads.find names
  in
  Printf.printf "%-9s %12s | %-29s| %s\n" "" "" "measured (this repro)"
    "paper (Table 2)";
  Printf.printf "%-9s %12s |%6s %6s %6s %7s |%6s %6s %6s %7s\n" "program"
    "native cyc" "Nulg." "ICntI" "ICntC" "Memch." "Nulg." "ICntI" "ICntC"
    "Memch.";
  Harness.hr ();
  let rows =
    List.map
      (fun w ->
        let r = run_program ~scale w in
        (match List.assoc_opt r.r_name paper_numbers with
        | Some (pn, pi, pc, pm) ->
            Printf.printf "%-9s %12Ld |%6.1f %6.1f %6.1f %7.1f |%6.1f %6.1f %6.1f %7.1f\n%!"
              r.r_name r.r_native r.r_nulg r.r_icnti r.r_icntc r.r_memc pn pi
              pc pm
        | None ->
            Printf.printf "%-9s %12Ld |%6.1f %6.1f %6.1f %7.1f |\n%!" r.r_name
              r.r_native r.r_nulg r.r_icnti r.r_icntc r.r_memc);
        r)
      suite
  in
  Harness.hr ();
  let gm f = Harness.geomean (List.map f rows) in
  Printf.printf "%-9s %12s |%6.1f %6.1f %6.1f %7.1f |%6.1f %6.1f %6.1f %7.1f\n"
    "geo.mean" ""
    (gm (fun r -> r.r_nulg))
    (gm (fun r -> r.r_icnti))
    (gm (fun r -> r.r_icntc))
    (gm (fun r -> r.r_memc))
    4.3 8.8 13.5 22.1;
  Printf.printf
    "\nShape checks: Nulgrind < ICntI < ICntC < Memcheck per program: %b;\n\
     Memcheck/Nulgrind ratio %.1f (paper %.1f).\n"
    (List.for_all
       (fun r -> r.r_nulg < r.r_icnti && r.r_icnti < r.r_icntc && r.r_icntc < r.r_memc)
       rows)
    (gm (fun r -> r.r_memc) /. gm (fun r -> r.r_nulg))
    (22.1 /. 4.3);
  (* extension: --track-origins (a second shadow plane) on a subset *)
  let subset = [ "bzip2"; "mcf"; "perlbmk"; "ammp" ] in
  let origin_pairs =
    List.filter_map
      (fun n ->
        match Workloads.find n with
        | None -> None
        | Some w ->
            let img = Workloads.compile ~scale w in
            let native = Harness.run_native img in
            let mc = Harness.run_tool ~options:paper_options Tools.Memcheck.tool img in
            let mo =
              Harness.run_tool ~options:paper_options Tools.Memcheck.tool_origins
                img
            in
            Some (Harness.slowdown native mc, Harness.slowdown native mo))
      subset
  in
  Printf.printf
    "\nExtension (--track-origins, a second shadow plane) over {%s}:\n\
     memcheck %.1fx -> memcheck-origins %.1fx (the real tool's origin\n\
     tracking likewise costs roughly another 2x).\n"
    (String.concat ", " subset)
    (Harness.geomean (List.map fst origin_pairs))
    (Harness.geomean (List.map snd origin_pairs))
