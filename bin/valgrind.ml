(** The [valgrind] command-line driver: run a VG32 program under a tool,
    and record the run to a replay log, which [vgrewind] replays.

    {v
    valgrind --tool=memcheck prog.c       # mini-C source, compiled on the fly
    valgrind --tool=cachegrind prog.s     # VG32 assembly
    valgrind --tool=nulgrind --no-chaining --smc-check=all prog.c
    valgrind --workload gcc --chaos-seed 7 --record gcc.vgrw
    v} *)

open Cmdliner

let die fmt =
  Printf.ksprintf (fun m -> prerr_endline ("valgrind: " ^ m); exit 2) fmt

let read_file p =
  try In_channel.with_open_bin p In_channel.input_all
  with Sys_error m -> die "%s" m

(* The client, named as a replay log's meta names it: a source file
   (mini-C, or VG32 assembly for .s/.asm) or a corpus workload at scale
   1.  Returns its name, kind and source. *)
let program workload path =
  match (workload, path) with
  | Some w, None -> (
      match Workloads.find w with
      | Some wl -> ("workload:" ^ w, "c", wl.Workloads.w_source ~scale:1)
      | None ->
          die "unknown workload '%s' (have: %s)" w
            (String.concat ", "
               (List.map (fun w -> w.Workloads.w_name) Workloads.all)))
  | None, Some p ->
      let asm = List.exists (Filename.check_suffix p) [ ".s"; ".asm" ] in
      (Filename.basename p, (if asm then "asm" else "c"), read_file p)
  | _ -> die "need exactly one of PROGRAM or --workload"

let chaos_modes =
  [
    ("idempotent", Chaos.idempotent);
    ("hostile", Chaos.hostile);
    ("sharded", Chaos.sharded);
  ]

let tiers = [ ("tiered", `Tiered); ("tier0-only", `Tier0_only); ("full", `Full) ]

let run tool_name cores no_chaining no_verify smc_mode tier promote_threshold
    scan aot_seed stats profile trace_file stdin_file supp_file record_file
    workload chaos_seed chaos_mode path =
  let tool =
    try Tools.Catalog.find tool_name with Invalid_argument m -> die "%s" m
  in
  let name, kind, src = program workload path in
  let img =
    try
      if kind = "asm" then Guest.Asm.assemble src
      else Minicc.Driver.compile src
    with
    | Minicc.Driver.Compile_error m -> die "%s: %s" name m
    | Guest.Asm.Error { line; msg } -> die "%s:%d: %s" name line msg
  in
  if cores < 1 then die "--cores must be >= 1";
  (* a recording's meta: the client, then the chaos schedule; the
     session adds the options that shape the run *)
  let rec_ =
    Option.map
      (fun file ->
        let r = Replay.recorder () in
        Replay.add_meta r "program" name;
        Replay.add_meta r "kind" kind;
        Replay.add_meta r "source" src;
        Option.iter
          (fun seed ->
            Replay.add_meta r "chaos" (Printf.sprintf "%s:%d" chaos_mode seed))
          chaos_seed;
        (r, file))
      record_file
  in
  let default = Vg_core.Session.default_options in
  let options =
    {
      default with
      cores;
      chaining = not no_chaining;
      smc_mode;
      verify_jit = not no_verify;
      chaos =
        Option.map
          (fun seed ->
            Chaos.create ((List.assoc chaos_mode chaos_modes) ~seed))
          chaos_seed;
      profile;
      trace_capacity = (if trace_file = None then 0 else 65536);
      tier0 = tier <> `Full;
      promote_threshold =
        (if tier = `Tier0_only then 0
         else Option.value promote_threshold ~default:default.promote_threshold);
      trace_threshold = (if tier = `Tiered then default.trace_threshold else 0);
      scan = scan || aot_seed;
      aot_seed;
      rr =
        (match rec_ with Some (r, _) -> Replay.Record r | None -> Replay.No_rr);
    }
  in
  let s = Vg_core.Session.create ~options ~tool img in
  s.echo_output <- true;
  Option.iter
    (fun f ->
      List.iter
        (Vg_core.Errors.add_suppression s.errors)
        (Vg_core.Errors.parse_suppressions (read_file f)))
    supp_file;
  Option.iter (fun f -> Kernel.set_stdin s.kern (read_file f)) stdin_file;
  s.kern.stdout_echo <- true;
  Printf.eprintf "==vg== %s: %s\n" tool.name tool.description;
  Printf.eprintf "==vg== running %s\n" name;
  (match s.static_scan with
  | Some cfg ->
      let findings = Static.Lint.run cfg in
      Printf.eprintf
        "==vgscan== %d insns, %d blocks, %d weak, %d findings\n"
        cfg.Static.Cfg.n_insns
        (List.length cfg.Static.Cfg.blocks)
        cfg.Static.Cfg.n_weak (List.length findings);
      List.iter
        (fun (f : Static.Lint.finding) ->
          Printf.eprintf "==vgscan== [%s] 0x%Lx: %s\n" f.Static.Lint.f_class
            f.Static.Lint.f_addr f.Static.Lint.f_msg)
        findings
  | None -> ());
  let reason = Vg_core.Session.run s in
  Option.iter
    (fun (r, f) ->
      Replay.to_file r f;
      Printf.eprintf "==vg== recorded %d events -> %s\n" (Replay.n_events r) f)
    rec_;
  (match stats with
  | None -> ()
  | Some `Json ->
      (* machine-readable: the full metrics registry, one flat JSON
         object on stdout (the human-readable report stays on stderr).
         If the client's own stdout didn't end in a newline, add one so
         the JSON object always starts at column 0. *)
      let out = Kernel.stdout_contents s.kern in
      if String.length out > 0 && out.[String.length out - 1] <> '\n' then
        print_newline ();
      print_string (Vg_core.Session.stats_json s)
  | Some `Text ->
      let st = Vg_core.Session.stats s in
      Printf.eprintf
        "==vg== blocks run: %Ld  translations: %d  host cycles: %Ld\n"
        st.st_blocks st.st_translations st.st_host_cycles;
      Printf.eprintf "==vg== dispatcher hit rate: %.2f%%  total cycles: %Ld\n"
        (100.0 *. st.st_dispatch_hit_rate)
        st.st_total_cycles;
      Printf.eprintf
        "==vg== chained transfers: %Ld  (chains patched %d, unlinked %d)\n"
        st.st_chained st.st_chain_patched st.st_chain_unlinked;
      Printf.eprintf "==vg== verifier: %d phase-boundary checks\n"
        st.st_verify_checks;
      Printf.eprintf
        "==vg== tiers: %d quick, %d full, %d superblocks  (%d promotions, \
         %d failed, %d aborted traces)\n"
        st.st_translations_tier0 st.st_translations_full
        st.st_translations_super st.st_promotions st.st_promotions_failed
        st.st_superblock_aborts;
      Printf.eprintf "==vg== jit cycles: tier0=%Ld full=%Ld\n"
        st.st_jit_cycles_tier0
        (Int64.sub st.st_jit_cycles st.st_jit_cycles_tier0);
      Printf.eprintf "==vg== jit cycles by phase:";
      Array.iteri
        (fun i c ->
          Printf.eprintf "  %s=%Ld" Jit.Pipeline.phase_names.(i) c)
        st.st_jit_phase_cycles;
      Printf.eprintf "\n";
      if scan || aot_seed then
        Printf.eprintf
          "==vg== vgscan oracle: %d checked, %d missed;  aot: %d seeded, \
           %d failed, %Ld cycles\n"
          st.st_cfg_checked st.st_cfg_miss st.st_aot_seeded st.st_aot_failed
          st.st_aot_cycles);
  if profile then prerr_string (Vg_core.Session.profile_report s);
  (match (trace_file, Vg_core.Session.trace s) with
  | Some f, Some tr ->
      let write_file path text =
        let oc = open_out_bin path in
        output_string oc text;
        close_out oc
      in
      write_file f (Obs.Trace.to_jsonl tr);
      write_file (f ^ ".chrome.json") (Obs.Trace.to_chrome tr);
      Printf.eprintf "==vg== trace: %d events -> %s (+ %s.chrome.json)\n"
        (Obs.Trace.total tr) f f
  | _ -> ());
  match reason with
  | Vg_core.Session.Exited n -> exit (n land 0xFF)
  | Vg_core.Session.Fatal_signal sg -> exit (128 + sg)
  | Vg_core.Session.Out_of_fuel ->
      Printf.eprintf "==vg== out of fuel\n";
      exit 3

let cmd =
  let tool =
    Arg.(value & opt string "memcheck" & info [ "tool" ] ~doc:"Tool plug-in to run.")
  in
  let cores =
    Arg.(
      value & opt int 1
      & info [ "cores" ] ~docv:"N"
          ~doc:
            "Simulated cores (default 1).  Threads are pinned to core \
             (tid-1) mod $(docv) and the scheduler interleaves cores on \
             cycle counts, so any value replays bit-identically; a \
             single-threaded program behaves identically for every value.")
  in
  let no_chaining =
    Arg.(
      value & flag
      & info [ "no-chaining" ]
          ~doc:
            "Disable translation chaining (the paper's configuration: every \
             block transfer goes through the dispatcher).")
  in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify-jit" ]
          ~doc:
            "Disable the Vglint phase-boundary verifiers (on by default; \
             they check every translation's IR, register allocation and \
             encoding, plus the tool's instrumentation).")
  in
  let smc =
    let names = Vg_core.Session.smc_names in
    Arg.(
      value
      & opt (enum names) Vg_core.Session.Smc_stack
      & info [ "smc-check" ]
          ~doc:("Self-modifying-code checks: " ^ doc_alts_enum names ^ "."))
  in
  let tier =
    Arg.(
      value & opt (enum tiers) `Tiered
      & info [ "tier" ]
          ~doc:
            ("Translation tiers: " ^ doc_alts_enum tiers
           ^ ".  $(b,tiered) (the default) translates a cold block with \
              the tier-0 quick translator, promotes it to the optimizing \
              pipeline once hot (see $(b,--promote-threshold)) and \
              stitches hot paths into superblocks; $(b,tier0-only) stays \
              in tier 0, with no promotion and no superblocks; $(b,full) \
              pays the optimizing pipeline for every block up front and \
              forms no superblocks (the pre-tiering behaviour)."))
  in
  let promote_threshold =
    Arg.(
      value
      & opt (some int) None
      & info [ "promote-threshold" ] ~docv:"N"
          ~doc:
            "Promote a tier-0 translation to the optimizing pipeline once \
             its block has executed $(docv) times under \
             $(b,--tier=tiered) (default $(b,256); 0 disables \
             promotion).")
  in
  let scan =
    Arg.(
      value & flag
      & info [ "scan" ]
          ~doc:
            "Statically scan the whole image before start-up (Vgscan): \
             recover the guest CFG, report hostile-code findings, and \
             check every executed block start against the static CFG \
             (the soundness oracle, counted under $(b,static.cfg_miss)).")
  in
  let aot_seed =
    Arg.(
      value & flag
      & info [ "aot-seed" ]
          ~doc:
            "Pre-translate every statically discovered basic block \
             through the cold tier before the client runs (implies \
             $(b,--scan)); seeding work is counted separately under \
             $(b,jit.aot.*).")
  in
  let stats =
    Arg.(
      value
      & opt ~vopt:(Some `Text)
          (some (enum [ ("text", `Text); ("json", `Json) ]))
          None
      & info [ "stats" ]
          ~doc:
            "Print core statistics at exit: $(b,--stats) (or \
             $(b,--stats=text)) for the human-readable report on stderr, \
             $(b,--stats=json) for the full metrics registry as one flat \
             JSON object on stdout.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Build the guest-execution profile from exact block counters \
             and print the flat + caller/callee report at exit.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record structured events (translations, chain patch/unlink, \
             evictions, chaos faults, signals) into a bounded ring and \
             write them to $(docv) as JSON-lines, plus $(docv).chrome.json \
             in Chrome trace_event format (load in chrome://tracing or \
             Perfetto).")
  in
  let stdin_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "stdin" ] ~doc:"File fed to the client as standard input.")
  in
  let supp =
    Arg.(
      value
      & opt (some string) None
      & info [ "suppressions" ]
          ~doc:"Suppression file (errors matching its entries are hidden).")
  in
  let record_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:
            "Record a replay log to $(docv): every non-derivable input \
             (syscall results, signal delivery points, chaos faults) plus \
             the program source and translation flags, sealed with \
             final-state digests.  Replay it with $(b,vgrewind replay).")
  in
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Run a named corpus workload (scale 1) instead of PROGRAM.")
  in
  let chaos_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:
            "Run under a chaos fault schedule with this seed; a recording \
             logs the injected faults, and they replay exactly.")
  in
  let chaos_mode =
    let names = List.map (fun (n, _) -> (n, n)) chaos_modes in
    Arg.(
      value & opt (enum names) "hostile"
      & info [ "chaos-mode" ]
          ~doc:
            ("Chaos schedule for $(b,--chaos-seed): " ^ doc_alts_enum names
           ^ "."))
  in
  let path =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"PROGRAM")
  in
  Cmd.v
    (Cmd.info "valgrind" ~doc:"run a VG32 program under a Valgrind tool")
    Term.(
      const run $ tool $ cores $ no_chaining $ no_verify $ smc $ tier
      $ promote_threshold $ scan $ aot_seed $ stats $ profile $ trace_file
      $ stdin_file $ supp $ record_file $ workload $ chaos_seed $ chaos_mode
      $ path)

(* cmdliner's optional-value arguments consume a following bare token,
   so "--stats PROGRAM" would swallow the program path.  Rewrite the
   bare form to "--stats=text" so both spellings keep working. *)
let argv =
  Array.map (fun a -> if a = "--stats" then "--stats=text" else a) Sys.argv

let () = exit (Cmd.eval ~argv cmd)
