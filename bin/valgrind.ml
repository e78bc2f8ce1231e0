(** The [valgrind] command-line driver: run a VG32 program under a tool.

    {v
    valgrind --tool=memcheck prog.c       # mini-C source, compiled on the fly
    valgrind --tool=cachegrind prog.s     # VG32 assembly
    valgrind --tool=nulgrind --no-chaining --smc-check=all prog.c
    v} *)

open Cmdliner

let read_file p =
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_image (path : string) : Guest.Image.t =
  if Filename.check_suffix path ".s" || Filename.check_suffix path ".asm" then
    Guest.Asm.assemble (read_file path)
  else Minicc.Driver.compile (read_file path)

(* --replay: everything comes out of the log — the program source, the
   tool, the core count and the translation flags — so the replay is a
   pure function of the .vgrw file. *)
let run_replay (file : string) stats =
  let fail fmt =
    Printf.ksprintf (fun m -> prerr_endline ("valgrind: " ^ m); exit 2) fmt
  in
  let log =
    try Replay.log_of_file file with
    | Replay.Corrupt m -> fail "%s: corrupt log: %s" file m
    | Sys_error m -> fail "%s" m
  in
  let meta k = List.assoc_opt k log.Replay.l_meta in
  let src =
    match meta "source" with
    | Some s -> s
    | None -> fail "%s: log carries no program source" file
  in
  let img =
    if meta "kind" = Some "asm" then Guest.Asm.assemble src
    else Minicc.Driver.compile src
  in
  let tool =
    match List.assoc_opt log.Replay.l_tool Tools.Catalog.all with
    | Some t -> t
    | None -> fail "log needs unknown tool '%s'" log.Replay.l_tool
  in
  let s =
    try Vg_core.Session.replaying ~tool img log
    with Replay.Corrupt m -> fail "%s: corrupt log: %s" file m
  in
  s.echo_output <- true;
  s.kern.stdout_echo <- true;
  Printf.eprintf "==vg== replaying %s (%s, cores=%d, %d events)\n" file
    log.Replay.l_tool log.Replay.l_cores (List.length log.Replay.l_events);
  (try
     let reason = Vg_core.Session.run s in
     ignore reason
   with Replay.Divergence _ as e ->
     Printf.eprintf "==vg== REPLAY DIVERGED: %s\n" (Printexc.to_string e);
     exit 1);
  if stats <> None then print_string (Vg_core.Session.stats_json s);
  match Vg_core.Session.replay_mismatches s with
  | [] ->
      Printf.eprintf "==vg== replay verified: all digests match\n";
      exit 0
  | ms ->
      List.iter
        (fun (k, want, got) ->
          Printf.eprintf "==vg== DIGEST MISMATCH %s: recorded %s, replayed %s\n"
            k want got)
        ms;
      exit 1

let run tool_name cores no_chaining no_verify smc_mode tier0_only no_tier0
    promote_threshold scan aot_seed stats profile trace_file stdin_file
    supp_file record_file replay_file path_opt =
  (match (record_file, replay_file) with
  | Some _, Some _ ->
      prerr_endline "valgrind: --record and --replay are mutually exclusive";
      exit 2
  | _ -> ());
  (match replay_file with Some f -> run_replay f stats | None -> ());
  let path =
    match path_opt with
    | Some p -> p
    | None ->
        prerr_endline "valgrind: required PROGRAM argument is missing";
        exit 2
  in
  let tool =
    match List.assoc_opt tool_name Tools.Catalog.all with
    | Some t -> t
    | None ->
        Printf.eprintf "valgrind: unknown tool '%s' (have: %s)\n" tool_name
          (String.concat ", " (Tools.Catalog.names ()));
        exit 2
  in
  let img =
    try load_image path with
    | Minicc.Driver.Compile_error m ->
        Printf.eprintf "valgrind: %s: %s\n" path m;
        exit 2
    | Guest.Asm.Error { line; msg } ->
        Printf.eprintf "valgrind: %s:%d: %s\n" path line msg;
        exit 2
    | Sys_error m ->
        Printf.eprintf "valgrind: %s\n" m;
        exit 2
  in
  let smc =
    match smc_mode with
    | "none" -> Vg_core.Session.Smc_none
    | "all" -> Vg_core.Session.Smc_all
    | _ -> Vg_core.Session.Smc_stack
  in
  if tier0_only && no_tier0 then begin
    prerr_endline "valgrind: --tier0-only and --no-tier0 are mutually exclusive";
    exit 2
  end;
  if cores < 1 then begin
    prerr_endline "valgrind: --cores must be >= 1";
    exit 2
  end;
  let options =
    {
      Vg_core.Session.default_options with
      cores;
      chaining = not no_chaining;
      smc_mode = smc;
      verify_jit = not no_verify;
      profile;
      trace_capacity = (if trace_file = None then 0 else 65536);
      tier0 = not no_tier0;
      promote_threshold =
        (if tier0_only then 0
         else
           Option.value promote_threshold
             ~default:Vg_core.Session.default_options.promote_threshold);
      superblocks =
        Vg_core.Session.default_options.superblocks
        && not (tier0_only || no_tier0);
      scan = scan || aot_seed;
      aot_seed;
    }
  in
  let rec_ =
    match record_file with
    | None -> None
    | Some _ ->
        let r = Replay.recorder () in
        Replay.add_meta r "program" (Filename.basename path);
        Replay.add_meta r "kind"
          (if Filename.check_suffix path ".s" || Filename.check_suffix path ".asm"
           then "asm"
           else "c");
        Replay.add_meta r "source" (read_file path);
        Some r
  in
  let options =
    match rec_ with
    | Some r -> { options with rr = Replay.Record r }
    | None -> options
  in
  let s = Vg_core.Session.create ~options ~tool img in
  s.echo_output <- true;
  (match supp_file with
  | Some f ->
      let ic = open_in_bin f in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      List.iter
        (Vg_core.Errors.add_suppression s.errors)
        (Vg_core.Errors.parse_suppressions text)
  | None -> ());
  (match stdin_file with
  | Some f ->
      let ic = open_in_bin f in
      let n = in_channel_length ic in
      Kernel.set_stdin s.kern (really_input_string ic n);
      close_in ic
  | None -> ());
  s.kern.stdout_echo <- true;
  Printf.eprintf "==vg== %s: %s\n" tool.name tool.description;
  Printf.eprintf "==vg== running %s\n" path;
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
  (match (rec_, record_file) with
  | Some r, Some f ->
      Replay.to_file r f;
      Printf.eprintf "==vg== recorded %d events -> %s\n" (Replay.n_events r) f
  | _ -> ());
  (match stats with
  | None -> ()
  | Some "json" ->
      (* machine-readable: the full metrics registry, one flat JSON
         object on stdout (the human-readable report stays on stderr).
         If the client's own stdout didn't end in a newline, add one so
         the JSON object always starts at column 0. *)
      let out = Kernel.stdout_contents s.kern in
      if String.length out > 0 && out.[String.length out - 1] <> '\n' then
        print_newline ();
      print_string (Vg_core.Session.stats_json s)
  | Some _ ->
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
    Arg.(
      value
      & opt string "stack"
      & info [ "smc-check" ] ~doc:"Self-modifying-code checks: none|stack|all.")
  in
  let tier0_only =
    Arg.(
      value & flag
      & info [ "tier0-only" ]
          ~doc:
            "Stay in the tier-0 quick translator: hot blocks are never \
             promoted to the optimizing pipeline and no superblocks form.")
  in
  let no_tier0 =
    Arg.(
      value & flag
      & info [ "no-tier0" ]
          ~doc:
            "Disable the quick tier (the pre-tiering behaviour): every \
             block pays the full optimizing pipeline up front.")
  in
  let promote_threshold =
    Arg.(
      value
      & opt (some int) None
      & info [ "promote-threshold" ] ~docv:"N"
          ~doc:
            "Promote a tier-0 translation to the optimizing pipeline once \
             its block has executed $(docv) times (default \
             $(b,256); 0 disables promotion).")
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
      & opt ~vopt:(Some "text") (some string) None
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
             final-state digests.  Replay with $(b,--replay) or the \
             $(b,vgrewind) driver.")
  in
  let replay_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Re-execute a recording bit-identically.  The program, tool, \
             core count and translation flags all come from the log; the \
             final state is checked against the recorded digests and any \
             mismatch exits non-zero.")
  in
  let path =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"PROGRAM")
  in
  Cmd.v
    (Cmd.info "valgrind" ~doc:"run a VG32 program under a Valgrind tool")
    Term.(
      const run $ tool $ cores $ no_chaining $ no_verify $ smc $ tier0_only
      $ no_tier0 $ promote_threshold $ scan $ aot_seed $ stats $ profile
      $ trace_file $ stdin_file $ supp $ record_file $ replay_file $ path)

(* cmdliner's optional-value arguments consume a following bare token,
   so "--stats PROGRAM" would swallow the program path.  Rewrite the
   bare form to "--stats=text" so both spellings keep working. *)
let argv =
  Array.map (fun a -> if a = "--stats" then "--stats=text" else a) Sys.argv

let () = exit (Cmd.eval ~argv cmd)
