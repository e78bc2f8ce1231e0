(** The [vgrewind] driver: record, replay and time-travel debugging on
    the deterministic substrate.

    {v
    vgrewind record --tool=memcheck -o prog.vgrw prog.c
    vgrewind record --tool=drd --cores=2 --chaos-seed=3 -o t.vgrw prog.s
    vgrewind replay prog.vgrw            # re-run, verify trailer digests
    vgrewind seek prog.vgrw --cycle N    # time-travel to a wall cycle
    vgrewind back prog.vgrw --insns K    # step backwards K instructions
    vgrewind when prog.vgrw              # when did errors / faults fire?
    v}

    A log is self-contained: the guest program source travels in the
    header metadata, so replaying needs only the [.vgrw] file. *)

open Cmdliner

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("vgrewind: " ^ m); exit 2) fmt

let read_file p =
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let compile_source ~(kind : string) (src : string) : Guest.Image.t =
  try
    if kind = "asm" then Guest.Asm.assemble src else Minicc.Driver.compile src
  with
  | Minicc.Driver.Compile_error m -> die "compile error: %s" m
  | Guest.Asm.Error { line; msg } -> die "assembly error at line %d: %s" line msg

let find_tool name =
  try Tools.Catalog.find name with Invalid_argument m -> die "%s" m

(* --- record ----------------------------------------------------------- *)

let record tool_name cores chaos_seed chaos_mode workload scale stdin_file out
    path =
  let tool = find_tool tool_name in
  if cores < 1 then die "--cores must be >= 1";
  (* the program: a source file, or a named corpus workload *)
  let prog_name, kind, src =
    match (workload, path) with
    | Some w, None -> (
        match Workloads.find w with
        | Some wl -> ("workload:" ^ w, "c", wl.Workloads.w_source ~scale)
        | None ->
            die "unknown workload '%s' (have: %s)" w
              (String.concat ", "
                 (List.map (fun w -> w.Workloads.w_name) Workloads.all)))
    | None, Some p ->
        let kind =
          if Filename.check_suffix p ".s" || Filename.check_suffix p ".asm"
          then "asm"
          else "c"
        in
        (Filename.basename p, kind, (try read_file p with Sys_error m -> die "%s" m))
    | _ -> die "need exactly one of PROGRAM or --workload"
  in
  let img = compile_source ~kind src in
  let rec_ = Replay.recorder () in
  Replay.add_meta rec_ "program" prog_name;
  Replay.add_meta rec_ "kind" kind;
  Replay.add_meta rec_ "source" src;
  let chaos =
    match chaos_seed with
    | None -> None
    | Some seed ->
        Replay.add_meta rec_ "chaos" (Printf.sprintf "%s:%d" chaos_mode seed);
        let cfg =
          match chaos_mode with
          | "idempotent" -> Chaos.idempotent ~seed
          | "hostile" -> Chaos.hostile ~seed
          | "sharded" -> Chaos.sharded ~seed
          | m -> die "unknown chaos mode '%s' (idempotent|hostile|sharded)" m
        in
        Some (Chaos.create cfg)
  in
  let options =
    {
      Vg_core.Session.default_options with
      cores;
      chaos;
      rr = Replay.Record rec_;
    }
  in
  let s = Vg_core.Session.create ~options ~tool img in
  s.echo_output <- true;
  s.kern.stdout_echo <- true;
  (match stdin_file with
  | Some f -> Kernel.set_stdin s.kern (try read_file f with Sys_error m -> die "%s" m)
  | None -> ());
  Printf.eprintf "==vgrewind== recording %s under %s (cores=%d%s)\n" prog_name
    tool.name cores
    (match chaos_seed with
    | Some n -> Printf.sprintf ", chaos %s:%d" chaos_mode n
    | None -> "");
  let reason = Vg_core.Session.run s in
  let out =
    match out with Some o -> o | None -> Filename.remove_extension prog_name ^ ".vgrw"
  in
  Replay.to_file rec_ out;
  Printf.eprintf "==vgrewind== %d events -> %s\n" (Replay.n_events rec_) out;
  match reason with
  | Vg_core.Session.Exited n -> exit (n land 0xFF)
  | Vg_core.Session.Fatal_signal sg -> exit (128 + sg)
  | Vg_core.Session.Out_of_fuel ->
      Printf.eprintf "==vgrewind== out of fuel\n";
      exit 3

(* --- building a session back from a log ------------------------------- *)

let session_of_log (file : string) : Vg_core.Session.t * Replay.log =
  let log =
    try Replay.log_of_file file with
    | Replay.Corrupt m -> die "%s: corrupt log: %s" file m
    | Sys_error m -> die "%s" m
  in
  let meta k = List.assoc_opt k log.Replay.l_meta in
  let src =
    match meta "source" with
    | Some s -> s
    | None -> die "%s: log carries no program source" file
  in
  let kind = Option.value (meta "kind") ~default:"c" in
  let img = compile_source ~kind src in
  let tool = find_tool log.Replay.l_tool in
  (Vg_core.Session.replaying ~tool img log, log)

let exit_str = function
  | Some (Vg_core.Session.Exited n) -> Printf.sprintf "exited %d" n
  | Some (Vg_core.Session.Fatal_signal sg) -> Printf.sprintf "fatal signal %d" sg
  | Some Vg_core.Session.Out_of_fuel -> "out of fuel"
  | None -> "still running"

let print_state (s : Vg_core.Session.t) =
  Printf.printf "==vgrewind== at cycle %Ld (%Ld host insns, %Ld blocks, %s)\n"
    (Vg_core.Session.wall_cycles s)
    (Vg_core.Session.host_insns s)
    s.blocks_executed (exit_str s.exit_reason);
  List.iter
    (fun (th : Vg_core.Threads.thread) ->
      let status =
        match th.status with
        | Vg_core.Threads.Runnable -> "runnable"
        | Vg_core.Threads.Blocked -> "blocked"
        | Vg_core.Threads.Exited -> "exited"
      in
      Printf.printf "==vgrewind==   thread %d (%s): eip=0x%Lx" th.tid status
        (Vg_core.Threads.get_eip s.threads th);
      for r = 0 to Guest.Arch.n_regs - 1 do
        Printf.printf " r%d=0x%Lx" r (Vg_core.Threads.get_reg s.threads th r)
      done;
      print_newline ())
    (List.sort
       (fun (a : Vg_core.Threads.thread) b -> compare a.tid b.tid)
       s.threads.threads)

let with_divergence_report f =
  try f ()
  with Replay.Divergence _ as e ->
    Printf.eprintf "==vgrewind== DIVERGED: %s\n" (Printexc.to_string e);
    exit 1

(* --- replay ----------------------------------------------------------- *)

let replay quiet file =
  let s, _ = session_of_log file in
  if not quiet then begin
    s.echo_output <- true;
    s.kern.stdout_echo <- true
  end;
  with_divergence_report (fun () ->
      let reason = Vg_core.Session.run s in
      match Vg_core.Session.replay_mismatches s with
      | [] ->
          Printf.eprintf
            "==vgrewind== replay verified: client %s, all digests match\n"
            (exit_str (Some reason));
          exit 0
      | ms ->
          List.iter
            (fun (k, want, got) ->
              Printf.eprintf
                "==vgrewind== DIGEST MISMATCH %s: recorded %s, replayed %s\n" k
                want got)
            ms;
          exit 1)

(* --- seek / back ------------------------------------------------------ *)

let seek cycle file =
  let s, _ = session_of_log file in
  with_divergence_report (fun () ->
      print_state (Vg_core.Session.seek s ~cycle);
      exit 0)

let back insns file =
  let s, _ = session_of_log file in
  with_divergence_report (fun () ->
      (* replay to the end of the recording, then re-execute afresh to
         K instructions before it *)
      Vg_core.Session.run_to s ~stop:(fun _ -> false);
      Printf.printf "==vgrewind== end of recording: %s\n"
        (exit_str s.exit_reason);
      print_state (Vg_core.Session.back s ~insns);
      exit 0)

(* --- when ------------------------------------------------------------- *)

let when_ file =
  let s, log = session_of_log file in
  let rows = ref [] in
  let add cycle msg = rows := (cycle, msg) :: !rows in
  (* chaos faults and signal deliveries come straight from the log *)
  let prev = ref (0, 0, 0, 0) in
  List.iter
    (fun ev ->
      match ev with
      | Replay.Ev_syscall se ->
          let pr, pe, ps, pm = !prev in
          let r, e, sh, m = se.Replay.se_counters in
          let name = Kernel.Num.name se.Replay.se_num in
          if r > pr then
            add se.Replay.se_cycle
              (Printf.sprintf "chaos: %s restarted (injected EINTR)" name);
          if e > pe then
            add se.Replay.se_cycle
              (Printf.sprintf "chaos: %s failed with injected errno (ret=%Ld)"
                 name se.Replay.se_ret);
          if sh > ps then
            add se.Replay.se_cycle
              (Printf.sprintf "chaos: %s returned short (ret=%Ld)" name
                 se.Replay.se_ret);
          if m > pm then
            add se.Replay.se_cycle
              (Printf.sprintf "chaos: %s mapping denied, retried" name);
          prev := (r, e, sh, m)
      | Replay.Ev_decision d -> add d.d_cycle (Replay.describe d))
    log.Replay.l_events;
  (* tool errors need the re-execution: hook the error sink and note the
     wall cycle each new error first fires at *)
  s.errors.Vg_core.Errors.show_immediately <- false;
  s.errors.Vg_core.Errors.on_record <-
    Some
      (fun (e : Vg_core.Errors.error) ->
        add (Vg_core.Session.wall_cycles s)
          (Printf.sprintf "error %s: %s" e.Vg_core.Errors.err_kind
             e.Vg_core.Errors.err_msg));
  with_divergence_report (fun () ->
      let _ = Vg_core.Session.run s in
      let rows =
        List.stable_sort (fun (a, _) (b, _) -> Int64.compare a b) (List.rev !rows)
      in
      if rows = [] then print_endline "==vgrewind== nothing fired: no errors, no faults"
      else begin
        Printf.printf "==vgrewind== %d events (cycle: what)\n" (List.length rows);
        List.iter (fun (c, m) -> Printf.printf "%12Ld  %s\n" c m) rows
      end;
      exit 0)

(* --- command line ----------------------------------------------------- *)

let log_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"LOG" ~doc:"Recording (.vgrw) to load.")

let record_cmd =
  let tool =
    Arg.(value & opt string "memcheck" & info [ "tool" ] ~doc:"Tool plug-in to record under.")
  in
  let cores =
    Arg.(value & opt int 1 & info [ "cores" ] ~docv:"N" ~doc:"Simulated cores.")
  in
  let chaos_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:"Record under a chaos fault schedule with this seed; the injected faults land in the log and replay exactly.")
  in
  let chaos_mode =
    Arg.(
      value & opt string "hostile"
      & info [ "chaos-mode" ] ~doc:"Chaos schedule: idempotent|hostile|sharded.")
  in
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Record a named corpus workload instead of a source file.")
  in
  let scale =
    Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Workload scale factor.")
  in
  let stdin_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "stdin" ] ~doc:"File fed to the client as standard input.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Log file to write (default: PROGRAM.vgrw).")
  in
  let path = Arg.(value & pos 0 (some string) None & info [] ~docv:"PROGRAM") in
  Cmd.v
    (Cmd.info "record" ~doc:"run a program and record a replay log")
    Term.(
      const record $ tool $ cores $ chaos_seed $ chaos_mode $ workload $ scale
      $ stdin_file $ out $ path)

let replay_cmd =
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress client and tool output.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"re-execute a recording and verify it is bit-identical")
    Term.(const replay $ quiet $ log_arg)

let seek_cmd =
  let cycle =
    Arg.(
      required
      & opt (some int64) None
      & info [ "cycle" ] ~docv:"N" ~doc:"Wall cycle to travel to.")
  in
  Cmd.v
    (Cmd.info "seek" ~doc:"time-travel a recording to a wall cycle and show thread state")
    Term.(const seek $ cycle $ log_arg)

let back_cmd =
  let insns =
    Arg.(
      value & opt int64 1L
      & info [ "insns" ] ~docv:"K" ~doc:"Host instructions to step backwards from the end.")
  in
  Cmd.v
    (Cmd.info "back"
       ~doc:"replay to the end, then step backwards K instructions")
    Term.(const back $ insns $ log_arg)

let when_cmd =
  Cmd.v
    (Cmd.info "when"
       ~doc:"list the cycles at which tool errors and chaos faults fired")
    Term.(const when_ $ log_arg)

let cmd =
  Cmd.group
    (Cmd.info "vgrewind"
       ~doc:"record/replay and time-travel debugging for VG32 programs")
    [ record_cmd; replay_cmd; seek_cmd; back_cmd; when_cmd ]

let () = exit (Cmd.eval cmd)
