(** The [vgrewind] driver: replay and time-travel debugging of a log
    that [valgrind --record] wrote.

    {v
    valgrind --tool=memcheck --record prog.vgrw prog.c
    valgrind --tool=drd --cores=2 --chaos-seed=3 --record t.vgrw prog.s
    vgrewind replay prog.vgrw            # re-run, verify trailer digests
    vgrewind seek prog.vgrw --cycle N    # time-travel to a wall cycle
    vgrewind back prog.vgrw --insns K    # step backwards K instructions
    vgrewind when prog.vgrw              # when did errors / faults fire?
    v}

    A log is self-contained: the guest program source travels in the
    header metadata, so replaying needs only the [.vgrw] file. *)

open Cmdliner

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("vgrewind: " ^ m); exit 2) fmt

(* --- building a session back from a log ------------------------------- *)

(* The one log -> session path: the program and the tool come from the
   log, and [Session.replaying] restores the recorded options. *)
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
  let img =
    try
      if meta "kind" = Some "asm" then Guest.Asm.assemble src
      else Minicc.Driver.compile src
    with
    | Minicc.Driver.Compile_error m -> die "compile error: %s" m
    | Guest.Asm.Error { line; msg } ->
        die "assembly error at line %d: %s" line msg
  in
  let tool =
    try Tools.Catalog.find log.Replay.l_tool
    with Invalid_argument m -> die "%s" m
  in
  match Vg_core.Session.replaying ~tool img log with
  | s -> (s, log)
  | exception Replay.Corrupt m -> die "%s: corrupt log: %s" file m

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

let replay quiet stats file =
  let s, _ = session_of_log file in
  if not quiet then begin
    s.echo_output <- true;
    s.kern.stdout_echo <- true
  end;
  with_divergence_report (fun () ->
      let reason = Vg_core.Session.run s in
      (* the replayed registry reads as the recorded run's, plus the
         replay.* keys; like valgrind's, it starts at column 0 *)
      if stats <> None then begin
        let out = Kernel.stdout_contents s.kern in
        if (not quiet) && out <> "" && out.[String.length out - 1] <> '\n' then
          print_newline ();
        print_string (Vg_core.Session.stats_json s)
      end;
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

let replay_cmd =
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress client and tool output.")
  in
  let stats =
    Arg.(
      value
      & opt (some (enum [ ("json", ()) ])) None
      & info [ "stats" ] ~docv:"json"
          ~doc:
            "Print the replayed session's metrics registry at exit, as one \
             flat JSON object on stdout ($(b,json) is the only format).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"re-execute a recording and verify it is bit-identical")
    Term.(const replay $ quiet $ stats $ log_arg)

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
       ~doc:"replay and time-travel debugging of valgrind recordings")
    [ replay_cmd; seek_cmd; back_cmd; when_cmd ]

let () = exit (Cmd.eval cmd)
