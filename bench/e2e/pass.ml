(** One pass of a workload, run in the current process: every client of
    the workload, one session after another, exactly as a user would run
    them.  A pass is untraced (end-to-end timings only) or traced (the
    same sessions, driven step by step through {!Tracer}, yielding the
    per-layer numbers).  The parent checks the results against the
    native reference; this module only reports what happened. *)

module S = Vg_core.Session

let now_ns = Tracer.now_ns
let hex (s : string) = Digest.to_hex (Digest.string s)

(** Build a client image, timing the two steps: mini-C to assembly and
    assembly to image.  Returns [(image, minicc_ns, asm_ns)]. *)
let build (c : Workload.client) : Guest.Image.t * int * int =
  match c.c_source with
  | C src ->
      let t0 = now_ns () in
      let asm = Minicc.Driver.to_asm src in
      let t1 = now_ns () in
      let img = Guest.Asm.assemble asm in
      (img, t1 - t0, now_ns () - t1)
  | Asm src ->
      let t0 = now_ns () in
      let img = Guest.Asm.assemble src in
      (img, 0, now_ns () - t0)

(* -- the native reference ---------------------------------------------- *)

type reference = {
  r_exit : string;
  r_stdout : string;  (** digest *)
  r_insns : float;  (** guest instructions retired *)
  r_cycles : float;  (** native cycles, the slow-down denominator *)
}

let reference (c : Workload.client) : reference =
  let img, _, _ = build c in
  let eng = Native.create img in
  let r_exit =
    match Native.run eng with
    | Native.Exited n -> Printf.sprintf "exit:%d" n
    | Native.Fatal_signal n -> Printf.sprintf "signal:%d" n
    | Native.Out_of_fuel -> "fuel"
  in
  {
    r_exit;
    r_stdout = hex (Native.stdout_contents eng);
    r_insns = Int64.to_float (Native.total_insns eng);
    r_cycles = Int64.to_float (Native.total_cycles eng);
  }

(* -- sessions ---------------------------------------------------------- *)

type session = {
  name : string;
  error : string option;  (** an exception escaped the session *)
  exit : string;
  stdout : string;  (** digest of the client's stdout *)
  stats : string;  (** digest of [Session.stats_json] *)
  total_cycles : float;
  ledger_ok : bool;  (** host + overhead + jit + smc = st_total_cycles *)
  wall_ns : int;  (** Session.create to the end of the tool's fini *)
  setup_ns : int;  (** client build + Session.create + ensure_started *)
  scale : float;  (** {!Calib.factor} over the session (1 when traced) *)
}

let exit_string = function
  | S.Exited n -> Printf.sprintf "exit:%d" n
  | S.Fatal_signal n -> Printf.sprintf "signal:%d" n
  | S.Out_of_fuel -> "fuel"

let finished ~name ~s ~exit ~wall_ns ~setup_ns : session =
  let st = S.stats s in
  let sum = List.fold_left Int64.add 0L [ st.st_host_cycles; st.st_overhead_cycles; st.st_jit_cycles; st.st_smc_cycles ] in
  {
    name;
    error = None;
    exit;
    stdout = hex (S.client_stdout s);
    stats = hex (S.stats_json s);
    total_cycles = Int64.to_float st.st_total_cycles;
    ledger_ok = sum = st.st_total_cycles;
    wall_ns;
    setup_ns;
    scale = 1.;
  }

let failed ~name (e : exn) : session =
  {
    name;
    error = Some (Printexc.to_string e);
    exit = "";
    stdout = "";
    stats = "";
    total_cycles = 0.;
    ledger_ok = false;
    wall_ns = 0;
    setup_ns = 0;
    scale = 1.;
  }

(* wall time without the calibration samples taken inside it *)
let net_ns () = now_ns () - !Calib.spent

let run_untraced (tool : Vg_core.Tool.t) (c : Workload.client) : session =
  match
    let t0 = net_ns () in
    let img, _, _ = build c in
    let t1 = net_ns () in
    let s = S.create ~tool img in
    S.ensure_started s;
    let t2 = net_ns () in
    let reason = S.run s in
    let t3 = net_ns () in
    (s, reason, t3 - t1, t2 - t0)
  with
  | s, reason, wall_ns, setup_ns -> finished ~name:c.c_name ~s ~exit:(exit_string reason) ~wall_ns ~setup_ns
  | exception e -> failed ~name:c.c_name e

(* The traced session drives [Session.step] itself (what [Session.run]
   does, minus its crash-context rendering), with a clock read around
   each step. *)
let run_traced (tr : Tracer.t) ~id (tool : Vg_core.Tool.t) (c : Workload.client) :
    session * S.stats option =
  let timed (a : Tracer.acc) name f =
    let t0 = now_ns () in
    let r = f () in
    let t1 = now_ns () in
    Tracer.add a (t1 - t0);
    Tracer.span tr ~name ~cat:"setup" ~session:id ~t0 ~t1;
    r
  in
  match
    let t0 = now_ns () in
    let img, cc_ns, asm_ns = build c in
    if cc_ns > 0 then Tracer.add tr.minicc cc_ns;
    Tracer.add tr.asm asm_ns;
    Tracer.span tr ~name:"build" ~cat:"setup" ~session:id ~t0 ~t1:(now_ns ());
    let t1 = now_ns () in
    let s = timed tr.create "create" (fun () -> S.create ~tool:(Tracer.wrap_tool tr tool) img) in
    timed tr.start "start" (fun () -> S.ensure_started s);
    let t2 = now_ns () in
    let exec0 = (tr.exec.calls, tr.exec.ns) in
    let more = ref true in
    let g0 = Gc.quick_stat () in
    while !more do
      let made = s.translations_made and tool0 = tr.tool_ns and mw0 = Gc.minor_words () in
      let a = now_ns () in
      more := S.step s;
      let b = now_ns () in
      if s.translations_made <> made then begin
        Tracer.add tr.translate (b - a);
        Tracer.span tr ~name:"translate" ~cat:"jit" ~session:id ~t0:a ~t1:b
      end
      else begin
        Tracer.add tr.exec (b - a - (tr.tool_ns - tool0));
        tr.exec_minor_words <- tr.exec_minor_words + int_of_float (Gc.minor_words () -. mw0)
      end
    done;
    let g1 = Gc.quick_stat () in
    tr.loop_promoted_words <-
      tr.loop_promoted_words + int_of_float (g1.promoted_words -. g0.promoted_words);
    tr.loop_major_collections <-
      tr.loop_major_collections + (g1.major_collections - g0.major_collections);
    let reason = Option.value s.exit_reason ~default:(S.Exited 0) in
    let exit_code = match reason with S.Exited n -> n | _ -> 1 in
    let f0 = now_ns () in
    Option.iter (fun (i : Vg_core.Tool.instance) -> i.fini ~exit_code) s.instance;
    let t3 = now_ns () in
    Tracer.span tr ~name:"fini" ~cat:"tool" ~session:id ~t0:f0 ~t1:t3;
    let args =
      [ ("exec_steps", float_of_int (tr.exec.calls - fst exec0));
        ("exec_ms", float_of_int (tr.exec.ns - snd exec0) /. 1e6) ]
    in
    Tracer.span tr ~args ~name:c.c_name ~cat:"session" ~session:id ~t0 ~t1:t3;
    (s, reason, t3 - t1, t2 - t0)
  with
  | s, reason, wall_ns, setup_ns ->
      let r = finished ~name:c.c_name ~s ~exit:(exit_string reason) ~wall_ns ~setup_ns in
      tr.sched_iters <- tr.sched_iters + Int64.to_int s.sched_iters;
      Tracer.replay_jit tr s;
      (r, Some (S.stats s))
  | exception e -> (failed ~name:c.c_name e, None)

(* -- a pass ------------------------------------------------------------ *)

type t = {
  workload : string;
  traced : bool;
  pass_wall_ns : int;
  peak_heap_words : int;  (** Gc top_heap_words at the end of the pass *)
  sessions : session list;
  layers : (string * float) list;  (** per-layer metrics, traced passes only *)
}

let words_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* Per-layer metrics of a traced pass, except those that need the
   untraced passes too (the parent adds [trace.overhead_pct]). *)
let layer_metrics (tr : Tracer.t) ~(stats : S.stats list) ~live_words ~guest_insns : (string * float) list =
  let f = float_of_int in
  let ms ns = f ns /. 1e6 in
  let per a b = if b = 0. then 0. else a /. b in
  let sum g = List.fold_left (fun acc st -> acc +. Int64.to_float (g st)) 0. stats in
  let sumi g = List.fold_left (fun acc st -> acc +. f (g st)) 0. stats in
  let steps = f tr.exec.calls in
  let n_jit = f tr.jit.calls in
  let us_per ns = per (f ns /. 1e3) n_jit in
  let dispatch_entries = sum (fun st -> st.S.st_dispatch_entries) in
  let chained = sum (fun st -> st.S.st_chained) in
  [
    ("core.exec_ms", ms tr.exec.ns);
    ("core.exec_ns_per_block", per (f tr.exec.ns) steps);
    ("core.steps", f (tr.exec.calls + tr.translate.calls));
    ("gc.minor_words_per_block", per (f tr.exec_minor_words) steps);
    (* promotion is not attributable to single steps: over all of them *)
    ("gc.promoted_words_per_block",
      per (f tr.loop_promoted_words) (f (tr.exec.calls + tr.translate.calls)));
    ("gc.major_collections", f tr.loop_major_collections);
    ("tools.helper_calls", f tr.helper.calls);
    ("tools.helper_ms", ms tr.helper.ns);
    ("tools.helper_calls_per_guest_insn", per (f tr.helper.calls) guest_insns);
    ("tools.event_calls", f tr.event.calls);
    ("tools.event_ms", ms tr.event.ns);
    ("tools.fini_ms", ms tr.fini.ns);
    ("tools.replace_calls", f tr.replace.calls);
    ("tools.replace_ms", ms tr.replace.ns);
    ("tools.instrument_ms", ms tr.instrument.ns);
    ("tools.total_ms", ms tr.tool_ns);
    ("core.translate_step_ms", ms tr.translate.ns);
  ]
  @ List.mapi
      (fun i name -> (Printf.sprintf "jit.p%d_%s_us" (i + 1) name, us_per tr.jit_phase.(i)))
      (Array.to_list Tracer.phase_names)
  @ [
      ("jit.finish_us", us_per tr.jit_finish);
      ("jit.us_per_translation", us_per tr.jit.ns);
      ("jit.replayed", n_jit);
      ("jit.replay_failed", f tr.jit_failed);
      ("verify.us_per_translation", us_per tr.jit_verify);
      ("verify.share_pm", per (1000. *. f tr.jit_verify) (f tr.jit.ns));
      ("minicc.compile_ms", ms tr.minicc.ns);
      ("guest.asm_ms", ms tr.asm.ns);
      ("client.build_ms", ms (tr.minicc.ns + tr.asm.ns));
      ("core.create_ms", ms tr.create.ns);
      ("core.start_ms", ms tr.start.ns);
      ("gc.live_mb_after_pass", words_mb live_words);
      ("sim.host_cycles", sum (fun st -> st.S.st_host_cycles));
      ("sim.overhead_cycles", sum (fun st -> st.S.st_overhead_cycles));
      ("sim.jit_cycles", sum (fun st -> st.S.st_jit_cycles));
      ("sim.smc_cycles", sum (fun st -> st.S.st_smc_cycles));
      ("sim.host_insns", sum (fun st -> st.S.st_host_insns));
      ("sim.blocks", sum (fun st -> st.S.st_blocks));
      ("sim.translations", sumi (fun st -> st.S.st_translations));
      ("sim.translations_tier0", sumi (fun st -> st.S.st_translations_tier0));
      ("sim.translations_full", sumi (fun st -> st.S.st_translations_full));
      ("sim.translations_super", sumi (fun st -> st.S.st_translations_super));
      ("sim.promotions", sumi (fun st -> st.S.st_promotions));
      ("sim.dispatch_entries", dispatch_entries);
      ("sim.dispatch_hit_pm", per (1000. *. sum (fun st -> st.S.st_dispatch_hits)) dispatch_entries);
      ("sim.chained_pm", per (1000. *. chained) (chained +. dispatch_entries));
      ("sim.transtab_evictions", sumi (fun st -> st.S.st_transtab_evictions));
      ("sim.sched_iters", f tr.sched_iters);
      ("sim.lock_handoffs", sum (fun st -> st.S.st_lock_handoffs));
    ]

(** Run one pass of [w].  A traced pass also writes its spans to
    [trace_out] and needs the clients' guest instruction counts
    ([guest_insns], from the native reference) for the per-instruction
    ratios. *)
let run ?trace_out ?(guest_insns = 0.) ~traced ~seed ~small (w : Workload.t) : t =
  let clients = w.clients ~seed ~small in
  let t0 = net_ns () in
  let tr = Tracer.create () in
  let results =
    if traced then List.mapi (fun id c -> run_traced tr ~id w.tool c) clients
    else
      Calib.sampling (fun () ->
          List.map
            (fun c ->
              let a = now_ns () in
              let r = run_untraced w.tool c in
              (r, a, now_ns ()))
            clients)
      |> List.map (fun (r, t0, t1) -> ({ r with scale = Calib.factor ~t0 ~t1 }, None))
  in
  let pass_wall_ns = net_ns () - t0 - tr.replay_ns in
  let gc1 = Gc.quick_stat () in
  Gc.full_major ();
  let live_words = (Gc.quick_stat ()).heap_words in
  let layers =
    if traced then
      layer_metrics tr ~stats:(List.filter_map snd results) ~live_words ~guest_insns
    else []
  in
  Option.iter (fun path -> Json.write_file path (Tracer.chrome_json tr)) trace_out;
  {
    workload = w.name;
    traced;
    pass_wall_ns;
    peak_heap_words = gc1.top_heap_words;
    sessions = List.map fst results;
    layers;
  }
