(** Host-time tracing for the traced pass, from outside the simulator.

    Everything here wraps calls into public functions: the tool's
    capabilities and instance (helpers, event callbacks, replacement
    functions, [instrument], [fini]) and the JIT's phase-boundary check
    hooks.  Nothing inside [lib/] is changed.  Counters are plain
    mutable ints and the wrappers allocate nothing, so the traced pass
    perturbs the per-block allocation figures as little as possible.

    Spans (one per session, per set-up call, per translating step and
    per [fini]) are kept in memory and written once, as Chrome
    trace-event JSON, when the pass ends.  Execution steps are only
    aggregated into counts and sums. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type acc = { mutable calls : int; mutable ns : int }

let acc () = { calls = 0; ns = 0 }

type span = {
  sp_name : string;
  sp_cat : string;
  sp_session : int;  (** the request id: index of the session in its pass *)
  sp_ts : int;
  sp_dur : int;
  sp_args : (string * float) list;
}

(* phase names as the per-layer metric names spell them *)
let phase_names =
  [| "disasm"; "opt1"; "instrument"; "opt2"; "treebuild"; "isel"; "regalloc"; "assemble" |]

type t = {
  helper : acc;
  event : acc;
  replace : acc;  (** replacement and wrapped functions *)
  instrument : acc;
  fini : acc;
  mutable depth : int;  (** nesting of tool callbacks *)
  mutable tool_ns : int;  (** outermost tool callback time only *)
  exec : acc;  (** steps that made no translation, net of tool callbacks *)
  mutable exec_minor_words : int;
  mutable loop_promoted_words : int;  (** over the step loops *)
  mutable loop_major_collections : int;
  translate : acc;  (** steps that translated or promoted *)
  minicc : acc;
  asm : acc;
  create : acc;
  start : acc;
  jit_phase : int array;  (** replayed translations, per phase *)
  mutable jit_finish : int;  (** after phase 8: decode, chain slots, cost model *)
  mutable jit_verify : int;  (** the verifier's share of the replay *)
  jit : acc;  (** replayed translations and their total time *)
  mutable jit_failed : int;
  mutable replay_ns : int;  (** wall time of the replays, kept out of the pass time *)
  mutable sched_iters : int;  (** scheduler-loop iterations, summed over sessions *)
  mutable spans : span list;
  origin : int;
}

let create () : t =
  {
    helper = acc ();
    event = acc ();
    replace = acc ();
    instrument = acc ();
    fini = acc ();
    depth = 0;
    tool_ns = 0;
    exec = acc ();
    exec_minor_words = 0;
    loop_promoted_words = 0;
    loop_major_collections = 0;
    translate = acc ();
    minicc = acc ();
    asm = acc ();
    create = acc ();
    start = acc ();
    jit_phase = Array.make (Array.length phase_names) 0;
    jit_finish = 0;
    jit_verify = 0;
    jit = acc ();
    jit_failed = 0;
    replay_ns = 0;
    sched_iters = 0;
    spans = [];
    origin = now_ns ();
  }

let add (a : acc) (dt : int) =
  a.calls <- a.calls + 1;
  a.ns <- a.ns + dt

let span ?(args = []) tr ~name ~cat ~session ~t0 ~t1 =
  tr.spans <-
    { sp_name = name; sp_cat = cat; sp_session = session; sp_ts = t0; sp_dur = t1 - t0; sp_args = args }
    :: tr.spans

(* -- tool callbacks ---------------------------------------------------- *)

let enter tr =
  tr.depth <- tr.depth + 1;
  now_ns ()

let leave tr (a : acc) t0 =
  let dt = now_ns () - t0 in
  tr.depth <- tr.depth - 1;
  add a dt;
  if tr.depth = 0 then tr.tool_ns <- tr.tool_ns + dt

let timed tr a (f : unit -> 'r) : 'r =
  let t0 = enter tr in
  match f () with
  | r ->
      leave tr a t0;
      r
  | exception e ->
      leave tr a t0;
      raise e

(* The per-call wrappers below are spelled out per callback shape so that
   a wrapped call allocates no closure. *)

let wrap_helper tr (f : int64 array -> int64) : int64 array -> int64 =
 fun args ->
  let t0 = enter tr in
  match f args with
  | r ->
      leave tr tr.helper t0;
      r
  | exception e ->
      leave tr tr.helper t0;
      raise e

let ev_sys_off tr f ~syscall ~off ~size =
  let t0 = enter tr in
  match f ~syscall ~off ~size with
  | () -> leave tr tr.event t0
  | exception e ->
      leave tr tr.event t0;
      raise e

let ev_sys_range tr f ~syscall ~addr ~len =
  let t0 = enter tr in
  match f ~syscall ~addr ~len with
  | () -> leave tr tr.event t0
  | exception e ->
      leave tr tr.event t0;
      raise e

let ev_sys_addr tr f ~syscall ~addr =
  let t0 = enter tr in
  match f ~syscall ~addr with
  | () -> leave tr tr.event t0
  | exception e ->
      leave tr tr.event t0;
      raise e

let ev_range tr f ~addr ~len =
  let t0 = enter tr in
  match f ~addr ~len with
  | () -> leave tr tr.event t0
  | exception e ->
      leave tr tr.event t0;
      raise e

let ev_startup tr f ~addr ~len ~defined ~what =
  let t0 = enter tr in
  match f ~addr ~len ~defined ~what with
  | () -> leave tr tr.event t0
  | exception e ->
      leave tr tr.event t0;
      raise e

let ev_mremap tr f ~src ~dst ~len =
  let t0 = enter tr in
  match f ~src ~dst ~len with
  | () -> leave tr tr.event t0
  | exception e ->
      leave tr tr.event t0;
      raise e

let wrap_events tr (e : Vg_core.Events.t) =
  let w g = Option.map g in
  e.pre_reg_read <- w (ev_sys_off tr) e.pre_reg_read;
  e.post_reg_write <- w (ev_sys_off tr) e.post_reg_write;
  e.pre_mem_read <- w (ev_sys_range tr) e.pre_mem_read;
  e.pre_mem_read_asciiz <- w (ev_sys_addr tr) e.pre_mem_read_asciiz;
  e.pre_mem_write <- w (ev_sys_range tr) e.pre_mem_write;
  e.post_mem_write <- w (ev_range tr) e.post_mem_write;
  e.new_mem_startup <- w (ev_startup tr) e.new_mem_startup;
  e.new_mem_mmap <- w (ev_range tr) e.new_mem_mmap;
  e.die_mem_munmap <- w (ev_range tr) e.die_mem_munmap;
  e.new_mem_brk <- w (ev_range tr) e.new_mem_brk;
  e.die_mem_brk <- w (ev_range tr) e.die_mem_brk;
  e.copy_mem_mremap <- w (ev_mremap tr) e.copy_mem_mremap;
  e.new_mem_stack <- w (ev_range tr) e.new_mem_stack;
  e.die_mem_stack <- w (ev_range tr) e.die_mem_stack

(** [tool] with every callback it hands the core timed into [tr]. *)
let wrap_tool tr (tool : Vg_core.Tool.t) : Vg_core.Tool.t =
  let create (caps : Vg_core.Tool.caps) =
    let caps =
      {
        caps with
        register_helper =
          (fun ?fx_reads ~name ~cost ~nargs f ->
            caps.register_helper ?fx_reads ~name ~cost ~nargs (wrap_helper tr f));
        replace_function =
          (fun ~symbol ~handler ->
            caps.replace_function ~symbol ~handler:(fun () -> timed tr tr.replace handler));
        wrap_function =
          (fun ~symbol ~on_enter ~on_exit ->
            caps.wrap_function ~symbol
              ~on_enter:(fun () -> timed tr tr.replace on_enter)
              ~on_exit:(fun () -> timed tr tr.replace on_exit));
      }
    in
    let inst = tool.create caps in
    wrap_events tr caps.events;
    {
      inst with
      instrument = (fun b -> timed tr tr.instrument (fun () -> inst.instrument b));
      fini = (fun ~exit_code -> timed tr tr.fini (fun () -> inst.fini ~exit_code));
    }
  in
  { tool with create }

(* -- JIT phases -------------------------------------------------------- *)

(** Timing hooks composed around [verify]: the time between two
    boundaries is the phase that ran between them, the time inside a
    boundary is the verifier's.  Returns the hooks and a [finish]
    callback to run when the translation returns. *)
let timing_checks tr (verify : Jit.Pipeline.checks) : Jit.Pipeline.checks * (unit -> unit) =
  let last = ref (now_ns ()) in
  let at k (check : unit -> unit) =
    let t0 = now_ns () in
    tr.jit_phase.(k) <- tr.jit_phase.(k) + (t0 - !last);
    check ();
    let t1 = now_ns () in
    tr.jit_verify <- tr.jit_verify + (t1 - t0);
    last := t1
  in
  let start = !last in
  ( {
      ck_tree = (fun b -> at 0 (fun () -> verify.ck_tree b));
      ck_flat = (fun b -> at 1 (fun () -> verify.ck_flat b));
      ck_instrumented = (fun ~pre ~post -> at 2 (fun () -> verify.ck_instrumented ~pre ~post));
      ck_opt2 = (fun ~pre ~post -> at 3 (fun () -> verify.ck_opt2 ~pre ~post));
      ck_treebuilt = (fun ~pre ~post -> at 4 (fun () -> verify.ck_treebuilt ~pre ~post));
      ck_vcode =
        (fun v ~n_int ~n_vec ~n_label ->
          at 5 (fun () -> verify.ck_vcode v ~n_int ~n_vec ~n_label));
      ck_hcode = (fun h -> at 6 (fun () -> verify.ck_hcode h));
      ck_bytes = (fun ~hcode ~bytes -> at 7 (fun () -> verify.ck_bytes ~hcode ~bytes));
    },
    fun () ->
      let t = now_ns () in
      tr.jit_finish <- tr.jit_finish + (t - !last);
      add tr.jit (t - start) )

(** After a session has run: re-translate every resident translation at
    its own tier with timing hooks, so JIT time splits by phase and the
    verifier's share is measured.  Tool-callback counters are left as
    the session itself produced them. *)
let replay_jit tr (s : Vg_core.Session.t) =
  let t0 = now_ns () in
  let saved = (tr.instrument.calls, tr.instrument.ns, tr.tool_ns) in
  let fetch addr = Aspace.fetch_u8 s.mem addr in
  let instrument = Vg_core.Session.instrument_fn s in
  let unroll = s.opts.unroll_loops in
  List.iter
    (fun (e : Vg_core.Transtab.entry) ->
      let verify = Verify.pipeline_checks ~shadow:s.tool.shadow_ranges () in
      let checks, finish = timing_checks tr verify in
      match
        match e.e_trans.t_tier with
        | Jit.Pipeline.Tier_super ->
            ignore
              (Jit.Pipeline.translate_trace ~unroll ~checks ~fetch ~instrument
                 e.e_trans.t_constituents)
        | tier ->
            ignore
              (Jit.Pipeline.translate ~unroll ~checks ~tier ~fetch ~instrument
                 (Vg_core.Redirect.resolve s.redirect e.e_key))
      with
      | () -> finish ()
      | exception _ -> tr.jit_failed <- tr.jit_failed + 1)
    (Vg_core.Transtab.all_entries s.transtab);
  let calls, ns, tool_ns = saved in
  tr.instrument.calls <- calls;
  tr.instrument.ns <- ns;
  tr.tool_ns <- tool_ns;
  tr.replay_ns <- tr.replay_ns + (now_ns () - t0)

(* -- export ------------------------------------------------------------ *)

(** The spans as Chrome trace-event JSON (timestamps in microseconds
    from the start of the pass). *)
let chrome_json tr : Json.t =
  let us ns = Json.Num (float_of_int ns /. 1e3) in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (List.rev_map
             (fun sp ->
               Json.Obj
                 [
                   ("name", Json.Str sp.sp_name);
                   ("cat", Json.Str sp.sp_cat);
                   ("ph", Json.Str "X");
                   ("ts", us (sp.sp_ts - tr.origin));
                   ("dur", us sp.sp_dur);
                   ("pid", Json.Num 1.);
                   ("tid", Json.Num 1.);
                   ( "args",
                     Json.Obj
                       (("session", Json.Num (float_of_int sp.sp_session))
                       :: List.map (fun (k, v) -> (k, Json.Num v)) sp.sp_args) );
                 ])
             tr.spans) );
      ("displayTimeUnit", Json.Str "ms");
    ]
