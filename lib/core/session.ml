(** A Valgrind session: core + tool plug-in + client, all in one
    (simulated) process.

    This module is the core's scheduler and start-up sequence (§3.2,
    §3.3, §3.9): it initialises the address-space manager, loads the
    client, initialises the tool, and then spends its life making,
    finding and running translations — none of the client's original
    code is ever run.  It also owns signal interception and
    between-blocks delivery (§3.15), self-modifying-code checks (§3.16),
    client requests (§3.11) and function redirection (§3.13).

    Thread scheduling replaces the paper's §3.14 big lock with N
    deterministic simulated cores ({!Engine}): threads are pinned to
    cores, each core owns its fast-lookup cache, cycle clocks and
    chaining state, and the scheduler always steps the core with the
    lowest clock (ties to the lowest id).  Because the interleave is a
    pure function of cycle counts — never wall time — execution is
    bit-identical for a given [--cores N], and a single-threaded client
    only ever touches core 0, making its output identical for {e any}
    N.  Translation retirement is epoch-based (see {!Transtab}): cores
    notice dead translations lazily, and the retire list is freed at
    scheduler epoch boundaries. *)

module GA = Guest.Arch
module HA = Host.Arch
module Regions = Map.Make (Int64)

type smc_mode = Smc_none | Smc_stack | Smc_all

type options = {
  cores : int;
      (** simulated cores (default 1).  Threads are pinned to core
          [(tid - 1) mod cores]; the scheduler interleaves cores on
          cycle counts, so any value replays bit-identically and a
          single-threaded client behaves identically for every value. *)
  chaining : bool;
      (** direct translation chaining (on by default): patch a
          translation's constant-target exit sites to transfer straight
          to the successor translation, bypassing the dispatcher.  The
          paper's Valgrind deliberately does not chain (§3.9); pass
          [--no-chaining] / [chaining = false] to reproduce its baseline
          dispatcher behaviour. *)
  smc_mode : smc_mode;  (** default [Smc_stack], like Valgrind *)
  timeslice_blocks : int;  (** thread-switch period (paper: 100,000) *)
  transtab_capacity : int;
  dispatch_fast_cost : int;
  unroll_loops : bool;  (** phase-2 self-loop unrolling (VEX default: on) *)
  max_blocks : int64;  (** fuel: abort runaway clients (0 = unlimited) *)
  verify_jit : bool;
      (** run the Vglint phase-boundary verifiers on every translation
          (IR well-formedness, effect-skeleton preservation, vreg and
          host-register dataflow, assemble/decode round-trip, and the
          tool-instrumentation lints against the tool's declared
          [shadow_ranges]).  On by default; a verification failure
          raises {!Verify.Verr.Error}. *)
  chaos : Chaos.t option;
      (** seeded deterministic fault injection (default [None]): the
          session experiences transient syscall errors, mapping denials,
          forced translation failures and cache flushes drawn from the
          [Chaos.t]'s RNG stream.  See {!Chaos}. *)
  interp_fallback : bool;
      (** graceful degradation (on by default): a block whose
          translation fails ([Jit.Pipeline.Translation_failure], which
          phase 6/7 failures are wrapped into) executes one-shot via the
          IR evaluator — instrumentation included — instead of killing
          the session; later blocks re-enter the JIT as usual.  Off:
          translation failures propagate to the caller. *)
  profile : bool;
      (** build the guest-execution profile (flat + caller/callee, a
          mini-Callgrind) from exact block counters; read it back with
          {!profile_report}.  Off by default: profiling costs a symbol
          lookup per block. *)
  trace_capacity : int;
      (** size of the structured-event trace ring (translations, chain
          patch/unlink, evictions, chaos faults, signals, degradations).
          0 (the default) disables tracing.  Export with {!trace} +
          {!Obs.Trace.to_jsonl}/{!Obs.Trace.to_chrome}. *)
  tier0 : bool;
      (** tiered JIT (on by default): translate cold blocks with the
          cheap tier-0 quick pipeline (shared front end, identity
          phases 4/5, template back end) and promote them to the full
          optimizing pipeline when they turn hot.  Off: every block pays
          the full pipeline up front (the pre-tiering behaviour). *)
  promote_threshold : int;
      (** executions after which a tier-0 translation is retranslated
          with the optimizing pipeline (0 = never promote) *)
  superblocks : bool;
      (** trace superblock formation (on by default): when a chained
          exit stays hot, stitch the blocks along the hot path into one
          superblock translation so the optimiser and the tool see
          across block boundaries *)
  trace_threshold : int;
      (** chained transfers through one exit site before the path it
          starts is stitched into a superblock (0 = never) *)
  trace_max_blocks : int;  (** max constituent blocks per superblock *)
  scan : bool;
      (** static whole-image analysis (Vgscan) before start-up: recover
          the guest CFG and keep it for the soundness oracle — every
          dynamically executed block start is checked against the
          statically discovered instruction set, with misses counted
          under [static.cfg_miss].  Off by default. *)
  aot_seed : bool;
      (** ahead-of-time translation seeding (implies the scan): every
          statically discovered basic block is pre-translated through
          the cold tier before the client runs, so start-up JIT cost is
          paid up front and counted separately ([jit.aot.*]).  Off by
          default. *)
  rr : Replay.rr;
      (** record/replay binding (Vgrewind; default [No_rr]).  [Record r]
          feeds every non-derivable input — syscall results and side
          effects, async signal deliveries, chaos scheduling decisions —
          into [r], at zero simulated cycles.  [Replay p] drives the
          session from [p]'s log instead of the kernel and the chaos
          RNG; a replaying session must be created with the log's core
          count and with [chaos = None], as {!replaying} does. *)
}

let default_options =
  {
    cores = 1;
    chaining = true;
    smc_mode = Smc_stack;
    timeslice_blocks = 100_000;
    transtab_capacity = 32768;
    dispatch_fast_cost = Dispatch.default_fast_cost;
    unroll_loops = true;
    max_blocks = 0L;
    verify_jit = true;
    chaos = None;
    interp_fallback = true;
    profile = false;
    trace_capacity = 0;
    tier0 = true;
    promote_threshold = 256;
    superblocks = true;
    trace_threshold = 16384;
    trace_max_blocks = 3;
    scan = false;
    aot_seed = false;
    rr = Replay.No_rr;
  }

(* The translation configuration shapes the cycle counts, so a replay
   must run under the recording's exact flags: a recording front end
   stashes them in the log's "options" meta, and {!replaying} restores
   them from there. *)
let encode_options (o : options) : string =
  Printf.sprintf
    "chaining=%b verify=%b smc=%s tier0=%b promote=%d super=%b scan=%b aot=%b"
    o.chaining o.verify_jit
    (match o.smc_mode with
    | Smc_none -> "none"
    | Smc_all -> "all"
    | Smc_stack -> "stack")
    o.tier0 o.promote_threshold o.superblocks o.scan o.aot_seed

let decode_options (s : string) (o : options) : options =
  List.fold_left
    (fun o kv ->
      match String.split_on_char '=' kv with
      | [ k; v ] -> (
          let b = v = "true" in
          match k with
          | "chaining" -> { o with chaining = b }
          | "verify" -> { o with verify_jit = b }
          | "smc" ->
              let smc_mode =
                match v with
                | "none" -> Smc_none
                | "all" -> Smc_all
                | _ -> Smc_stack
              in
              { o with smc_mode }
          | "tier0" -> { o with tier0 = b }
          | "promote" -> { o with promote_threshold = int_of_string v }
          | "super" -> { o with superblocks = b }
          | "scan" -> { o with scan = b }
          | "aot" -> { o with aot_seed = b }
          | _ -> o)
      | _ -> o)
    o
    (String.split_on_char ' ' s)

type exit_reason =
  | Exited of int
  | Fatal_signal of int
  | Out_of_fuel

type t = {
  opts : options;
  mem : Aspace.t;
  kern : Kernel.t;
  events : Events.t;
  errors : Errors.t;
  threads : Threads.t;
  transtab : Transtab.t;
  cores : Engine.t array;  (** the simulated cores, indexed by id *)
  mutable active : Engine.t;  (** the core currently stepping *)
  redirect : Redirect.t;
  regstacks : Stack_events.registered_stacks;
  image : Guest.Image.t;
  tool : Tool.t;
  mutable instance : Tool.instance option;
  output_buf : Buffer.t;
  mutable echo_output : bool;
  (* accounting.  Cycle counters (host/overhead/jit/smc), block counts,
     chained transfers and chaining state live on each core's {!Engine};
     [blocks_executed] here is the global total (fuel + poll cadence). *)
  mutable blocks_executed : int64;
  mutable translations_made : int;
  mutable retranslations_smc : int;
  mutable verify_checks : int;  (** boundary checks run by the verifier *)
  mutable interp_fallbacks : int;
      (** blocks degraded to one-shot IR interpretation *)
  mutable uninstrumented_steps : int;
      (** last-resort single-instruction steps (no instrumentation) *)
  mutable chaos_flushes : int;  (** forced transtab flushes (chaos) *)
  (* tiered JIT *)
  mutable translations_tier0 : int;  (** quick-tier translations made *)
  mutable translations_full : int;  (** full-pipeline translations made *)
  mutable translations_super : int;  (** superblock translations made *)
  mutable promotions : int;  (** tier-0 -> full retranslations *)
  mutable promotions_failed : int;
      (** promotion attempts that failed (the tier-0 translation keeps
          running; e.g. chaos condemned the retranslation) *)
  mutable superblock_aborts : int;
      (** trace-formation attempts abandoned (path would not stitch, or
          the combined translation failed) *)
  mutable jit_cycles_tier0 : int64;  (** JIT cycles spent in tier 0 *)
  sysw : Syswrap.counters;  (** wrapper restart/retry accounting *)
  (* observability (Vgscope) *)
  metrics : Obs.Registry.t;
      (** the metrics registry every subsystem publishes into; probes
          read the live fields above, so registry and [stats] agree by
          construction *)
  trace : Obs.Trace.t option;  (** structured-event ring, if enabled *)
  profiler : Obs.Profile.t option;  (** guest profile, if enabled *)
  jit_phase_cycles : int64 array;
      (** [jit_cycles] split across the eight pipeline phases; the
          entries always sum to [jit_cycles] exactly *)
  jit_phase_cycles_tier0 : int64 array;
      (** the tier-0 share of [jit_phase_cycles], same indexing; the
          entries sum to [jit_cycles_tier0] exactly *)
  fn_cache : (int64, string * int64) Hashtbl.t;
      (** block pc -> (function name, base), for profile attribution *)
  mutable exit_reason : exit_reason option;
  (* stack-event helpers (registered lazily per session) *)
  mutable stack_helpers : Stack_events.helpers option;
  henv : Vex_ir.Helpers.env;
      (** the helper environment, built once: guest-state access goes to
          the current thread's ThreadState, memory to [mem], and calls to
          this session's helper table (the guest helpers, then every tool
          and stack-event helper the session registers) *)
  (* core client-space allocator arena *)
  mutable arena_next : int64;
  arena_limit : int64;
  mutable arena_free : int Regions.t;
      (** base -> size of the regions given back by {!client_free},
          touching neighbours merged; only drawn on once [arena_next]
          cannot satisfy a request *)
  (* stubs *)
  mutable sigreturn_tramp : int64;
  mutable thread_exit_tramp : int64;
  (* main stack range, for SMC-on-stack detection *)
  mutable stack_lo : int64;
  mutable stack_hi : int64;
  (* static analysis (Vgscan): the whole-image CFG when --scan or
     --aot-seed asked for one, plus oracle and seeding accounting *)
  static_scan : Static.Cfg.t option;
  mutable cfg_checked : int;  (** block starts checked against the CFG *)
  mutable cfg_miss : int;  (** executed starts the scan never found *)
  mutable aot_seeded : int;  (** blocks pre-translated before start-up *)
  mutable aot_failed : int;  (** seed attempts that failed to translate *)
  mutable aot_cycles : int64;
      (** the share of jit cycles spent during AOT seeding *)
  mutable in_aot : bool;  (** inside the seeding loop (accounting flag) *)
  (* record/replay + time travel (Vgrewind) *)
  mutable started : bool;  (** start-up + AOT seeding have run *)
  mutable sched_iters : int64;
      (** scheduler-loop ordinal: the replay key for async signal
          deliveries, chaos flushes, handoff stalls and retire delays *)
  mutable trans_reqs : int64;
      (** translation-request ordinal: the replay key for chaos-condemned
          translations *)
}

(** Total work cycles across every core (host + overhead + jit + smc;
    idle padding excluded — idle is waiting, not work). *)
let total_cycles (s : t) : int64 =
  Array.fold_left
    (fun acc e -> Int64.add acc (Engine.work_cycles e))
    0L s.cores

(** Simulated wall time: the furthest-ahead core clock (work + idle). *)
let wall_cycles (s : t) : int64 =
  Array.fold_left (fun acc e -> max acc (Engine.clock e)) 0L s.cores

let output s msg =
  Buffer.add_string s.output_buf msg;
  if s.echo_output then prerr_string msg

(* Emit one structured trace event, timestamped on the simulated cycle
   clock (never wall-clock: traces replay bit-identically). *)
let tev (s : t) ~cat ~name ?(args = []) () =
  match s.trace with
  | None -> ()
  | Some tr -> Obs.Trace.emit tr ~ts:(total_cycles s) ~cat ~name ~args ()

(* Publish every subsystem's counters into the session's metrics
   registry.  All entries are probes over the same mutable fields the
   [stats] record reads, so the registry and [stats] cannot disagree. *)
let publish_metrics (s : t) =
  let r = s.metrics in
  let pL name f = Obs.Registry.probe r name f in
  let pi name f = pL name (fun () -> Int64.of_int (f ())) in
  let sumL f =
    Array.fold_left (fun acc e -> Int64.add acc (f e)) 0L s.cores
  in
  pL "core.blocks" (fun () -> s.blocks_executed);
  pL "core.host_cycles" (fun () -> sumL (fun e -> e.Engine.cpu.cycles));
  pL "core.host_insns" (fun () -> sumL (fun e -> e.Engine.cpu.insns));
  pL "core.overhead_cycles" (fun () ->
      sumL (fun e -> Int64.of_int e.Engine.overhead_cycles));
  pL "core.jit_cycles" (fun () -> sumL (fun e -> e.Engine.jit_cycles));
  pL "core.smc_cycles" (fun () -> sumL (fun e -> e.Engine.smc_cycles));
  pL "core.total_cycles" (fun () -> total_cycles s);
  pL "core.chained_transfers" (fun () ->
      sumL (fun e -> Int64.of_int e.Engine.chained_transfers));
  pL "core.lock_handoffs" (fun () -> s.threads.lock_handoffs);
  pi "sched.cores" (fun () -> Array.length s.cores);
  pL "sched.wall_cycles" (fun () -> wall_cycles s);
  pi "core.translations" (fun () -> s.translations_made);
  pi "core.retranslations_smc" (fun () -> s.retranslations_smc);
  pi "core.verify_checks" (fun () -> s.verify_checks);
  pi "core.interp_fallbacks" (fun () -> s.interp_fallbacks);
  pi "core.uninstrumented_steps" (fun () -> s.uninstrumented_steps);
  pi "core.chaos_flushes" (fun () -> s.chaos_flushes);
  (* tiered JIT: translation counts and cycle split per tier.  "full"
     cycles cover the optimizing pipeline wherever it ran — promoted
     retranslations and superblocks included. *)
  pi "jit.tier0.translations" (fun () -> s.translations_tier0);
  pi "jit.full.translations" (fun () -> s.translations_full);
  pi "jit.super.translations" (fun () -> s.translations_super);
  pi "jit.promotions" (fun () -> s.promotions);
  pi "jit.promotions_failed" (fun () -> s.promotions_failed);
  pi "jit.superblock_aborts" (fun () -> s.superblock_aborts);
  pL "jit.tier0.cycles" (fun () -> s.jit_cycles_tier0);
  pL "jit.full.cycles" (fun () ->
      Int64.sub (sumL (fun e -> e.Engine.jit_cycles)) s.jit_cycles_tier0);
  for i = 0 to Jit.Pipeline.n_phases - 1 do
    pL
      (Printf.sprintf "jit.phase%d.%s.cycles" (i + 1)
         Jit.Pipeline.phase_names.(i))
      (fun () -> s.jit_phase_cycles.(i));
    pL
      (Printf.sprintf "jit.tier0.phase%d.%s.cycles" (i + 1)
         Jit.Pipeline.phase_names.(i))
      (fun () -> s.jit_phase_cycles_tier0.(i))
  done;
  (* dispatcher aggregates over the per-core caches (the per-core view
     is published by each core under [sched.core<i>.dispatch.*]) *)
  let dsum f = sumL (fun e -> f e.Engine.dispatch) in
  pL "dispatch.hits" (fun () -> dsum (fun d -> d.Dispatch.hits));
  pL "dispatch.misses" (fun () -> dsum (fun d -> d.Dispatch.misses));
  pL "dispatch.entries" (fun () -> dsum Dispatch.entries);
  Obs.Registry.fprobe r "dispatch.hit_rate" (fun () ->
      let hits = dsum (fun d -> d.Dispatch.hits) in
      let total = dsum Dispatch.entries in
      if total = 0L then 0.0
      else Int64.to_float hits /. Int64.to_float total);
  (* Vgscan: soundness oracle and AOT seeding (only when a scan ran,
     so default sessions publish an unchanged metric set) *)
  (match s.static_scan with
  | Some cfg ->
      pi "static.insns" (fun () -> cfg.Static.Cfg.n_insns);
      pi "static.weak_insns" (fun () -> cfg.Static.Cfg.n_weak);
      pi "static.blocks" (fun () -> List.length cfg.Static.Cfg.blocks);
      pi "static.cfg_checked" (fun () -> s.cfg_checked);
      pi "static.cfg_miss" (fun () -> s.cfg_miss);
      pi "jit.aot.seeded" (fun () -> s.aot_seeded);
      pi "jit.aot.failed" (fun () -> s.aot_failed);
      pL "jit.aot.cycles" (fun () -> s.aot_cycles)
  | None -> ());
  Array.iter (fun e -> Engine.publish r e) s.cores;
  Transtab.publish r s.transtab;
  Syswrap.publish r s.sysw;
  match s.opts.chaos with
  | Some c ->
      pi "chaos.injected" (fun () -> Chaos.n_injected c);
      pi "chaos.recoveries" (fun () ->
          List.fold_left (fun a (_, n) -> a + n) 0 (Chaos.recoveries c))
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let symbolize_with (img : Guest.Image.t) (addr : int64) : string =
  match Guest.Image.symbol_for img addr with
  | Some (name, base) when Int64.sub addr base < 0x10000L ->
      if addr = base then name
      else Printf.sprintf "%s+0x%LX" name (Int64.sub addr base)
  | _ -> Printf.sprintf "0x%LX" addr

(* fast-lookup cache entries per core *)
let dispatch_size = 8192

let create ?(options = default_options) ~(tool : Tool.t)
    (image : Guest.Image.t) : t =
  let mem = Aspace.create () in
  let kern = Kernel.create ~mmap_base:Layout.client_mmap_base
      ~mmap_limit:Layout.client_mmap_limit mem
  in
  kern.map_allowed <- Layout.client_map_allowed;
  if options.cores < 1 then invalid_arg "Session.create: cores must be >= 1";
  let threads = Threads.create ~n_cores:options.cores mem in
  let errors = Errors.create () in
  let events = Events.create () in
  let cores =
    Array.init options.cores (fun id ->
        Engine.create ~id ~mem ~dispatch_size
          ~fast_cost:options.dispatch_fast_cost
          ~slow_cost:Dispatch.default_slow_cost)
  in
  let s =
    {
      opts = options;
      mem;
      kern;
      events;
      errors;
      threads;
      transtab =
        Transtab.create ~events ~capacity:options.transtab_capacity
          ~shards:options.cores ();
      cores;
      active = cores.(0);
      redirect = Redirect.create mem;
      regstacks = Stack_events.make_registered_stacks ();
      image;
      tool;
      instance = None;
      output_buf = Buffer.create 1024;
      echo_output = false;
      blocks_executed = 0L;
      translations_made = 0;
      retranslations_smc = 0;
      verify_checks = 0;
      interp_fallbacks = 0;
      uninstrumented_steps = 0;
      chaos_flushes = 0;
      translations_tier0 = 0;
      translations_full = 0;
      translations_super = 0;
      promotions = 0;
      promotions_failed = 0;
      superblock_aborts = 0;
      jit_cycles_tier0 = 0L;
      sysw = Syswrap.fresh_counters ();
      metrics = Obs.Registry.create ();
      trace =
        (if options.trace_capacity > 0 then
           Some (Obs.Trace.create ~capacity:options.trace_capacity)
         else None);
      profiler = (if options.profile then Some (Obs.Profile.create ()) else None);
      jit_phase_cycles = Array.make Jit.Pipeline.n_phases 0L;
      jit_phase_cycles_tier0 = Array.make Jit.Pipeline.n_phases 0L;
      fn_cache = Hashtbl.create 256;
      exit_reason = None;
      stack_helpers = None;
      henv =
        {
          he_get_guest =
            (fun off size -> Threads.get_state threads threads.current ~off ~size);
          he_put_guest =
            (fun off size v ->
              Threads.put_state threads threads.current ~off ~size v);
          he_load = (fun addr size -> Aspace.read mem addr size);
          he_store = (fun addr size v -> Aspace.write mem addr size v);
          he_table = Jit.Ghelpers.table ();
        };
      arena_next = 0x1900_0000L;
      arena_limit = 0x1A00_0000L;
      arena_free = Regions.empty;
      sigreturn_tramp = 0L;
      thread_exit_tramp = 0L;
      stack_lo = 0L;
      stack_hi = 0L;
      static_scan =
        (if options.scan || options.aot_seed then
           Some (Static.Cfg.scan image)
         else None);
      cfg_checked = 0;
      cfg_miss = 0;
      aot_seeded = 0;
      aot_failed = 0;
      aot_cycles = 0L;
      in_aot = false;
      started = false;
      sched_iters = 0L;
      trans_reqs = 0L;
    }
  in
  (* record/replay wiring.  Recording: capture the kernel's stores and
     mapping changes (only those made while a syscall is in flight count
     — guest code never runs during [invoke]).  Replaying: the log's
     core count must match, or every scheduling decision is off.  Both
     count the log they produce or consume under replay.*, which digest
     comparison excludes (Replay.filter_stats), like chaos.*, since those
     keys only exist on one side of the pair. *)
  let probe name f =
    Obs.Registry.probe s.metrics name (fun () -> Int64.of_int (f ()))
  in
  (match options.rr with
  | Replay.Record rec_ ->
      Replay.set_header rec_ ~tool:tool.Tool.name ~cores:options.cores;
      Aspace.add_store_watch mem (fun addr size ->
          Replay.note_store rec_ addr size);
      Aspace.add_map_watch mem (fun ev -> Replay.note_map rec_ ev);
      probe "replay.recorded_events" (fun () -> Replay.n_events rec_)
  | Replay.Replay p ->
      if p.p_log.l_cores <> options.cores then
        invalid_arg
          (Printf.sprintf
             "Session.create: log was recorded with cores=%d, session has %d"
             p.p_log.l_cores options.cores);
      List.iter
        (fun (k, _) ->
          probe ("replay." ^ k) (fun () -> List.assoc k (Replay.progress p)))
        (Replay.progress p)
  | Replay.No_rr -> ());
  (* chaos: transient mapping denials, injected behind the core's own
     pre-check so a denial looks exactly like address-space pressure *)
  (match options.chaos with
  | Some c ->
      let base = kern.map_allowed in
      kern.map_allowed <-
        (fun addr len -> base addr len && not (Chaos.map_denied c ~addr ~len))
  | None -> ());
  errors.symbolize <-
    (fun a ->
      match Redirect.stub_name s.redirect a with
      | Some n -> n
      | None -> symbolize_with image a);
  errors.output <- (fun msg -> output s msg);
  kern.now_cycles <- (fun () -> total_cycles s);
  Transtab.set_observer s.transtab ~trace:s.trace
    ~now:(fun () -> total_cycles s);
  (* chaos injections mirror into the structured trace *)
  (match (options.chaos, s.trace) with
  | Some c, Some _ ->
      Chaos.set_sink c (fun ~kind ~detail ->
          tev s ~cat:"chaos" ~name:kind ~args:[ ("detail", Obs.Trace.S detail) ] ())
  | _ -> ());
  publish_metrics s;
  s

(** A session that replays [log] from its start: the log's core count
    and recorded translation flags (its "options" meta) over the default
    options, no chaos, and a fresh player.  Every front end that replays
    a log builds its session here. *)
let replaying ~(tool : Tool.t) (image : Guest.Image.t) (log : Replay.log) : t =
  let options =
    { default_options with
      cores = log.l_cores;
      rr = Replay.Replay (Replay.player log) }
  in
  let options =
    match List.assoc_opt "options" log.l_meta with
    | Some o -> decode_options o options
    | None -> options
  in
  create ~options ~tool image

(** Symbolise an address: image symbols, plus redirection-stub names. *)
let symbolize (s : t) (a : int64) : string =
  match Redirect.stub_name s.redirect a with
  | Some n -> n
  | None -> symbolize_with s.image a

(* The function a block pc belongs to (cached): a redirection stub by
   its own name, else the nearest image symbol at or below.  Local
   labels (".L...", emitted by minicc for branch targets) are skipped
   so attribution rolls up to the enclosing function. *)
let is_local_label (n : string) =
  String.length n >= 2 && n.[0] = '.' && n.[1] = 'L'

let fn_symbol_for (img : Guest.Image.t) (addr : int64) =
  List.fold_left
    (fun best (name, a) ->
      if is_local_label name then best
      else if Int64.unsigned_compare a addr <= 0 then
        match best with
        | Some (_, ba) when Int64.unsigned_compare ba a >= 0 -> best
        | _ -> Some (name, a)
      else best)
    None img.Guest.Image.symbols

let resolve_fn (s : t) (pc : int64) : string * int64 =
  match Hashtbl.find_opt s.fn_cache pc with
  | Some r -> r
  | None ->
      let r =
        match Redirect.stub_name s.redirect pc with
        | Some n -> (n, pc)
        | None -> (
            match fn_symbol_for s.image pc with
            | Some (n, base) -> (n, base)
            | None -> (Printf.sprintf "0x%LX" pc, pc))
      in
      Hashtbl.replace s.fn_cache pc r;
      r

(* Core client-space allocator (backs replacement heap allocators).
   It bumps [arena_next] through the arena, and only once that cannot
   satisfy a request takes the first freed region that fits; 0 when
   nothing does.  A run that never fills the arena therefore allocates
   the same addresses whether or not its tool frees. *)
let client_alloc (s : t) (size : int) : int64 =
  let size = (size + 15) land lnot 15 in
  let addr = s.arena_next in
  let next = Int64.add addr (Int64.of_int size) in
  if Int64.unsigned_compare next s.arena_limit < 0 then begin
    (* map on demand, page-rounded *)
    Aspace.map ~zero:false s.mem ~addr:(Aspace.round_down addr)
      ~len:(Int64.to_int (Int64.sub (Aspace.round_up next) (Aspace.round_down addr)))
      ~perm:Aspace.perm_rw;
    s.arena_next <- next;
    addr
  end
  else
    (* freed regions lie below [arena_next], so they are mapped already *)
    match Seq.find (fun (_, n) -> n >= size) (Regions.to_seq s.arena_free) with
    | Some (a, n) ->
        s.arena_free <- Regions.remove a s.arena_free;
        if n > size then
          s.arena_free <-
            Regions.add (Int64.add a (Int64.of_int size)) (n - size) s.arena_free;
        a
    | None -> 0L

(* Give back the region [client_alloc s size] returned at [addr],
   merged with a free neighbour on either side. *)
let client_free (s : t) (addr : int64) (size : int) =
  let size = (size + 15) land lnot 15 in
  let free = s.arena_free in
  let addr, size, free =
    match Regions.find_last_opt (fun a -> Int64.compare a addr < 0) free with
    | Some (a, n) when Int64.add a (Int64.of_int n) = addr ->
        (a, n + size, Regions.remove a free)
    | _ -> (addr, size, free)
  in
  let next = Int64.add addr (Int64.of_int size) in
  let size, free =
    match Regions.find_opt next free with
    | Some n -> (size + n, Regions.remove next free)
    | None -> (size, free)
  in
  s.arena_free <- Regions.add addr size free

let on_discard (s : t) (addr : int64) (len : int) =
  (* discard_range unlinks every chain into the dropped translations
     (the correctness-critical §3.16 path) and marks them dead; each
     core's fast-lookup cache notices lazily (a hit on a dead
     translation is a miss), so no cross-core flush is needed *)
  ignore (Transtab.discard_range s.transtab addr len)

let charge (s : t) c = Engine.charge s.active c

let register_helper (s : t) ~fx_reads ~name ~cost f : Vex_ir.Ir.callee =
  Vex_ir.Helpers.register s.henv.he_table ~fx_reads ~name ~cost f

let caps_of (s : t) : Tool.caps =
  {
    events = s.events;
    errors = s.errors;
    mem = s.mem;
    output = (fun msg -> output s msg);
    read_guest = s.henv.he_get_guest;
    write_guest = s.henv.he_put_guest;
    cur_eip = (fun () -> Threads.get_eip s.threads s.threads.current);
    cur_tid = (fun () -> s.threads.current.tid);
    stack_trace =
      (fun () -> Threads.stack_trace s.threads s.threads.current ());
    symbolize = symbolize s;
    client_alloc = (fun size -> client_alloc s size);
    client_free = (fun addr size -> client_free s addr size);
    replace_function =
      (fun ~symbol ~handler ->
        match List.assoc_opt symbol s.image.symbols with
        | Some addr ->
            Redirect.replace ~name:(symbol ^ " (redirected)") s.redirect
              ~addr ~handler
        | None -> ());
    wrap_function =
      (fun ~symbol ~on_enter ~on_exit ->
        match List.assoc_opt symbol s.image.symbols with
        | Some addr ->
            Redirect.wrap s.redirect ~addr ~arity:4 ~on_enter ~on_exit
        | None -> ());
    discard_translations = (fun addr len -> on_discard s addr len);
    charge_cycles = (fun c -> charge s c);
    register_helper =
      (fun ?(fx_reads = []) ~name ~cost ~nargs f ->
        ignore nargs;
        register_helper s ~fx_reads ~name ~cost (fun _env args -> f args));
  }

(* An SP change bigger than this is a stack switch, not an allocation
   (Valgrind's 2MB heuristic). *)
let stack_switch_threshold = 0x20_0000L

(* Register the stack-event helpers for this session (only when the tool
   tracks stack events). *)
let make_stack_helpers (s : t) : Stack_events.helpers =
  let fx = [ (GA.off_sp, 4) ] in
  let h_new =
    register_helper s ~name:"core_new_mem_stack" ~cost:4 ~fx_reads:fx
      (fun _env args ->
        Events.fire_new_mem_stack s.events ~addr:args.(0)
          ~len:(Int64.to_int args.(1));
        0L)
  in
  let h_die =
    register_helper s ~name:"core_die_mem_stack" ~cost:4 ~fx_reads:fx
      (fun _env args ->
        Events.fire_die_mem_stack s.events
          ~addr:(Int64.sub args.(0) args.(1))
          ~len:(Int64.to_int args.(1));
        0L)
  in
  let h_unknown =
    register_helper s ~name:"core_unknown_sp_update" ~cost:8 ~fx_reads:fx
      (fun env args ->
        let old_sp = env.he_get_guest GA.off_sp 4 in
        let new_sp = args.(0) in
        (match
           Stack_events.classify_sp_change
             ~threshold:stack_switch_threshold s.regstacks ~old_sp
             ~new_sp
         with
        | None -> () (* stack switch: no events *)
        | Some (base, len, is_alloc) ->
            if is_alloc then
              Events.fire_new_mem_stack s.events ~addr:base ~len
            else Events.fire_die_mem_stack s.events ~addr:base ~len);
        0L)
  in
  { h_new; h_die; h_unknown }

(* ------------------------------------------------------------------ *)
(* Start-up (§3.3)                                                      *)
(* ------------------------------------------------------------------ *)

let startup (s : t) =
  (* tool initialisation: registers events, redirects, helpers *)
  let inst = s.tool.create (caps_of s) in
  s.instance <- Some inst;
  if s.events.new_mem_stack <> None || s.events.die_mem_stack <> None then
    s.stack_helpers <- Some (make_stack_helpers s);
  (* trampolines *)
  s.sigreturn_tramp <-
    Redirect.write_stub s.redirect
      [ GA.Movi (0, Int64.of_int Kernel.Num.sys_sigreturn); GA.Syscall ];
  s.thread_exit_tramp <-
    Redirect.write_stub s.redirect
      [ GA.Movi (0, Int64.of_int Kernel.Num.sys_thread_exit); GA.Syscall ];
  (* load the client; fire R5 startup events *)
  let entry, sp, brk, mapped = Guest.Image.load s.image s.mem in
  Kernel.set_brk_base s.kern brk;
  List.iter
    (fun (m : Guest.Image.mapped) ->
      if m.m_what = "stack" then begin
        s.stack_lo <- m.m_base;
        s.stack_hi <- Int64.add m.m_base (Int64.of_int m.m_len)
      end;
      Events.fire_new_mem_startup s.events ~addr:m.m_base ~len:m.m_len
        ~defined:m.m_defined ~what:m.m_what)
    mapped;
  let th = s.threads.current in
  Threads.put_reg s.threads th GA.reg_sp sp;
  Threads.put_reg s.threads th GA.reg_fp sp;
  Threads.put_eip s.threads th entry

(* ------------------------------------------------------------------ *)
(* Translation                                                          *)
(* ------------------------------------------------------------------ *)

let instrument_fn (s : t) : Jit.Pipeline.instrument =
 fun b ->
  let b =
    match s.instance with Some i -> i.instrument b | None -> b
  in
  match s.stack_helpers with
  | Some h -> Stack_events.instrument h b
  | None -> b

let wants_smc_check (s : t) (pc : int64) : bool =
  match s.opts.smc_mode with
  | Smc_none -> false
  | Smc_all -> true
  | Smc_stack ->
      (Int64.unsigned_compare pc s.stack_lo >= 0
      && Int64.unsigned_compare pc s.stack_hi < 0)
      || List.exists
           (fun (_, lo, hi) ->
             Int64.unsigned_compare lo pc <= 0
             && Int64.unsigned_compare pc hi < 0)
           s.regstacks.stacks

(* ------------------------------------------------------------------ *)
(* Decisions between blocks                                             *)
(* ------------------------------------------------------------------ *)

(* The one record/replay port for the decisions the core takes between
   blocks: signal delivery (§3.15), and chaos's forced flushes, handoff
   stalls, retire delays and condemned translations.  Live, [live s x]
   decides, giving [Some (value, where)] when the decision fires (see
   {!Replay.decision}), and a recording session logs it at [ordinal]; a
   replaying session takes the decision from the log instead.  [x] is
   passed rather than captured, so a decision allocates nothing unless
   it fires. *)
let decide (s : t) (point : Replay.point) ~(ordinal : int64)
    (live : t -> 'a -> (int * int64) option) (x : 'a) : (int * int64) option =
  match s.opts.rr with
  | Replay.No_rr -> live s x
  | Replay.Replay p -> (
      match Replay.due p point ~ordinal ~cycle:(wall_cycles s) with
      | Some d -> Some (d.d_value, d.d_where)
      | None -> None)
  | Replay.Record r ->
      let v = live s x in
      (match v with
      | Some (d_value, d_where) ->
          Replay.record r
            { d_point = point; d_ordinal = ordinal; d_value; d_where;
              d_cycle = wall_cycles s }
      | None -> ());
      v

(* The live side of each decision point. *)
let chaos_condemn (s : t) (pc : int64) =
  match s.opts.chaos with
  | Some c ->
      Option.map (fun phase -> (phase, pc)) (Chaos.translation_fate c ~pc)
  | None -> None

let pending_signal (s : t) () =
  Option.map
    (fun (tid, signo) -> (signo, Int64.of_int tid))
    (Kernel.take_pending_signal s.kern)

let chaos_flush (s : t) () =
  match s.opts.chaos with
  | Some c when Chaos.flush_cache c -> Some (0, 0L)
  | _ -> None

let chaos_stall (s : t) (e : Engine.t) =
  match s.opts.chaos with
  | Some c -> Option.map (fun n -> (n, 0L)) (Chaos.handoff_stall c ~core:e.id)
  | None -> None

let chaos_retire (s : t) () =
  match s.opts.chaos with
  | Some c
    when Transtab.retire_pending s.transtab > 0
         && Chaos.retire_delay c ~pending:(Transtab.retire_pending s.transtab)
    ->
      Some (0, 0L)
  | _ -> None

(* The per-boundary checks for one translation request: the Vglint
   verifiers composed with any chaos-condemned forced failures.  The
   quick tier calls every boundary hook too (with [pre == post] at the
   identity phases), so both verification coverage and the chaos
   failure contract are tier-independent. *)
let translation_checks (s : t) ~(fetch_pc : int64) :
    Jit.Pipeline.checks option =
  (* every translation request gets an ordinal: the replay key for
     chaos-condemned translations (the request sequence is deterministic,
     the dice roll is not) *)
  s.trans_reqs <- Int64.add s.trans_reqs 1L;
  let verify_checks =
    if s.opts.verify_jit then
      Some
        (Verify.pipeline_checks ~shadow:s.tool.shadow_ranges
           ~on_check:(fun _ -> s.verify_checks <- s.verify_checks + 1)
           ())
    else None
  in
  (* chaos: this translation request may be condemned to fail at one of
     the eight phase boundaries (recovery interprets the block instead) *)
  let chaos_checks =
    match
      decide s Replay.Condemn ~ordinal:s.trans_reqs chaos_condemn fetch_pc
    with
    | Some (phase, _) -> Some (Chaos.checks_failing_at phase)
    | None -> None
  in
  match (verify_checks, chaos_checks) with
  | Some a, Some b -> Some (Jit.Pipeline.compose_checks a b)
  | (Some _ as a), None -> a
  | None, (Some _ as b) -> b
  | None, None -> None

(* Charge a fresh translation's cycles (total and per-tier), count it,
   mirror it into the trace, and make it resident. *)
let account_translation (s : t) ~(pc : int64) (t : Jit.Pipeline.translation)
    : unit =
  let start = total_cycles s in
  let cost = Jit.Pipeline.translation_cost t in
  Array.iteri
    (fun i c ->
      s.jit_phase_cycles.(i) <-
        Int64.add s.jit_phase_cycles.(i) (Int64.of_int c))
    t.t_phase_cycles;
  (* the requesting core pays for (and owns) the translation *)
  t.t_core <- s.active.Engine.id;
  s.active.Engine.jit_cycles <-
    Int64.add s.active.Engine.jit_cycles (Int64.of_int cost);
  (* AOT seeding pays normal jit cycles, but the share is sub-accounted
     so cold-start cost (total jit minus aot) stays measurable *)
  if s.in_aot then s.aot_cycles <- Int64.add s.aot_cycles (Int64.of_int cost);
  (match t.t_tier with
  | Jit.Pipeline.Tier_quick ->
      Array.iteri
        (fun i c ->
          s.jit_phase_cycles_tier0.(i) <-
            Int64.add s.jit_phase_cycles_tier0.(i) (Int64.of_int c))
        t.t_phase_cycles;
      s.jit_cycles_tier0 <- Int64.add s.jit_cycles_tier0 (Int64.of_int cost);
      s.translations_tier0 <- s.translations_tier0 + 1
  | Jit.Pipeline.Tier_full -> s.translations_full <- s.translations_full + 1
  | Jit.Pipeline.Tier_super ->
      s.translations_super <- s.translations_super + 1);
  s.translations_made <- s.translations_made + 1;
  (* trace: one summary slice for the translation plus one slice per
     phase, tiled end to end on the simulated timeline *)
  (match s.trace with
  | Some tr ->
      Obs.Trace.emit tr ~ts:start ~dur:(Int64.of_int cost) ~cat:"jit"
        ~name:"translate"
        ~args:
          [ ("pc", Obs.Trace.I pc);
            ("tier", Obs.Trace.S (Jit.Pipeline.tier_name t.t_tier));
            ("stmts_pre", Obs.Trace.I (Int64.of_int t.t_ir_stmts_pre));
            ("stmts_post", Obs.Trace.I (Int64.of_int t.t_ir_stmts_post));
            ("code_bytes", Obs.Trace.I (Int64.of_int (Bytes.length t.t_code))) ]
        ();
      let ts = ref start in
      Array.iteri
        (fun i c ->
          Obs.Trace.emit tr ~ts:!ts ~dur:(Int64.of_int c) ~cat:"jit"
            ~name:Jit.Pipeline.phase_names.(i)
            ~args:[ ("pc", Obs.Trace.I pc) ]
            ();
          ts := Int64.add !ts (Int64.of_int c))
        t.t_phase_cycles
  | None -> ());
  Transtab.insert s.transtab pc t

let translate_tier (s : t) ~(tier : Jit.Pipeline.tier) (pc : int64) :
    Jit.Pipeline.translation =
  let fetch_pc = Redirect.resolve s.redirect pc in
  let fetch addr = Aspace.fetch_u8 s.mem addr in
  let checks = translation_checks s ~fetch_pc in
  let t =
    Jit.Pipeline.translate ~unroll:s.opts.unroll_loops ?checks ~tier ~fetch
      ~instrument:(instrument_fn s) fetch_pc
  in
  let t = { t with t_guest_addr = pc; t_smc_check = wants_smc_check s fetch_pc } in
  account_translation s ~pc t;
  t

(* Tier selection for a cold block: quick when tiering is on. *)
let translate (s : t) (pc : int64) : Jit.Pipeline.translation =
  let tier =
    if s.opts.tier0 then Jit.Pipeline.Tier_quick else Jit.Pipeline.Tier_full
  in
  translate_tier s ~tier pc

(* find-or-translate via the scheduler (slow path) *)
let scheduler_find (s : t) (pc : int64) : Jit.Pipeline.translation =
  match Transtab.find s.transtab pc with
  | Some t -> t
  | None -> translate s pc

(* most blocks AOT seeding will pre-translate *)
let aot_limit = 8192

(* AOT seeding: pre-translate every statically discovered basic block
   through the cold tier before the client executes its first
   instruction.  Failures are counted, never fatal — a block the static
   scan found but the JIT rejects simply translates lazily later. *)
let aot_seed_blocks (s : t) : unit =
  match s.static_scan with
  | Some cfg when s.opts.aot_seed ->
      let tier =
        if s.opts.tier0 then Jit.Pipeline.Tier_quick
        else Jit.Pipeline.Tier_full
      in
      s.in_aot <- true;
      (try
         List.iter
           (fun pc ->
             if s.aot_seeded >= aot_limit then raise Exit;
             if Transtab.find s.transtab pc = None then
               match translate_tier s ~tier pc with
               | _ -> s.aot_seeded <- s.aot_seeded + 1
               | exception
                   ( Jit.Pipeline.Translation_failure _
                   | Guest.Decode.Truncated
                   | Guest.Decode.Truncated_at _
                   | Aspace.Fault _ ) ->
                   s.aot_failed <- s.aot_failed + 1)
           (Static.Cfg.block_starts cfg)
       with Exit -> ());
      s.in_aot <- false;
      tev s ~cat:"jit" ~name:"aot_seed"
        ~args:
          [ ("seeded", Obs.Trace.I (Int64.of_int s.aot_seeded));
            ("failed", Obs.Trace.I (Int64.of_int s.aot_failed)) ]
        ()
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Signals (§3.15)                                                      *)
(* ------------------------------------------------------------------ *)

(* The one place a session ends (clean exit, fatal signal, fuel): the
   first reason sticks. *)
let finish (s : t) (reason : exit_reason) =
  if s.exit_reason = None then s.exit_reason <- Some reason

let fatal (s : t) (th : Threads.thread) (signal : int) =
  tev s ~cat:"signal" ~name:"fatal"
    ~args:[ ("sig", Obs.Trace.S (Kernel.Sig.name signal)) ]
    ();
  output s
    (Printf.sprintf "==vg== Process terminating with default action of %s\n"
       (Kernel.Sig.name signal));
  let stack = Threads.stack_trace s.threads th () in
  List.iteri
    (fun i a ->
      output s
        (Printf.sprintf "==vg==    %s 0x%LX: %s\n"
           (if i = 0 then "at" else "by")
           a
           (symbolize s a)))
    stack;
  finish s (Fatal_signal signal)

(** Deliver [signal] to [th], between code blocks — so a load/shadow-load
    pair is never separated (§3.15). *)
let deliver_signal (s : t) (th : Threads.thread) (signal : int) =
  match Kernel.handler_for s.kern signal with
  | None -> fatal s th signal
  | Some h ->
      tev s ~cat:"signal" ~name:"deliver"
        ~args:[ ("sig", Obs.Trace.S (Kernel.Sig.name signal)) ]
        ();
      Threads.save_frame s.threads th;
      (* push the signal number argument and the sigreturn trampoline as
         the return address, then enter the handler *)
      let sp = Threads.get_reg s.threads th GA.reg_sp in
      let sp = Int64.sub sp 4L in
      Aspace.write s.mem sp 4 (Int64.of_int signal);
      let sp = Int64.sub sp 4L in
      Aspace.write s.mem sp 4 s.sigreturn_tramp;
      Threads.put_reg s.threads th GA.reg_sp sp;
      Threads.put_eip s.threads th h.sh_addr

(* Deliver into the target thread's ThreadState, and preempt its core
   so the handler runs the next time that core steps (when the target is
   on the stepping core, it runs immediately — the single-core
   behaviour). *)
let deliver_to (s : t) (tid : int) (signal : int) =
  match Threads.find s.threads tid with
  | Some th when th.status = Threads.Runnable ->
      Threads.preempt s.threads th
        ~make_current:(th.core = s.active.Engine.id);
      deliver_signal s th signal
  | _ -> deliver_signal s s.threads.current signal

(* The kernel never runs on replay, so its pending queue stays empty;
   deliveries come from the log, keyed by the scheduler iteration at
   which the recording session took them. *)
let check_signals (s : t) =
  match decide s Replay.Signal ~ordinal:s.sched_iters pending_signal () with
  | Some (signo, tid) -> deliver_to s (Int64.to_int tid) signo
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Client requests (§3.11)                                              *)
(* ------------------------------------------------------------------ *)

let read_args (s : t) (argp : int64) (n : int) : int64 array =
  Array.init n (fun i ->
      try Aspace.read s.mem (Int64.add argp (Int64.of_int (4 * i))) 4
      with Aspace.Fault _ -> 0L)

let handle_client_request (s : t) =
  let th = s.threads.current in
  let code = Threads.get_reg s.threads th 0 in
  let argp = Threads.get_reg s.threads th 1 in
  let set_result v = Threads.put_reg s.threads th 0 v in
  (* internal codes from replacement stubs *)
  match Redirect.lookup_handler s.redirect code with
  | Some handler -> handler ()
  | None ->
      if code = Clientreq.running_on_valgrind then set_result 1L
      else if code = Clientreq.discard_translations then begin
        let args = read_args s argp 2 in
        on_discard s args.(0) (Int64.to_int args.(1));
        set_result 0L
      end
      else if code = Clientreq.print_msg then begin
        let msg = Aspace.read_asciiz s.mem argp in
        output s msg;
        set_result (Int64.of_int (String.length msg))
      end
      else if code = Clientreq.stack_register then begin
        let args = read_args s argp 2 in
        let id = s.regstacks.next_id in
        s.regstacks.next_id <- id + 1;
        s.regstacks.stacks <- (id, args.(0), args.(1)) :: s.regstacks.stacks;
        set_result (Int64.of_int id)
      end
      else if code = Clientreq.stack_deregister then begin
        let args = read_args s argp 1 in
        s.regstacks.stacks <-
          List.filter
            (fun (id, _, _) -> id <> Int64.to_int args.(0))
            s.regstacks.stacks;
        set_result 0L
      end
      else if code = Clientreq.stack_change then begin
        let args = read_args s argp 3 in
        s.regstacks.stacks <-
          List.map
            (fun (id, lo, hi) ->
              if id = Int64.to_int args.(0) then (id, args.(1), args.(2))
              else (id, lo, hi))
            s.regstacks.stacks;
        set_result 0L
      end
      else
        let args = read_args s argp 4 in
        match s.instance with
        | Some inst -> (
            match inst.client_request ~code ~args with
            | Some v -> set_result v
            | None -> set_result 0L)
        | None -> set_result 0L

(* ------------------------------------------------------------------ *)
(* Record/replay (Vgrewind): digests                                    *)
(* ------------------------------------------------------------------ *)

(** Host instructions executed so far, summed over every core — the
    target unit for {!back}. *)
let host_insns (s : t) : int64 =
  Array.fold_left (fun acc e -> Int64.add acc e.Engine.cpu.insns) 0L s.cores

let ensure_started (s : t) =
  if not s.started then begin
    s.started <- true;
    startup s;
    aot_seed_blocks s
  end

(** Final-state digests, written to the log trailer by a recording
    session and checked after replay.  "stats" covers the whole metrics
    registry modulo the chaos.* / replay.* keys that only exist on one
    side of a record/replay pair. *)
let digests (s : t) : (string * string) list =
  let exit_str =
    match s.exit_reason with
    | Some (Exited n) -> Printf.sprintf "exited:%d" n
    | Some (Fatal_signal n) -> Printf.sprintf "signal:%d" n
    | Some Out_of_fuel -> "out_of_fuel"
    | None -> "running"
  in
  let th_h = ref Replay.fnv_basis in
  List.iter
    (fun (th : Threads.thread) ->
      th_h :=
        Replay.fnv_string ~h:!th_h
          (Printf.sprintf "t%d@%Ld" th.tid (Threads.get_eip s.threads th));
      for rg = 0 to GA.n_regs - 1 do
        th_h :=
          Replay.fnv_string ~h:!th_h
            (Int64.to_string (Threads.get_reg s.threads th rg))
      done)
    (List.sort
       (fun (a : Threads.thread) (b : Threads.thread) -> compare a.tid b.tid)
       s.threads.threads);
  let ev_h =
    Array.fold_left
      (fun h v -> Replay.fnv_string ~h (Int64.to_string v))
      Replay.fnv_basis
      (Events.counts s.events)
  in
  [
    ("exit", exit_str);
    ("threads", Replay.hex !th_h);
    ("memory", Replay.hex (Replay.hash_aspace s.mem));
    ("events", Replay.hex ev_h);
    ("stdout", Replay.hex (Replay.fnv_string (Kernel.stdout_contents s.kern)));
    ("tool", Replay.hex (Replay.fnv_string (Buffer.contents s.output_buf)));
    ( "stats",
      Replay.hex
        (Replay.fnv_string
           (Replay.filter_stats (Obs.Registry.to_json s.metrics))) );
  ]

(** Compare the replayed final state against the log's trailer.
    Returns [(key, recorded, got)] mismatches; empty = bit-identical. *)
let replay_mismatches (s : t) : (string * string * string) list =
  match s.opts.rr with
  | Replay.Replay p ->
      let got = digests s in
      List.filter_map
        (fun (k, want) ->
          match List.assoc_opt k got with
          | Some g when g = want -> None
          | Some g -> Some (k, want, g)
          | None -> Some (k, want, "<missing>"))
        p.Replay.p_log.Replay.l_digests
  | _ -> []

(* ------------------------------------------------------------------ *)
(* The main scheduler loop (§3.9)                                       *)
(* ------------------------------------------------------------------ *)

(* SMC self-check: rehash the guest bytes a translation came from. *)
let smc_ok (s : t) (t : Jit.Pipeline.translation) : bool =
  let fetch addr = try Aspace.read_u8 s.mem addr with Aspace.Fault _ -> 0 in
  let h = Jit.Pipeline.hash_guest_bytes fetch t.t_guest_ranges in
  let e = s.active in
  e.Engine.smc_cycles <-
    Int64.add e.Engine.smc_cycles (Int64.of_int (2 * t.t_guest_bytes));
  h = t.t_code_hash

(* Dispatcher entry: the stepping core's fast-lookup cache, then the
   scheduler (§3.9). *)
let lookup_via_dispatcher (s : t) (pc : int64) : Jit.Pipeline.translation =
  let d = s.active.Engine.dispatch in
  match Dispatch.lookup d pc with
  | Some t ->
      charge s d.fast_cost;
      t
  | None ->
      charge s (d.fast_cost + d.slow_cost);
      let t = scheduler_find s pc in
      Dispatch.update d pc t;
      t

(* -- tiered JIT: promotion and trace superblocks ------------------- *)

(* Hotness promotion: retranslate a hot tier-0 block with the optimizing
   pipeline.  [Transtab.insert] on the same key unlinks every chain into
   the quick translation and the dispatcher entry is refreshed, so the
   replacement happens exactly once and no stale pointer survives.  A
   failed attempt (e.g. chaos condemned the retranslation) marks the
   quick translation so it keeps running without a retry storm. *)
let promote (s : t) (pc : int64) (t0 : Jit.Pipeline.translation) :
    Jit.Pipeline.translation =
  match translate_tier s ~tier:Jit.Pipeline.Tier_full pc with
  | exception (Guest.Decode.Truncated | Jit.Pipeline.Translation_failure _)
    ->
      t0.t_no_promote <- true;
      s.promotions_failed <- s.promotions_failed + 1;
      tev s ~cat:"jit" ~name:"promote_failed"
        ~args:[ ("pc", Obs.Trace.I pc) ]
        ();
      Chaos.note_recovery s.opts.chaos "promotion_failed";
      t0
  | t ->
      t.t_hotness <- t0.t_hotness;
      s.promotions <- s.promotions + 1;
      Dispatch.update s.active.Engine.dispatch pc t;
      tev s ~cat:"jit" ~name:"promote" ~args:[ ("pc", Obs.Trace.I pc) ] ();
      t

(* Trace selection: starting from the full-tier translation whose hot
   exit just fired, greedily follow the hottest boring chainable exit
   into resident full-tier translations.  Stops at cycles, redirected
   addresses, cold or non-boring exits, missing/other-tier translations,
   or the length cap.  Everything consulted (slot heat, tier, residency)
   is a deterministic function of the execution history, so formation
   replays bit-identically. *)
let select_trace (s : t) (src : Jit.Pipeline.translation) : int64 list =
  (* successors must be at least half as hot as the trigger threshold:
     on a straight hot path the downstream slots trail the trigger by at
     most one transfer, while genuinely cold side paths stay excluded *)
  let min_hot = (s.opts.trace_threshold + 1) / 2 in
  let rec go (visited : int64 list) (t : Jit.Pipeline.translation) (n : int)
      : int64 list =
    if n >= s.opts.trace_max_blocks then List.rev visited
    else
      let best =
        Array.fold_left
          (fun best (sl : Jit.Pipeline.chain_slot) ->
            if
              sl.Jit.Pipeline.cs_kind <> HA.ek_boring
              || sl.cs_hot < min_hot
              || List.mem sl.cs_target visited
              || Redirect.resolve s.redirect sl.cs_target <> sl.cs_target
              || Transtab.covered_by_super s.transtab sl.cs_target
            then best
            else
              match best with
              | Some (b : Jit.Pipeline.chain_slot)
                when b.cs_hot >= sl.cs_hot ->
                  best
              | _ -> Some sl)
          None t.t_exits
      in
      match best with
      | None -> List.rev visited
      | Some sl -> (
          match Transtab.find s.transtab sl.cs_target with
          | Some nt when nt.t_tier = Jit.Pipeline.Tier_full ->
              go (sl.cs_target :: visited) nt (n + 1)
          | _ -> List.rev visited)
  in
  go [ src.t_guest_addr ] src 1

(* Stitch the hot path starting at [head] into one superblock
   translation and make it resident under the head's key (the
   constituent translations stay resident under theirs, so side exits
   fall back to them).  Unstitchable or failed traces just count an
   abort — execution continues on the per-block translations. *)
let form_superblock (s : t) (head : Jit.Pipeline.translation) : unit =
  let pc = head.t_guest_addr in
  let path = select_trace s head in
  if List.length path < 2 then
    s.superblock_aborts <- s.superblock_aborts + 1
  else
    let fetch addr = Aspace.fetch_u8 s.mem addr in
    let checks = translation_checks s ~fetch_pc:pc in
    match
      Jit.Pipeline.translate_trace ~unroll:s.opts.unroll_loops ?checks
        ~fetch ~instrument:(instrument_fn s) path
    with
    | exception (Guest.Decode.Truncated | Jit.Pipeline.Translation_failure _)
      ->
        s.superblock_aborts <- s.superblock_aborts + 1;
        tev s ~cat:"jit" ~name:"superblock_abort"
          ~args:[ ("pc", Obs.Trace.I pc) ]
          ();
        Chaos.note_recovery s.opts.chaos "superblock_abort"
    | None -> s.superblock_aborts <- s.superblock_aborts + 1
    | Some t ->
        (* SMC policy is per constituent: check whenever any stitched
           range wants it.  [t_guest_ranges] spans every constituent, so
           discard-by-range invalidation needs no special casing. *)
        let t =
          {
            t with
            t_smc_check = List.exists (wants_smc_check s) t.t_constituents;
          }
        in
        account_translation s ~pc t;
        Dispatch.update s.active.Engine.dispatch pc t;
        tev s ~cat:"jit" ~name:"superblock"
          ~args:
            [ ("pc", Obs.Trace.I pc);
              ("blocks", Obs.Trace.I (Int64.of_int (List.length t.t_constituents))) ]
          ()

(* Bump a chained exit's heat; at exactly the threshold (once per slot),
   try to stitch the hot path it starts into a superblock. *)
let note_chained_transfer (s : t) (src : Jit.Pipeline.translation)
    (slot : Jit.Pipeline.chain_slot) : unit =
  slot.cs_hot <- slot.cs_hot + 1;
  if
    s.opts.superblocks && s.opts.trace_threshold > 0
    && slot.cs_hot = s.opts.trace_threshold
    && src.t_tier = Jit.Pipeline.Tier_full
    && slot.cs_kind = HA.ek_boring
    && Redirect.resolve s.redirect src.t_guest_addr = src.t_guest_addr
    && not (Transtab.covered_by_super s.transtab src.t_guest_addr)
  then form_superblock s src

(* cycles for a chained transfer *)
let chain_cost = 2

let find_translation (s : t) (pc : int64) : Jit.Pipeline.translation =
  let e = s.active in
  match e.Engine.last_slot with
  | Some slot when s.opts.chaining && slot.cs_target = pc -> (
      (* the previous block on this core left through a chainable
         (constant-target) exit site whose target is where we are going *)
      let src = e.Engine.last_src in
      match slot.cs_next with
      | Some t when not t.Jit.Pipeline.t_dead ->
          (* patched: control transfers straight to the successor *)
          charge s chain_cost;
          e.Engine.chained_transfers <- e.Engine.chained_transfers + 1;
          Events.tick_chain_followed s.events;
          note_chained_transfer s src slot;
          t
      | _ ->
          (* first warm transit of this exit: dispatch normally, then
             patch the site so the dispatcher is bypassed from now on.
             [Transtab.link] refuses if either translation is no longer
             resident (nothing would unlink the chain later); the link
             is recorded in this core's chain shard. *)
          let t = lookup_via_dispatcher s pc in
          ignore (Transtab.link s.transtab ~core:e.Engine.id ~src ~slot ~dst:t);
          t)
  | _ -> lookup_via_dispatcher s pc

let do_thread_create (s : t) ~entry ~sp ~arg =
  let th = Threads.spawn s.threads in
  (* new thread: r1 = arg, return address = thread-exit trampoline *)
  Threads.put_reg s.threads th 1 arg;
  let sp = Int64.sub sp 4L in
  Aspace.write s.mem sp 4 s.thread_exit_tramp;
  Threads.put_reg s.threads th GA.reg_sp sp;
  Threads.put_reg s.threads th GA.reg_fp sp;
  Threads.put_eip s.threads th entry;
  (* if the thread landed on an idle core, fast-forward that core to
     the creating core's clock: a core cannot have executed the thread
     before it existed *)
  if
    th.core <> s.active.Engine.id
    && not
         (List.exists
            (fun (x : Threads.thread) ->
              x.tid <> th.tid && x.status = Threads.Runnable)
            (Threads.on_core s.threads th.core))
  then Engine.fast_forward s.cores.(th.core) ~now:(Engine.clock s.active);
  th.tid

(* Rotate the stepping core to its next runnable thread, counting an
   actual handoff (tid changed) against that core. *)
let switch_thread (s : t) : bool =
  let before = s.threads.current.tid in
  let ok = Threads.switch_to_next s.threads in
  if ok && s.threads.current.tid <> before then
    s.active.Engine.handoffs <- Int64.add s.active.Engine.handoffs 1L;
  ok

(* Act on the exit kind a block left through — shared by the JIT path
   and the interpreted degradation paths, so a degraded block's
   syscalls, client requests and signals behave identically. *)
let handle_exit (s : t) (th : Threads.thread) ~(ek : int) ~(dest : int64) =
  if ek = HA.ek_syscall then begin
    let wrap_env =
      { Syswrap.events = s.events; kern = s.kern;
        on_discard = (fun a l -> on_discard s a l);
        chaos = s.opts.chaos; counters = s.sysw;
        charge = (fun c -> charge s c);
        rr = s.opts.rr; now = (fun () -> wall_cycles s) }
    in
    match Syswrap.syscall wrap_env ~tid:th.tid (Threads.regs_of s.threads th) with
    | Kernel.Ok -> ()
    | Kernel.Exit_process code -> finish s (Exited code)
    | Kernel.Thread_create { entry; sp; arg } ->
        let tid = do_thread_create s ~entry ~sp ~arg in
        Threads.put_reg s.threads th 0 (Int64.of_int tid)
    | Kernel.Thread_exit ->
        (* the stepping core may be out of threads, but others may not
           be: global exhaustion is the scheduler's call (no core has a
           runnable thread), not this core's *)
        th.status <- Threads.Exited;
        ignore (switch_thread s)
    | Kernel.Yield -> ignore (switch_thread s)
    | Kernel.Sigreturn ->
        if not (Threads.restore_frame s.threads th) then
          fatal s th Kernel.Sig.sigsegv
  end
  else if ek = HA.ek_clientreq then handle_client_request s
  else if ek = HA.ek_sigill then begin
    output s
      (Printf.sprintf "==vg== Illegal instruction at 0x%LX\n" dest);
    deliver_signal s th Kernel.Sig.sigill
  end
  else if ek = HA.ek_yield then ignore (switch_thread s)

let invalid_exec (s : t) (th : Threads.thread) (pc : int64) =
  (* jumping to unmapped/non-executable memory faults exactly like
     native execution: SIGSEGV, not SIGILL from decoding zero bytes *)
  s.active.Engine.last_slot <- None;
  output s (Printf.sprintf "==vg== Invalid exec at address 0x%LX\n" pc);
  deliver_signal s th Kernel.Sig.sigsegv

(* Last rung of the degradation ladder: execute one guest instruction
   directly against the ThreadState, uninstrumented.  Only reached when
   even the IR front end (phases 1-4) cannot process the block. *)
let step_uninstrumented (s : t) (th : Threads.thread) =
  s.uninstrumented_steps <- s.uninstrumented_steps + 1;
  tev s ~cat:"degrade" ~name:"uninstrumented_step"
    ~args:[ ("pc", Obs.Trace.I (Threads.get_eip s.threads th)) ]
    ();
  Chaos.note_recovery s.opts.chaos "uninstrumented_step";
  let get off size = Threads.get_state s.threads th ~off ~size in
  let put off size v = Threads.put_state s.threads th ~off ~size v in
  match Guest.Interp.step_external ~mem:s.mem ~get ~put with
  | exception Aspace.Fault f ->
      s.active.Engine.last_slot <- None;
      output s
        (Printf.sprintf "==vg== Invalid %s at address 0x%LX\n"
           (Fmt.str "%a" Aspace.pp_access_kind f.kind)
           f.addr);
      deliver_signal s th Kernel.Sig.sigsegv
  | exception Guest.Interp.Sigill at ->
      output s (Printf.sprintf "==vg== Illegal instruction at 0x%LX\n" at);
      deliver_signal s th Kernel.Sig.sigill
  | exception Guest.Interp.Sigfpe _ ->
      s.active.Engine.last_slot <- None;
      deliver_signal s th Kernel.Sig.sigfpe
  | cost, outcome -> (
      charge s cost;
      s.blocks_executed <- Int64.add s.blocks_executed 1L;
      s.active.Engine.blocks_executed <- s.active.Engine.blocks_executed + 1;
      th.blocks_run <- th.blocks_run + 1;
      match outcome with
      | Guest.Interp.X_next -> ()
      | Guest.Interp.X_syscall ->
          handle_exit s th ~ek:HA.ek_syscall
            ~dest:(Threads.get_eip s.threads th)
      | Guest.Interp.X_clreq ->
          handle_exit s th ~ek:HA.ek_clientreq
            ~dest:(Threads.get_eip s.threads th))

(* Graceful degradation (the recovery half of Vgchaos): the JIT refused
   this block, so run it one-shot through the IR evaluator instead of
   killing the session.  Phases 1-4 are rebuilt — including the tool's
   instrumentation — and evaluated with the same helper environment the
   compiled code would use, so every tool event, shadow update and
   helper call still fires and analysis results stay exact.  Nothing is
   inserted into the translation table: the next visit to this address
   re-enters the JIT (where translation will normally succeed). *)
let run_block_interp (s : t) (th : Threads.thread) ~(pc : int64) =
  s.interp_fallbacks <- s.interp_fallbacks + 1;
  s.active.Engine.last_slot <- None;
  tev s ~cat:"degrade" ~name:"interp_fallback"
    ~args:[ ("pc", Obs.Trace.I pc) ]
    ();
  Chaos.note_recovery s.opts.chaos "interp_fallback";
  let fetch_pc = Redirect.resolve s.redirect pc in
  match
    Jit.Pipeline.translate_ir ~unroll:s.opts.unroll_loops
      ~fetch:(fun a -> Aspace.fetch_u8 s.mem a)
      ~instrument:(instrument_fn s) fetch_pc
  with
  | exception Guest.Decode.Truncated -> invalid_exec s th pc
  | exception
      ( Jit.Pipeline.Translation_failure _ | Vex_ir.Typecheck.Ill_typed _
      | Failure _ | Invalid_argument _ | Not_found ) ->
      step_uninstrumented s th
  | ir, _stats -> (
      (* interpretation is slower than compiled code; charge for it *)
      let interp_cost = 8 * Support.Vec.length ir.Vex_ir.Ir.stmts in
      charge s interp_cost;
      match Vex_ir.Eval.run s.henv ir with
      | exception Aspace.Fault f ->
          output s
            (Printf.sprintf "==vg== Invalid %s at address 0x%LX\n"
               (Fmt.str "%a" Aspace.pp_access_kind f.kind)
               f.addr);
          deliver_signal s th Kernel.Sig.sigsegv
      | exception Vex_ir.Eval.Eval_error msg
        when msg = "integer division by zero" ->
          deliver_signal s th Kernel.Sig.sigfpe
      | { Vex_ir.Eval.next_pc; jumpkind } ->
          Threads.put_eip s.threads th next_pc;
          s.blocks_executed <- Int64.add s.blocks_executed 1L;
          s.active.Engine.blocks_executed <-
            s.active.Engine.blocks_executed + 1;
          th.blocks_run <- th.blocks_run + 1;
          (match s.profiler with
          | Some p ->
              let name, base = resolve_fn s pc in
              Obs.Profile.block p ~core:s.active.Engine.id ~base ~name
                ~cycles:(Int64.of_int interp_cost)
          | None -> ());
          handle_exit s th ~ek:(HA.ek_of_jumpkind jumpkind) ~dest:next_pc)

(* Acquire the translation for [pc], including the SMC re-check.  Raises
   [Guest.Decode.Truncated] when [pc] cannot be fetched and
   [Jit.Pipeline.Translation_failure] when the JIT refuses the block. *)
let acquire_translation (s : t) (pc : int64) : Jit.Pipeline.translation =
  let t = find_translation s pc in
  if t.t_smc_check && not (smc_ok s t) then begin
    (* §3.16: hash mismatch -> discard and retranslate.  discard_key
       unlinks every chain pointing into the stale translation and marks
       it dead; other cores' caches notice lazily. *)
    Transtab.discard_key s.transtab pc;
    s.retranslations_smc <- s.retranslations_smc + 1;
    tev s ~cat:"smc" ~name:"retranslate" ~args:[ ("pc", Obs.Trace.I pc) ] ();
    let t' = translate s pc in
    Dispatch.update s.active.Engine.dispatch pc t';
    t'
  end
  else t

(** Execute one code block of the stepping core's current thread. *)
let run_block (s : t) =
  let e = s.active in
  let th = s.threads.current in
  let pc = Threads.get_eip s.threads th in
  Engine.trace_block e pc;
  (* Vgscan soundness oracle: every executed block start inside the
     image text must be a statically discovered instruction start.
     Stubs, trampolines and stack-hosted code live outside text and are
     exempt by the range check. *)
  (match s.static_scan with
  | Some cfg ->
      if
        Int64.unsigned_compare pc cfg.Static.Cfg.text_lo >= 0
        && Int64.unsigned_compare pc cfg.Static.Cfg.text_hi < 0
      then begin
        s.cfg_checked <- s.cfg_checked + 1;
        if not (Static.Cfg.known_insn cfg pc) then
          s.cfg_miss <- s.cfg_miss + 1
      end
  | None -> ());
  match acquire_translation s pc with
  | exception Guest.Decode.Truncated -> invalid_exec s th pc
  | exception (Jit.Pipeline.Translation_failure _ as e) ->
      if not s.opts.interp_fallback then raise e;
      run_block_interp s th ~pc
  | t -> (
      (* tiered JIT: a quick translation that crossed the hotness
         threshold is promoted to the optimizing tier before running *)
      let t =
        if
          t.t_tier = Jit.Pipeline.Tier_quick
          && s.opts.promote_threshold > 0
          && (not t.t_no_promote)
          && t.t_hotness >= s.opts.promote_threshold
        then promote s pc t
        else t
      in
      t.t_hotness <- t.t_hotness + 1;
      Host.Interp.set_hreg e.Engine.cpu HA.gsp th.ts_addr;
      let prof_cycles0 = e.Engine.cpu.cycles in
      match Host.Interp.run e.Engine.cpu ~env:s.henv t.t_decoded with
      | exception Aspace.Fault f ->
          e.Engine.last_slot <- None;
          output s
            (Printf.sprintf "==vg== Invalid %s at address 0x%LX\n"
               (Fmt.str "%a" Aspace.pp_access_kind f.kind)
               f.addr);
          deliver_signal s th Kernel.Sig.sigsegv
      | exception Host.Interp.Host_sigfpe ->
          e.Engine.last_slot <- None;
          deliver_signal s th Kernel.Sig.sigfpe
      | ek, dest, exit_site ->
          e.Engine.last_src <- t;
          e.Engine.last_slot <-
            (if s.opts.chaining then Jit.Pipeline.find_chain_slot t exit_site
             else None);
          Threads.put_eip s.threads th dest;
          s.blocks_executed <- Int64.add s.blocks_executed 1L;
          e.Engine.blocks_executed <- e.Engine.blocks_executed + 1;
          th.blocks_run <- th.blocks_run + 1;
          (match s.profiler with
          | Some p ->
              let name, base = resolve_fn s pc in
              Obs.Profile.block p ~core:e.Engine.id ~base ~name
                ~cycles:(Int64.sub e.Engine.cpu.cycles prof_cycles0);
              if ek = HA.ek_call then begin
                let callee_name, callee_base = resolve_fn s dest in
                Obs.Profile.call p ~caller:base ~callee_base ~callee_name
              end
          | None -> ());
          handle_exit s th ~ek ~dest)

(* Scheduler epoch boundary: free translations retired a full epoch ago
   and sweep them out of every core's fast-lookup cache and last-exit
   record.  A chaos fault point ([p_retire_delay]) can hold the retire
   list one extra epoch — the delayed schedule must stay safe, which the
   [t_dead] lazy-miss rule guarantees.  Bookkeeping only: no cycles. *)
let advance_epoch (s : t) =
  let delay =
    Option.is_some
      (decide s Replay.Retire ~ordinal:s.sched_iters chaos_retire ())
  in
  let freed = Transtab.advance_epoch ~delay s.transtab in
  if freed <> [] then
    Array.iter
      (fun e ->
        Dispatch.purge_dead e.Engine.dispatch;
        if e.Engine.last_src.Jit.Pipeline.t_dead then
          e.Engine.last_slot <- None)
      s.cores

(* The scheduler's core pick: among cores with a runnable thread, the
   one with the lowest clock; ties go to the lowest id (the scan runs
   in ascending id order, so an earlier equal clock wins).  The result
   indexes [s.cores]; -1 means no thread anywhere can run — the session
   is done. *)
let pick_core (s : t) : int =
  let best = ref (-1) in
  for i = 0 to Array.length s.cores - 1 do
    if
      Threads.has_runnable s.threads ~core:s.cores.(i).Engine.id
      && (!best < 0
         || Int64.compare (Engine.clock s.cores.(!best))
              (Engine.clock s.cores.(i))
            > 0)
    then best := i
  done;
  !best

(* the dispatcher falls back into the scheduler this often (paper:
   "every few thousand translation executions") *)
let sched_poll_blocks = 3000L

(** One scheduler-loop iteration: bump the iteration ordinal, roll (or
    replay) the chaos scheduling points, pick a core and run one block.
    Returns [false] once the session has exited. *)
let step (s : t) : bool =
  ensure_started s;
  (match s.exit_reason with
  | Some _ -> ()
  | None -> (
      s.sched_iters <- Int64.add s.sched_iters 1L;
      if
        s.opts.max_blocks > 0L
        && Int64.unsigned_compare s.blocks_executed s.opts.max_blocks > 0
      then finish s Out_of_fuel
      else begin
        (* chaos: forced code-cache pressure between blocks — every
           resident translation and chain is dropped at once, on every
           core.  Recorded/replayed by scheduler iteration. *)
        if
          Option.is_some
            (decide s Replay.Flush ~ordinal:s.sched_iters chaos_flush ())
        then begin
          Transtab.flush s.transtab;
          Array.iter
            (fun e ->
              Dispatch.flush e.Engine.dispatch;
              e.Engine.last_slot <- None)
            s.cores;
          s.chaos_flushes <- s.chaos_flushes + 1
        end;
        match pick_core s with
        | -1 -> finish s (Exited 0)
        | i ->
            let e = s.cores.(i) in
            (* core handoff: chaos may model a migration stall on the
               incoming core (never fires at the default p = 0) *)
            if e.Engine.id <> s.active.Engine.id then begin
              (match
                 decide s Replay.Stall ~ordinal:s.sched_iters chaos_stall e
               with
              | Some (cycles, _) -> Engine.charge e cycles
              | None -> ());
              s.active <- e
            end;
            Threads.select s.threads ~core:e.Engine.id;
            (* periodic scheduler entry: signal poll + epoch advance.
               On replay the pending queue is always empty (the kernel
               never runs), so the log is polled every iteration — it
               holds deliveries from both record-side branches. *)
            if Int64.rem s.blocks_executed sched_poll_blocks = 0L then begin
              charge s e.Engine.dispatch.slow_cost;
              check_signals s;
              advance_epoch s
            end
            else if
              match s.opts.rr with
              | Replay.Replay _ -> true
              | _ -> not (Queue.is_empty s.kern.pending)
            then check_signals s;
            (* timeslice rotation keyed on the *thread's own* block
               count, so a thread that arrives mid-interval still gets
               a full slice (rotation used to key on the global block
               counter modulo, which starved late-arriving threads) *)
            let th = s.threads.current in
            if
              s.opts.timeslice_blocks > 0
              && th.status = Threads.Runnable
              && th.blocks_run - th.slice_start >= s.opts.timeslice_blocks
            then ignore (switch_thread s);
            if s.threads.current.status <> Threads.Runnable then
              ignore (switch_thread s)
            else run_block s
      end));
  s.exit_reason = None

(** Step until the session exits or [stop] holds (checked between
    iterations, i.e. at block boundaries). *)
let run_to (s : t) ~(stop : t -> bool) : unit =
  ensure_started s;
  let continue_ = ref true in
  while !continue_ do
    if s.exit_reason <> None || stop s then continue_ := false
    else continue_ := step s
  done

let run_inner (s : t) : exit_reason =
  run_to s ~stop:(fun _ -> false);
  let reason = Option.value s.exit_reason ~default:(Exited 0) in
  (match s.instance with
  | Some inst ->
      let exit_code = match reason with Exited c -> c | _ -> 1 in
      inst.fini ~exit_code
  | None -> ());
  (* recording: seal the log with the final-state digests (after the
     tool's fini, so the tool-output digest covers its report) *)
  (match s.opts.rr with
  | Replay.Record rec_ -> Replay.finish rec_ ~digests:(digests s)
  | _ -> ());
  reason

(* Snapshot the current thread's guest state and the dispatcher's recent
   history for post-mortem rendering. *)
let crash_context (s : t) (what : string) : Errors.crash_context =
  let th = s.threads.current in
  let trace = Engine.recent_blocks s.active in
  {
    cc_what = what;
    cc_eip = Threads.get_eip s.threads th;
    cc_regs = Array.init GA.n_regs (fun r -> Threads.get_reg s.threads th r);
    cc_blocks = s.blocks_executed;
    cc_trace = trace;
    cc_stack = (try Threads.stack_trace s.threads th () with _ -> []);
  }

(** Run the client to completion.  Returns the exit reason.  An error
    that escapes every recovery path (a verifier failure, a core bug) is
    re-raised — but only after a crash context (guest registers, PC, the
    last dispatched blocks, guest stack) is rendered to the tool output
    stream, so there is always a post-mortem record of what the client
    was doing when control was lost (§3.2). *)
let run (s : t) : exit_reason =
  try run_inner s
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    (try output s (Errors.render_crash s.errors (crash_context s (Printexc.to_string e)))
     with _ -> ());
    Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Time travel: seek / back                                             *)
(* ------------------------------------------------------------------ *)

(* A fresh session over the same log, image, tool and options, not yet
   started.  Replay is deterministic, so running it forward reaches any
   earlier point of [s] exactly. *)
let rewound (s : t) : t =
  match s.opts.rr with
  | Replay.Replay p ->
      let rr = Replay.Replay (Replay.player p.Replay.p_log) in
      create ~options:{ s.opts with rr } ~tool:s.tool s.image
  | _ -> invalid_arg "Session: going backwards needs a replaying session"

(** The session at the first block boundary at or after wall-cycle
    [cycle]: [s] itself run forward when [cycle] is not behind it, else a
    fresh replaying session re-executed from the start (going back needs
    [s] to be replaying). *)
let seek (s : t) ~(cycle : int64) : t =
  let s = if Int64.compare (wall_cycles s) cycle > 0 then rewound s else s in
  run_to s ~stop:(fun s -> Int64.compare (wall_cycles s) cycle >= 0);
  s

(** The session [insns] host instructions before [s], at block
    granularity (the first block boundary at or after the target),
    re-executed in a fresh replaying session. *)
let back (s : t) ~(insns : int64) : t =
  let target = max 0L (Int64.sub (host_insns s) insns) in
  let s = rewound s in
  run_to s ~stop:(fun s -> Int64.compare (host_insns s) target >= 0);
  s

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_blocks : int64;
  st_host_cycles : int64;
  st_host_insns : int64;
  st_overhead_cycles : int64;
  st_jit_cycles : int64;
  st_smc_cycles : int64;
  st_total_cycles : int64;
      (** work cycles summed over every core (idle excluded) *)
  st_cores : int;  (** simulated cores this session ran with *)
  st_wall_cycles : int64;
      (** simulated wall time: the furthest-ahead core clock *)
  st_translations : int;
  st_retranslations_smc : int;
  st_verify_checks : int;  (** phase-boundary verifications run *)
  st_jit_phase_cycles : int64 array;
      (** [st_jit_cycles] attributed to the eight pipeline phases; the
          entries sum to [st_jit_cycles] exactly *)
  (* tiered JIT *)
  st_translations_tier0 : int;  (** quick-tier translations made *)
  st_translations_full : int;  (** full-pipeline translations made *)
  st_translations_super : int;  (** superblock translations made *)
  st_promotions : int;  (** tier-0 -> full retranslations *)
  st_promotions_failed : int;  (** promotion attempts that failed *)
  st_superblock_aborts : int;  (** abandoned trace formations *)
  st_jit_cycles_tier0 : int64;  (** the tier-0 share of [st_jit_cycles] *)
  st_jit_phase_cycles_tier0 : int64 array;
      (** the tier-0 share of [st_jit_phase_cycles]; the entries sum to
          [st_jit_cycles_tier0] exactly *)
  st_dispatch_hits : int64;
  st_dispatch_misses : int64;
  st_dispatch_hit_rate : float;
  st_dispatch_entries : int64;  (** lookups = hits + misses *)
  st_chained : int64;  (** transfers that bypassed the dispatcher *)
  st_chain_patched : int;  (** exit sites patched (cumulative) *)
  st_chain_unlinked : int;  (** slots unlinked on evict/discard/SMC *)
  st_chain_live : int;  (** currently-patched slots *)
  st_transtab_used : int;
  st_transtab_evictions : int;
  st_lock_handoffs : int64;
  (* robustness / chaos *)
  st_interp_fallbacks : int;  (** blocks degraded to IR interpretation *)
  st_uninstrumented_steps : int;  (** last-resort single steps *)
  st_chaos_flushes : int;  (** forced cache flushes *)
  st_syscall_restarts : int;  (** transparent EINTR restarts *)
  st_injected_errnos : int;  (** injected errnos the client saw *)
  st_short_io : int;  (** injected short reads/writes *)
  st_map_retries : int;  (** mmap/mremap retries after transient denial *)
  (* static analysis (Vgscan) *)
  st_cfg_checked : int;  (** block starts checked by the oracle *)
  st_cfg_miss : int;  (** executed starts the static scan never found *)
  st_aot_seeded : int;  (** blocks pre-translated before start-up *)
  st_aot_failed : int;  (** AOT seed attempts that failed *)
  st_aot_cycles : int64;  (** the AOT share of [st_jit_cycles] *)
}

let stats (s : t) : stats =
  let sumL f = Array.fold_left (fun acc e -> Int64.add acc (f e)) 0L s.cores in
  {
    st_blocks = s.blocks_executed;
    st_host_cycles = sumL (fun e -> e.Engine.cpu.cycles);
    st_host_insns = sumL (fun e -> e.Engine.cpu.insns);
    st_overhead_cycles = sumL (fun e -> Int64.of_int e.Engine.overhead_cycles);
    st_jit_cycles = sumL (fun e -> e.Engine.jit_cycles);
    st_smc_cycles = sumL (fun e -> e.Engine.smc_cycles);
    st_total_cycles = total_cycles s;
    st_cores = Array.length s.cores;
    st_wall_cycles = wall_cycles s;
    st_translations = s.translations_made;
    st_retranslations_smc = s.retranslations_smc;
    st_verify_checks = s.verify_checks;
    st_jit_phase_cycles = Array.copy s.jit_phase_cycles;
    st_translations_tier0 = s.translations_tier0;
    st_translations_full = s.translations_full;
    st_translations_super = s.translations_super;
    st_promotions = s.promotions;
    st_promotions_failed = s.promotions_failed;
    st_superblock_aborts = s.superblock_aborts;
    st_jit_cycles_tier0 = s.jit_cycles_tier0;
    st_jit_phase_cycles_tier0 = Array.copy s.jit_phase_cycles_tier0;
    st_dispatch_hits = sumL (fun e -> e.Engine.dispatch.Dispatch.hits);
    st_dispatch_misses = sumL (fun e -> e.Engine.dispatch.Dispatch.misses);
    st_dispatch_hit_rate =
      (let hits = sumL (fun e -> e.Engine.dispatch.Dispatch.hits) in
       let total = sumL (fun e -> Dispatch.entries e.Engine.dispatch) in
       if total = 0L then 0.0
       else Int64.to_float hits /. Int64.to_float total);
    st_dispatch_entries = sumL (fun e -> Dispatch.entries e.Engine.dispatch);
    st_chained = sumL (fun e -> Int64.of_int e.Engine.chained_transfers);
    st_chain_patched = s.transtab.n_chain_links;
    st_chain_unlinked = s.transtab.n_chain_unlinks;
    st_chain_live = s.transtab.live_chains;
    st_transtab_used = s.transtab.used;
    st_transtab_evictions = s.transtab.n_evicted;
    st_lock_handoffs = s.threads.lock_handoffs;
    st_interp_fallbacks = s.interp_fallbacks;
    st_uninstrumented_steps = s.uninstrumented_steps;
    st_chaos_flushes = s.chaos_flushes;
    st_syscall_restarts = s.sysw.n_restarts;
    st_injected_errnos = s.sysw.n_injected_errnos;
    st_short_io = s.sysw.n_short_io;
    st_map_retries = s.sysw.n_map_retries;
    st_cfg_checked = s.cfg_checked;
    st_cfg_miss = s.cfg_miss;
    st_aot_seeded = s.aot_seeded;
    st_aot_failed = s.aot_failed;
    st_aot_cycles = s.aot_cycles;
  }

(** Client console output (via the simulated kernel). *)
let client_stdout (s : t) = Kernel.stdout_contents s.kern

let tool_output (s : t) = Buffer.contents s.output_buf

(* ------------------------------------------------------------------ *)
(* Observability exports (Vgscope)                                      *)
(* ------------------------------------------------------------------ *)

(** The session's metrics registry: every subsystem's counters, gauges
    and probes, readable at any time.  The probes read the same mutable
    fields {!stats} reads, so the two views cannot disagree. *)
let metrics (s : t) : Obs.Registry.t = s.metrics

(** All metrics as one flat JSON object (sorted keys, one line per
    metric) — the [--stats=json] payload.  Deterministic: every value
    comes from the simulated cycle model or exact counters. *)
let stats_json (s : t) : string = Obs.Registry.to_json s.metrics

(** The structured-event trace ring, if tracing was enabled. *)
let trace (s : t) : Obs.Trace.t option = s.trace

(** Render the guest-execution profile (the [--profile] report): a flat
    per-function table from exact block counters, the observed
    caller/callee edges, and the hottest resident translations with
    their per-translation metadata. *)
let profile_report ?(top = 20) (s : t) : string =
  match s.profiler with
  | None -> "==vgscope== profiling was not enabled (pass --profile)\n"
  | Some p ->
      let b = Buffer.create 1024 in
      Buffer.add_string b
        (Obs.Profile.report ~top ~name_of:(fun pc -> fst (resolve_fn s pc)) p);
      let hot = Transtab.hottest s.transtab top in
      if hot <> [] then begin
        Buffer.add_string b
          "==vgscope== hot translations (resident, by executions):\n";
        Buffer.add_string b
          "==vgscope==       execs  tier   jit-cyc  bytes  ir-pre  ir-post  location\n";
        List.iter
          (fun (t : Jit.Pipeline.translation) ->
            Buffer.add_string b
              (Printf.sprintf "==vgscope== %11d %5s %9d %6d %7d %8d  %s\n"
                 t.t_hotness
                 (Jit.Pipeline.tier_name t.t_tier)
                 (Jit.Pipeline.translation_cost t)
                 (Bytes.length t.t_code) t.t_ir_stmts_pre t.t_ir_stmts_post
                 (symbolize s t.t_guest_addr)))
          hot
      end;
      Buffer.contents b
